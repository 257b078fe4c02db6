"""Comparison systems: static pooling, Procrustes chaining, local linear maps."""

import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg

from tvembed.corpus import pool_stats
from tvembed.evaluation import CosineRows
from tvembed.ppmi import PpmiSequence, build_ppmi
from tvembed.solver import final_embedding, train


def factorize_single(Y, config):
    """Factorize one PPMI matrix with the solver restricted to T=1, where
    the smoothing weight multiplies no neighbour and has no effect."""
    seq = train(PpmiSequence(matrices=[Y], vocab_size=Y.shape[0]), config)
    return final_embedding(seq)[0]


def train_static(stats_list, config):
    """Static baseline: pool counts over all slices, then factorize once.

    Pooling happens at the count level; the PPMI of pooled counts is not
    the sum of per-slice PPMIs.
    """
    pooled = pool_stats(stats_list)
    return factorize_single(build_ppmi(pooled), config)


def train_slice(Y_t, t, config):
    """Train slice t (0-based) of a sequence on its own PPMI matrix `Y_t`.

    Each slice gets a distinct seed so the runs are genuinely independent;
    sharing a seed would leave near-identical initializations that fake
    alignment.
    """
    return factorize_single(
        Y_t, replace(config, seed=config.seed + 1000003 * (t + 1)))


def train_per_slice(Y, config):
    """Train every slice independently (the unaligned two-step front end);
    returns one embedding matrix per slice."""
    return [train_slice(m, t, config) for t, m in enumerate(Y.matrices)]


def procrustes_align(source, target):
    """Best orthogonal map R minimizing ||source @ R - target||_F.

    Solved by the SVD of source^T @ target: with P S Q^T = source^T target,
    R = P Q^T. The full orthogonal group is allowed (det may be -1). On
    rank deficiency the SVD-canonical choice is kept with a warning; the
    rank counts the singular values above `np.linalg.matrix_rank`'s
    tolerance, s.max() * d * eps.
    """
    if source.shape != target.shape:
        raise ValueError("source and target must have equal shapes")
    M = source.T @ target
    P, s, Qt = scipy.linalg.svd(M)
    d = source.shape[1]
    if np.count_nonzero(s > s.max() * d * np.finfo(s.dtype).eps) < d:
        warnings.warn("rank-deficient Procrustes system; map is not unique")
    return P @ Qt


def align_sequence(per_slice):
    """Chain Procrustes maps so every slice's matrix lives in the first
    slice's frame.

    Slice 1 is the anchor; slice t is mapped onto the already-aligned
    slice t-1.
    """
    aligned = [per_slice[0].copy()]
    for t in range(1, len(per_slice)):
        R = procrustes_align(per_slice[t], aligned[t - 1])
        aligned.append(per_slice[t] @ R)
    return aligned


def local_linear_maps(records, slices, k=30, norms=None):
    """Map query vectors between slices via their local linear transforms.

    `records` holds (query_word, source_label, target_label) tuples over
    `slices`, which maps each slice label to its embedding matrix. For each,
    the k nearest neighbors of the query word in the source slice by cosine
    (query excluded, ties broken by ascending word index) are taken among
    the words nonzero in both slices; the least-squares d x d map from their
    source rows to their target rows (ridge 1e-8 when those rows have rank
    below d) is applied to the query vector. Returns the mapped vectors in
    record order, with None where the query's source vector is zero or fewer
    than k other words are nonzero in both slices.

    Records are grouped by (source, target) pair, and each pair's candidate
    rows are prepared once as one `evaluation.CosineRows` of the source slice,
    which finds a block of records' neighbours per matrix product; only one
    pair's are held at a time. `norms`, if given, maps a slice label
    to the slice's row norms, `np.linalg.norm(m, axis=1)`; a label without an
    entry has them computed. When k < d the k neighbor rows cannot have rank
    d, so the rank test is skipped and the ridge form is used.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    norms = norms or {}

    def row_norms(label):
        n = norms.get(label)
        return np.linalg.norm(slices[label], axis=1) if n is None else n

    pairs = {}
    for i, (_, source, target) in enumerate(records):
        pairs.setdefault((source, target), []).append(i)
    mapped = [None] * len(records)
    for (source, target), members in pairs.items():
        words = [records[i][0] for i in members]
        for i, m in zip(members, _pair_maps(
                slices[source], slices[target], words, k,
                row_norms(source), row_norms(target))):
            mapped[i] = m
    return mapped


def _pair_maps(source_t, target_t, query_words, k, source_norms,
               target_norms):
    """`local_linear_maps` for the queries of one slice pair, in order."""
    # A word that is zero in the target slice is no neighbour.
    rows = CosineRows(source_t,
                      norms=np.where(target_norms > 0, source_norms, 0.0))
    d = source_t.shape[1]
    ridge = 1e-8 * np.eye(d)
    mapped = [None] * len(query_words)
    queries = {}
    for i, w in enumerate(query_words):
        qn = np.linalg.norm(source_t[w])
        if qn > 0:
            queries[i] = (source_t[w], qn, w)
    for i, nbrs in zip(queries, rows.tops(list(queries.values()), k)):
        if nbrs[-1] < 0:
            continue
        q = queries[i][0]
        S = source_t[nbrs]
        Tm = target_t[nbrs]
        if k < d or np.linalg.matrix_rank(S) < d:
            # Ridge fallback keeps the system well-posed on degenerate
            # neighborhoods.
            M = scipy.linalg.solve(S.T @ S + ridge, S.T @ Tm)
        else:
            M = scipy.linalg.lstsq(S, Tm)[0]
        mapped[i] = q @ M
    return mapped

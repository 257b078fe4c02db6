import json
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from tvembed.corpus import SliceStats
from tvembed.evaluation import TOP_RANK_CUTOFF
from tvembed.ppmi import PpmiMatrix, PpmiSequence
from tvembed.synthetic import planted_shift_corpus


def random_ppmi_sequence(V, T, density=0.3, seed=0):
    """Random sparse symmetric nonnegative matrices shaped like PPMI data."""
    rng = np.random.default_rng(seed)
    mats = []
    for t in range(T):
        dense = rng.random((V, V)) * (rng.random((V, V)) < density)
        dense = np.triu(dense)
        dense = dense + np.triu(dense, k=1).T
        mats.append(
            PpmiMatrix(values=sp.csr_matrix(dense), slice_label=t)
        )
    return PpmiSequence(matrices=mats, vocab_size=V)


def damaged_csr(matrix, kind, rng):
    """The CSR arrays (indptr, indices, data) of canonical `matrix` with one
    row's columns reversed ("unsorted") or one stored entry stored twice
    ("duplicate"), the row drawn by `rng`; None if no row can be damaged
    that way."""
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    rows = np.flatnonzero(np.diff(indptr) >= (2 if kind == "unsorted" else 1))
    if not len(rows):
        return None
    r = int(rng.choice(rows))
    lo, hi = indptr[r], indptr[r + 1]
    if kind == "unsorted":
        flip = np.r_[np.arange(lo), np.arange(hi - 1, lo - 1, -1),
                     np.arange(hi, len(indices))]
        return indptr, indices[flip], data[flip]
    at = int(rng.integers(lo, hi))
    return (indptr + (np.arange(len(indptr)) > r),
            np.insert(indices, at, indices[at]), np.insert(data, at, data[at]))


def write_planted_jsonl(path):
    """Write a planted-shift corpus of 8 slices x 2000 documents x 20 tokens
    (V=2001) to `path` as JSON lines."""
    corpus = planted_shift_corpus(n_slices=8, community_size=1000,
                                  docs_per_slice=2000, doc_len=20, halo=5,
                                  seed=3)
    Path(path).write_text("".join(
        json.dumps({"label": label, "text": " ".join(doc)}) + "\n"
        for label, ids in zip(corpus.slice_labels, corpus.slices)
        for doc in ids.documents()))


def dense_objective_terms(seq, Y, cfg):
    """Brute-force dense (fit, coupling, ridge, smoothing) terms of the full
    training objective of the factors `seq` under the SolverConfig `cfg`."""
    fit = coupling = ridge = smoothing = 0.0
    for t in range(seq.num_slices):
        D = Y.matrices[t].values.toarray()
        fit += 0.5 * np.sum((D - seq.U[t] @ seq.W[t].T) ** 2)
        coupling += 0.5 * cfg.coupling * np.sum((seq.U[t] - seq.W[t]) ** 2)
        ridge += 0.5 * cfg.ridge * (np.sum(seq.U[t] ** 2)
                                    + np.sum(seq.W[t] ** 2))
        if t > 0:
            smoothing += 0.5 * cfg.smoothing * (
                np.sum((seq.U[t - 1] - seq.U[t]) ** 2)
                + np.sum((seq.W[t - 1] - seq.W[t]) ** 2))
    return fit, coupling, ridge, smoothing


def dense_objective_oracle(seq, Y, cfg):
    """Brute-force dense evaluation of the full training objective."""
    return sum(dense_objective_terms(seq, Y, cfg))


def normal_residual(new, A, B):
    """Relative residual ||new @ A - B||_F / ||B||_F (0 if B == 0) of the
    ridge system  new @ A = B, such as an update against the
    `dense_ridge_system` built from the state it was solved from."""
    bnorm = np.linalg.norm(B)
    if bnorm == 0:
        return 0.0
    return float(np.linalg.norm(new @ A - B) / bnorm)


def residual_gradient(U_t, Y_t):
    """Gradient of f(U) = 1/2 ||Y - U U^T||_F^2 for symmetric sparse Y.

    Equals -2 Y U + 2 U (U^T U). Verification path for the symmetric
    formulation; the BCD updates do not use it.
    """
    Y = Y_t.values
    if Y.shape[0] != U_t.shape[0]:
        raise ValueError("shape mismatch between Y and U")
    return -2.0 * (Y @ U_t) + 2.0 * (U_t @ (U_t.T @ U_t))


def dense_ridge_system(factor, t, seq, Y, config):
    """Brute-force dense (A, B) of the exact ridge update of U(t) or W(t):
    the minimizer X of the objective over that factor solves X @ A = B."""
    T = seq.num_slices
    same = seq.U if factor == "U" else seq.W
    F = (seq.W if factor == "U" else seq.U)[t]
    neighbors = [s for s in (t - 1, t + 1) if 0 <= s < T]
    A = F.T @ F + (
        config.coupling + config.ridge + len(neighbors) * config.smoothing
    ) * np.eye(F.shape[1])
    B = Y.matrices[t].values.toarray() @ F + config.coupling * F
    for s in neighbors:
        B = B + config.smoothing * same[s]
    return A, B


def validate_stats(stats):
    """Raise ValueError unless `stats` is consistent: a symmetric count
    matrix, no negative unigram count, and every co-occurring word counted
    at least once."""
    if (stats.cooc != stats.cooc.T).nnz != 0:
        raise ValueError("cooc matrix is not symmetric")
    if stats.unigram.min(initial=0) < 0:
        raise ValueError("negative unigram count")
    rows, cols = stats.cooc.nonzero()
    if len(rows) and (
        np.any(stats.unigram[rows] == 0) or np.any(stats.unigram[cols] == 0)
    ):
        raise ValueError("co-occurrence involves a word with zero unigram count")


def loop_count_cooccurrences(docs, vocab, window):
    """Per-document loop oracle for `corpus.count_cooccurrences` (the
    library's original implementation, kept unchanged as the reference)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    V = len(vocab)
    unigram = np.zeros(V, dtype=np.int64)
    rows, cols = [], []
    for doc in docs:
        ids = np.fromiter(
            (vocab.index.get(t, -1) for t in doc), dtype=np.int64, count=len(doc)
        )
        valid = ids >= 0
        if valid.any():
            np.add.at(unigram, ids[valid], 1)
        for off in range(1, min(window, len(ids) - 1) + 1):
            a, b = ids[:-off], ids[off:]
            keep = (a >= 0) & (b >= 0)
            if keep.any():
                rows.append(a[keep])
                cols.append(b[keep])
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        data = np.ones(2 * len(r), dtype=np.int64)
        cooc = sp.coo_matrix(
            (data, (np.concatenate([r, c]), np.concatenate([c, r]))), shape=(V, V)
        ).tocsr()
    else:
        cooc = sp.csr_matrix((V, V), dtype=np.int64)
    cooc.sum_duplicates()
    return SliceStats(
        cooc=cooc,
        unigram=unigram,
        total_tokens=int(unigram.sum()),
        window=window,
    )


def coo_build_ppmi(stats, slice_label=0):
    """COO oracle for `ppmi.build_ppmi` (the library's earlier
    implementation, kept unchanged as the reference)."""
    coo = stats.cooc.tocoo()
    if coo.nnz == 0 or stats.total_tokens == 0:
        return PpmiMatrix(
            values=sp.csr_matrix(stats.cooc.shape, dtype=np.float64),
            slice_label=slice_label,
        )
    uw = stats.unigram[coo.row].astype(np.float64)
    uc = stats.unigram[coo.col].astype(np.float64)
    vals = np.log(
        coo.data.astype(np.float64) * float(stats.total_tokens) / (uw * uc)
    )
    keep = vals > 0
    mat = sp.coo_matrix(
        (vals[keep], (coo.row[keep], coo.col[keep])), shape=stats.cooc.shape
    ).tocsr()
    return PpmiMatrix(values=mat, slice_label=slice_label)


def coo_subsample_counts(stats, rate, rng_seed):
    """COO oracle for `corpus.subsample_counts` (the library's earlier
    implementation, kept unchanged as the reference)."""
    if not 0 < rate <= 1:
        raise ValueError(f"subsampling rate must be in (0, 1], got {rate}")
    rng = np.random.default_rng(rng_seed)
    upper = sp.triu(stats.cooc, k=0).tocoo()
    new_data = rng.binomial(upper.data, rate)
    keep = new_data > 0
    r, c, d = upper.row[keep], upper.col[keep], new_data[keep]
    off = r != c
    V = stats.cooc.shape[0]
    cooc = sp.coo_matrix(
        (
            np.concatenate([d, d[off]]),
            (np.concatenate([r, c[off]]), np.concatenate([c, r[off]])),
        ),
        shape=(V, V),
        dtype=np.int64,
    ).tocsr()
    old_mass = np.asarray(stats.cooc.sum(axis=1)).ravel()
    new_mass = np.asarray(cooc.sum(axis=1)).ravel()
    unigram = stats.unigram.copy()
    scaled = old_mass > 0
    ratio = np.divide(new_mass, old_mass, out=np.zeros_like(new_mass, dtype=float),
                      where=scaled)
    unigram[scaled] = np.rint(stats.unigram[scaled] * ratio[scaled]).astype(np.int64)
    floor = scaled & (stats.unigram > 0) & (new_mass > 0)
    unigram[floor] = np.maximum(unigram[floor], 1)
    return SliceStats(
        cooc=cooc,
        unigram=unigram,
        total_tokens=int(unigram.sum()),
        window=stats.window,
    )


def loop_pool_stats(stats_list):
    """Copy-and-add loop oracle for `corpus.pool_stats` (the library's
    earlier implementation, kept unchanged as the reference)."""
    if not stats_list:
        raise ValueError("nothing to pool")
    cooc = stats_list[0].cooc.copy()
    unigram = stats_list[0].unigram.copy()
    total = stats_list[0].total_tokens
    for s in stats_list[1:]:
        cooc = cooc + s.cooc
        unigram = unigram + s.unigram
        total += s.total_tokens
    return SliceStats(cooc=cooc.tocsr(), unigram=unigram, total_tokens=total,
                      window=stats_list[0].window)


def loop_nearest_neighbors(query, matrix, K, exclude=frozenset()):
    """Full-sort oracle for `evaluation.nearest_neighbors` (the library's
    original implementation, kept unchanged as the reference).

    Zero rows and excluded word indices are skipped; ties break by
    ascending word index. Returns a list of (word_index, similarity).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    qn = np.linalg.norm(query)
    if qn == 0:
        raise ValueError("query vector is zero")
    norms = np.linalg.norm(matrix, axis=1)
    valid = norms > 0
    for w in exclude:
        valid[w] = False
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return []
    sims = (matrix[idx] @ query) / (norms[idx] * qn)
    order = np.lexsort((idx, -sims))[:K]
    return [(int(idx[i]), float(sims[i])) for i in order]


def loop_run_alignment_test(testset, matrices, labels, K_max=TOP_RANK_CUTOFF):
    """Per-record `loop_nearest_neighbors` loop oracle for
    `evaluation.run_alignment_test` (the library's original implementation,
    kept unchanged as the reference)."""
    by_label = {lab: m for lab, m in zip(labels, matrices)}
    ranks = []
    skipped = 0
    for query_word, query_label, target_label, answer_word in testset.records:
        src = by_label[query_label]
        tgt = by_label[target_label]
        q = src[query_word]
        if np.linalg.norm(q) == 0:
            skipped += 1
            continue
        exclude = {query_word} if query_label == target_label else set()
        top = loop_nearest_neighbors(q, tgt, K_max, exclude=exclude)
        rank = None
        for pos, (w, _) in enumerate(top, start=1):
            if w == answer_word:
                rank = pos
                break
        ranks.append(rank)
    if skipped:
        warnings.warn(f"skipped {skipped} records with zero query vectors")
    return ranks, skipped


def loop_local_linear_map(query_word, source_t, target_t, k=30):
    """Per-call oracle for `baselines.local_linear_maps` (the library's
    original `local_linear_map`, kept unchanged as the reference).

    Finds the k nearest neighbors of the query word in the source slice by
    cosine (query excluded), fits the least-squares d x d map from their
    source rows to their target rows, and applies it to the query vector.
    Neighbors must be nonzero in both slices.
    """
    q = source_t[query_word]
    qn = np.linalg.norm(q)
    if qn == 0:
        raise ValueError("query word has a zero vector in the source slice")
    src_norms = np.linalg.norm(source_t, axis=1)
    tgt_norms = np.linalg.norm(target_t, axis=1)
    valid = (src_norms > 0) & (tgt_norms > 0)
    valid[query_word] = False
    candidates = np.flatnonzero(valid)
    if len(candidates) < k:
        raise ValueError(
            f"only {len(candidates)} words are nonzero in both slices, need {k}"
        )
    sims = (source_t[candidates] @ q) / (src_norms[candidates] * qn)
    order = np.lexsort((candidates, -sims))
    nbrs = candidates[order[:k]]
    S = source_t[nbrs]
    Tm = target_t[nbrs]
    d = source_t.shape[1]
    if np.linalg.matrix_rank(S) < d:
        # Ridge fallback keeps the system well-posed on degenerate
        # neighborhoods.
        M = scipy.linalg.solve(S.T @ S + 1e-8 * np.eye(d), S.T @ Tm)
    else:
        M = scipy.linalg.lstsq(S, Tm)[0]
    return q @ M

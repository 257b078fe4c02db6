"""Evaluation: clustering quality (NMI, pairwise F-beta), cross-time
alignment quality (MRR, MP@K), and per-word norm series."""

import csv
import io
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from tvembed.artifact import ArtifactError, read_text

TOP_RANK_CUTOFF = 10  # reciprocal rank counts as 0 beyond this position
PRECISIONS = (1, 3, 5, 10)  # the K of the MP@K columns
CLUSTER_SIZES = (10, 15, 20)  # the K of the k-means NMI and F-beta columns
TRIPLET_MIN_STRENGTH = 0.35  # labeled triplets below this are dropped
TRIPLET_TOP_PER_SECTION = 200  # the strongest triplets kept per section
KMEANS_MAX_ITERS = 100  # Lloyd iterations per restart, at most
KMEANS_RESTARTS = 10
# Queries scored by one matrix product: a block is _BLOCK x V float64, 2.6 MB
# at V=5001.
_BLOCK = 64


def _near_tie_margin(d):
    """A cosine gap past which a block product and a per-query product over
    d columns are sure to order two candidates alike.

    Both divide their dot product by the same product of norms. A d-term
    dot product, summed in any order, is within d*eps*|row|*|q| of the exact
    one, so each path's cosine is within (d + 2)*eps of the exact value and
    the two paths' differences of two cosines within 4*(d + 2)*eps of each
    other; the margin is four times that.
    """
    return 16 * (d + 2) * np.finfo(np.float64).eps


class EmptyEvaluation(ValueError):
    """An evaluation with no record or item left to score."""


@dataclass
class LabeledItem:
    """A (word, slice) vector with its ground-truth category."""

    word: int
    slice_label: int
    section: str


@dataclass
class AlignmentTestset:
    """Query/answer records for cross-time equivalence scoring."""

    records: list  # (query_word, query_label, target_label, answer_word)


class CosineRows:
    """The candidate rows of one matrix for cosine ranking, prepared once.

    The candidates are the nonzero rows of `matrix` (only those marked in the
    boolean mask `keep`, if given), with their norms and their word indices.
    `norms` are the row norms of the full matrix, `np.linalg.norm(matrix,
    axis=1)`, such as a .tvem file stores; they are computed when not given.
    Each query is scored against all candidates but one optional `drop`
    word, and candidates are ordered by (-similarity, word index).

    When every row is a candidate, the product runs over `matrix` itself;
    otherwise over a copy of the candidate rows. `scores` and `top` serve one
    query: the dropped word's row is left out of the product itself, not of
    its result, because BLAS may round a row's dot product differently at
    another position in the matrix. `tops` serves many: it scores a block of
    queries with one matrix product over the candidate rows and sends back
    to `top` only a query whose order that product may round differently.
    """

    def __init__(self, matrix, keep=None, norms=None):
        if norms is None:
            norms = np.linalg.norm(matrix, axis=1)
        valid = norms > 0 if keep is None else (norms > 0) & keep
        if valid.all():
            words = self.position = np.arange(len(matrix))
            self._full = (matrix, norms, words)
        else:
            words = np.flatnonzero(valid)
            self.position = np.full(len(matrix), -1, dtype=np.int64)
            self.position[words] = np.arange(len(words))
            self._full = (matrix[words], norms[words], words)

    def _gap(self, drop):
        return -1 if drop is None else self.position[drop]

    def scores(self, q, drop=None):
        """(similarities, word indices) of every candidate but `drop`."""
        qn = np.linalg.norm(q)
        if qn == 0:
            raise ValueError("query vector is zero")
        rows, norms, words = self._full
        at = self._gap(drop)
        if at >= 0:
            rows, norms, words = [np.delete(a, at, axis=0) for a in self._full]
        return (rows @ q) / (norms * qn), words

    def top(self, q, k, drop=None):
        """The first k candidates but `drop` in (-similarity, word index)
        order, as (word indices, similarities); fewer if fewer remain."""
        if k < 1:
            raise ValueError("K must be >= 1")
        sims, words = self.scores(q, drop)
        neg = -sims
        near = np.arange(len(neg))
        if k < len(neg):
            # At least k entries lie at or below the k-th smallest, so the
            # first k of the full order are among them; a NaN keeps them all.
            near = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
        best = near[np.lexsort((words[near], neg[near]))[:k]]
        return words[best], sims[best]

    def tops(self, queries, k):
        """The word indices of `top(q, k, drop)` for each (q, |q|, drop, ...)
        in `queries`, where |q| is `np.linalg.norm(q)` and is not 0: one
        row per query, padded with -1 past the candidates that remain.

        A block of queries is searched from one matrix product: its first
        k + 1 candidates in order, and the first k of them are a query's
        top when every two neighbouring cosines among them differ by more
        than `_near_tie_margin`. A query with a closer pair, and every query
        when fewer than k + 1 candidates but the dropped one remain, is
        searched again by `top`.
        """
        rows, norms, words = self._full
        tops = np.full((len(queries), k), -1, dtype=np.int64)
        near = range(len(queries))
        if len(words) >= k + 2:
            margin = _near_tie_margin(rows.shape[1])
            near = []
            for start in range(0, len(queries), _BLOCK):
                block = queries[start:start + _BLOCK]
                Q = np.stack([m[0] for m in block])
                # Negated dot products (negation is exact). rows.T is
                # F-ordered, so BLAS reads the candidate rows in place.
                # numpy and scipy each load their own OpenBLAS; scipy's is
                # the one the local maps' solves use, so no second thread
                # pool wakes between a block and the solves that follow it.
                neg = dgemm(-1.0, rows.T, Q.T, trans_a=True).T
                np.divide(neg, np.multiply.outer([m[1] for m in block], norms),
                          out=neg)
                gaps = np.array([self._gap(m[2]) for m in block])
                hit = np.flatnonzero(gaps >= 0)
                neg[hit, gaps[hit]] = np.inf
                first = np.argpartition(neg, k, axis=1)[:, :k + 1]
                vals = np.take_along_axis(neg, first, axis=1)
                # With no gap at or below the margin the order is strict,
                # so sorting by value alone is the (-sim, word) order.
                order = np.argsort(vals, axis=1)
                first = np.take_along_axis(first, order, axis=1)
                vals = np.take_along_axis(vals, order, axis=1)
                tops[start:start + len(block)] = words[first[:, :k]]
                clear = (np.diff(vals, axis=1) > margin).all(axis=1)
                near.extend(start + np.flatnonzero(~clear))
        for i in near:
            q, _, drop = queries[i][:3]
            best = self.top(q, k, drop)[0]
            tops[i, :len(best)] = best
        return tops


def nearest_neighbors(query, matrix, K, drop=None, norms=None):
    """Top-K rows of `matrix` by cosine similarity with `query`.

    Zero rows and the word index `drop` are skipped; ties break by
    ascending word index. `norms`, if given, are the matrix's row norms
    (see CosineRows). Returns a list of (word_index, similarity).
    """
    words, sims = CosineRows(matrix, norms=norms).top(query, K, drop)
    return list(zip(words.tolist(), sims.tolist()))


def _kmeans_once(X, K, rng):
    n = X.shape[0]
    # k-means++ style seeding with cosine distance 1 - cos.
    centroids = np.empty((K, X.shape[1]))
    first = rng.integers(n)
    centroids[0] = X[first]
    dist = 1.0 - X @ centroids[0]
    for k in range(1, K):
        weights = np.maximum(dist, 0)
        total = weights.sum()
        if total <= 0:
            pick = rng.integers(n)
        else:
            pick = rng.choice(n, p=weights / total)
        centroids[k] = X[pick]
        dist = np.minimum(dist, 1.0 - X @ centroids[k])
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        sims = X @ centroids.T
        new_assign = np.argmax(sims, axis=1)
        for k in range(K):
            if not np.any(new_assign == k):
                # Repair empty cluster with the point farthest from its
                # centroid.
                cur = sims[np.arange(n), new_assign]
                steal = int(np.argmin(cur))
                new_assign[steal] = k
                sims[steal, :] = -np.inf  # cannot be stolen twice
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(K):
            c = X[assign == k].sum(axis=0)
            norm = np.linalg.norm(c)
            centroids[k] = c / norm if norm > 0 else centroids[k]
    obj = float(np.mean((X @ centroids.T)[np.arange(n), assign]))
    return assign, obj


def spherical_kmeans(vectors, K, seed=0):
    """Cluster unit-normalized vectors by cosine similarity.

    Runs KMEANS_RESTARTS independent k-means++ seeded Lloyd iterations and
    keeps the assignment with the best mean cosine to centroid: an array of
    the cluster id of each item. Deterministic given the seed.
    """
    X = np.asarray(vectors, dtype=np.float64)
    n = X.shape[0]
    if K > n:
        raise ValueError(f"K={K} exceeds number of items {n}")
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        raise ValueError("cannot cluster zero vectors")
    X = X / norms[:, None]
    rng = np.random.default_rng(seed)
    best_assign, best_obj = None, -np.inf
    for _ in range(KMEANS_RESTARTS):
        assign, obj = _kmeans_once(X, K, rng)
        if obj > best_obj:
            best_assign, best_obj = assign, obj
    return best_assign


def _entropy(counts, n):
    p = np.asarray(counts, dtype=np.float64) / n
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def nmi(labels, assign):
    """Mutual information normalized by the mean of the two entropies of
    `labels` and of `assign`, the cluster id array of `spherical_kmeans`.

    Natural log throughout (the ratio is base-invariant). Returns 1 with a
    warning in the degenerate single-label, single-cluster case.
    """
    labels = list(labels)
    n = len(labels)
    if n != len(assign):
        raise ValueError("labels and clustering have different lengths")
    joint = Counter(zip(labels, assign.tolist()))
    lab_counts = Counter(labels)
    clu_counts = Counter(assign.tolist())
    h_l = _entropy(list(lab_counts.values()), n)
    h_c = _entropy(list(clu_counts.values()), n)
    if h_l + h_c == 0:
        warnings.warn("single label and single cluster; NMI defined as 1")
        return 1.0
    mi = 0.0
    for (lab, clu), c in joint.items():
        p = c / n
        mi += p * np.log(p * n * n / (lab_counts[lab] * clu_counts[clu]))
    return float(mi / ((h_l + h_c) / 2.0))


def f_beta(labels, assign, beta=5.0):
    """Pairwise-decision F measure of the cluster id array `assign` against
    `labels`: (beta^2+1)PR / (beta^2 P + R).

    Over all unordered item pairs: TP = same cluster and same label,
    FP = same cluster, different label, FN = different cluster, same
    label. beta defaults to 5 (recall-weighted). The pair counts come from
    the contingency table in exact integers: TP = sum C(n_ij, 2) over
    (label, cluster) cells, FP = sum C(a_j, 2) over cluster sizes - TP,
    FN = sum C(b_i, 2) over label sizes - TP.
    """
    labels = list(labels)
    n = len(labels)
    if n != len(assign):
        raise ValueError("labels and clustering have different lengths")
    if n < 2:
        raise ValueError("need at least 2 items")

    def pairs(counter):
        return sum(c * (c - 1) // 2 for c in counter.values())

    assign = assign.tolist()
    tp = pairs(Counter(zip(labels, assign)))
    fp = pairs(Counter(assign)) - tp
    fn = pairs(Counter(labels)) - tp
    if tp + fp == 0 or tp + fn == 0:
        warnings.warn("undefined precision or recall; returning 0")
        return 0.0
    P = tp / (tp + fp)
    R = tp / (tp + fn)
    if P == 0 and R == 0:
        return 0.0
    b2 = beta * beta
    return float((b2 + 1) * P * R / (b2 * P + R))


def run_alignment_test(testset, slices, K_max=TOP_RANK_CUTOFF, queries=None,
                       norms=None):
    """Rank each record's answer word in the target slice by cosine.

    `slices` maps each slice label to its embedding matrix. For every
    (query_word, query_label, target_label, answer_word) record the query
    word's vector at its slice is compared against all nonzero words of the
    target slice. `queries`, if given, holds one vector per record that
    replaces the query word's own (tw2v's mapped queries). The query word
    itself is excluded only when querying its own slice (otherwise
    same-slice queries are degenerate). The answer's rank is its
    position among the first K_max of `nearest_neighbors`' order; an answer
    not among them, an excluded answer and a zero answer vector are
    recorded as None ("not found").
    Records whose query vector is zero, and records whose query has no
    local map (`queries[i]` is None while the word's own vector is
    nonzero), are skipped with one warning that counts each cause.

    Records are ranked one target slice at a time against its CosineRows,
    given that slice's row norms when `norms` maps its label to them, a
    block of records per matrix product (see `CosineRows.tops`).
    Returns (ranks, skipped_count).
    """
    if K_max < 1:
        raise ValueError("K must be >= 1")
    norms = norms or {}
    by_target = {}
    zero = unmapped = 0
    for i, record in enumerate(testset.records):
        word, query_label, target_label, answer = record
        q = slices[query_label][word]
        qn = np.linalg.norm(q)
        if queries is not None and qn > 0:
            q = queries[i]
            if q is None:
                unmapped += 1
                continue
            qn = np.linalg.norm(q)
        if qn == 0:
            zero += 1
            continue
        drop = word if query_label == target_label else None
        by_target.setdefault(target_label, {})[i] = (q, qn, drop, answer)
    ranks = {}
    for target_label, group in by_target.items():
        rows = CosineRows(slices[target_label],
                          norms=norms.get(target_label))
        group_queries = list(group.values())
        answers = np.array([m[3] for m in group_queries])
        found = rows.tops(group_queries, K_max) == answers[:, None]
        for i, hit, at in zip(group, found.any(axis=1).tolist(),
                              found.argmax(axis=1).tolist()):
            ranks[i] = at + 1 if hit else None
    skipped = zero + unmapped
    if skipped:
        causes = [f"{zero} with a zero query vector"] if zero else []
        if unmapped:
            causes.append(f"{unmapped} with no local map (fewer than k "
                          "neighbours nonzero in both slices)")
        warnings.warn(f"skipped {skipped} records: {', '.join(causes)}")
    return [ranks[i] for i in sorted(ranks)], skipped


def mrr(ranks):
    """Mean reciprocal rank; ranks beyond the top-10 cutoff (or None) count 0."""
    if not ranks:
        raise ValueError("no ranks to average")
    total = 0.0
    for r in ranks:
        if r is not None and r <= TOP_RANK_CUTOFF:
            total += 1.0 / r
    return total / len(ranks)


def mp_at_k(ranks, K):
    """Fraction of records whose answer ranked within the top K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not ranks:
        raise ValueError("no ranks to average")
    hits = sum(1 for r in ranks if r is not None and r <= K)
    return hits / len(ranks)


def norm_series(word, slices):
    """Euclidean norm of one word's vector in each slice of `slices` (slice
    label -> matrix), as (label, norm) in the mapping's order."""
    return [(lab, float(np.linalg.norm(m[word]))) for lab, m in slices.items()]


# ---------------------------------------------------------------------------
# File loaders.


def _csv_rows(path, columns):
    """(line number, row dict) for each data row of a UTF-8 CSV file with a
    header; every name in `columns` must be in the header and in the row."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        # No header at all is an empty file, which has no rows to check.
        header = columns if reader.fieldnames is None else reader.fieldnames
        missing = [c for c in columns if c not in header]
        if missing:
            raise ArtifactError(f"{path}:1",
                                f"no {missing[0]!r} column in the header")
        for row in reader:
            for column in columns:
                if row[column] is None:
                    raise ArtifactError(f"{path}:{reader.line_num}",
                                        f"missing column {column!r}")
            yield reader.line_num, row
    except csv.Error as e:  # a field past the size limit; before 3.11, a NUL
        raise ArtifactError(f"{path}:{reader.line_num}", str(e)) from None


def _csv_value(path, line, row, column, parse, kind):
    try:
        return parse(row[column])
    except ValueError:
        raise ArtifactError(
            f"{path}:{line}", f"{column} {row[column]!r} is not {kind}"
        ) from None


def load_testset(path, vocab):
    """Load an alignment testset CSV: query_word,query_label,target_label,answer_word.

    Records whose query or answer word is out of vocabulary are dropped
    with one warning that counts them. A file that is not UTF-8, a missing
    column or a non-integer label raises ArtifactError.
    """
    records = []
    dropped = 0
    columns = ("query_word", "query_label", "target_label", "answer_word")
    for line, row in _csv_rows(path, columns):
        query_label, target_label = [
            _csv_value(path, line, row, column, int, "an integer")
            for column in ("query_label", "target_label")
        ]
        qw, aw = row["query_word"], row["answer_word"]
        if qw not in vocab or aw not in vocab:
            dropped += 1
            continue
        records.append(
            (vocab.index[qw], query_label, target_label, vocab.index[aw])
        )
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} out-of-vocabulary records")
    return AlignmentTestset(records=records)


def load_labeled_triplets(path, vocab):
    """Load word,label,section,strength rows into LabeledItems.

    Applies the ground-truth filters: for each (word, section) only the
    year of largest strength is kept, rows below TRIPLET_MIN_STRENGTH are
    dropped, and each section keeps its TRIPLET_TOP_PER_SECTION strongest
    rows. A file that is not UTF-8, a missing column, a non-integer label or
    a non-float strength raises ArtifactError.
    """
    rows = []
    dropped = 0
    for line, row in _csv_rows(path, ("word", "label", "section", "strength")):
        label = _csv_value(path, line, row, "label", int, "an integer")
        strength = _csv_value(path, line, row, "strength", float, "a number")
        if row["word"] not in vocab:
            dropped += 1
            continue
        rows.append((vocab.index[row["word"]], label, row["section"], strength))
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} out-of-vocabulary rows")
    best = {}
    for word, label, section, strength in rows:
        key = (word, section)
        if key not in best or strength > best[key][3]:
            best[key] = (word, label, section, strength)
    per_section = {}
    for word, label, section, strength in best.values():
        if strength < TRIPLET_MIN_STRENGTH:
            continue
        per_section.setdefault(section, []).append((word, label, section, strength))
    items = []
    for section, group in sorted(per_section.items()):
        group.sort(key=lambda r: (-r[3], r[0], r[1]))
        for word, label, sec, _ in group[:TRIPLET_TOP_PER_SECTION]:
            items.append(LabeledItem(word=word, slice_label=label, section=sec))
    return items


def clustering_report(items, slices, seed=0):
    """NMI and F-beta of spherical k-means with each of CLUSTER_SIZES clusters
    over the labeled (word, slice) vectors of `slices` (slice label ->
    matrix).

    Items whose vector is zero have no direction to cluster by; they are
    skipped with one warning that counts them, and EmptyEvaluation is raised
    when no item is left. A K above the number of items left is skipped with
    a warning, and EmptyEvaluation is raised when every K is.
    """
    vectors = [slices[it.slice_label][it.word] for it in items]
    kept = [i for i, v in enumerate(vectors) if np.linalg.norm(v) > 0]
    if len(kept) < len(items):
        warnings.warn(f"skipped {len(items) - len(kept)} labeled items with "
                      "a zero vector")
    if not kept:
        raise EmptyEvaluation("no labeled item has a nonzero vector")
    items = [items[i] for i in kept]
    vectors = np.stack([vectors[i] for i in kept])
    sections = [it.section for it in items]
    report = {"nmi": {}, "f_beta": {}}
    for K in CLUSTER_SIZES:
        if K > len(items):
            warnings.warn(
                f"skipping K={K}: exceeds number of labeled items {len(items)}"
            )
            continue
        assign = spherical_kmeans(vectors, K, seed=seed)
        report["nmi"][str(K)] = nmi(sections, assign)
        report["f_beta"][str(K)] = f_beta(sections, assign)
    if not report["nmi"]:
        raise EmptyEvaluation(
            f"no cluster size in {', '.join(map(str, CLUSTER_SIZES))} fits "
            f"{len(items)} labeled items")
    return report


def alignment_report(testset, slices, queries=None, norms=None):
    """MRR and MP@K (K in PRECISIONS) for one testset against one embedding
    sequence, `slices` (slice label -> matrix); `queries` and `norms` are
    passed to `run_alignment_test`. Raises EmptyEvaluation when no record
    can be ranked."""
    ranks, skipped = run_alignment_test(testset, slices, queries=queries,
                                        norms=norms)
    if not ranks:
        raise EmptyEvaluation(
            "no testset record could be ranked: every query vector is zero "
            "or unmapped"
        )
    return {
        "mrr": mrr(ranks),
        "mp": {str(K): mp_at_k(ranks, K) for K in PRECISIONS},
        "n": len(ranks),
        "skipped": skipped,
    }

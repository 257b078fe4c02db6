"""Evaluation: clustering quality (NMI, pairwise F-beta), cross-time
alignment quality (MRR, MP@K), and per-word norm series."""

import csv
import io
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from tvembed.artifact import ArtifactError, read_text

TOP_RANK_CUTOFF = 10  # reciprocal rank counts as 0 beyond this position
PRECISIONS = (1, 3, 5, 10)  # the K of the MP@K columns
CLUSTER_SIZES = (10, 15, 20)  # the K of the k-means NMI and F-beta columns
KMEANS_MAX_ITERS = 100  # Lloyd iterations per restart, at most
KMEANS_RESTARTS = 10


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


@dataclass
class Clustering:
    """Item index -> cluster id assignment."""

    assignment: np.ndarray
    num_clusters: int


class CosineRows:
    """The candidate rows of one matrix for cosine ranking, prepared once.

    The candidates are the nonzero rows of `matrix` (only those marked in the
    boolean mask `keep`, if given), with their norms computed over the full
    matrix and their word indices. Each query is scored against all of them
    but one optional `drop` word, and candidates are ordered by (-similarity,
    word index).

    The dropped word's row is left out of the product itself, not of its
    result, because BLAS may round a row's dot product differently at another
    position in the matrix. The rows without it live in one buffer, and
    moving to another dropped word copies only the rows in between; callers
    visit queries by ascending `position` of their dropped word, so all
    moves together copy each row at most once.
    """

    def __init__(self, matrix, keep=None):
        norms = np.linalg.norm(matrix, axis=1)
        valid = norms > 0 if keep is None else (norms > 0) & keep
        words = np.flatnonzero(valid)
        self.position = np.full(len(matrix), -1, dtype=np.int64)
        self.position[words] = np.arange(len(words))
        self._full = (matrix[words], norms[words], words)
        self._rest, self._dropped = None, -1

    def _gap(self, drop):
        return -1 if drop is None else self.position[drop]

    def scores(self, q, drop=None):
        """(similarities, word indices) of every candidate but `drop`; the
        arrays are valid until the next call."""
        qn = np.linalg.norm(q)
        if qn == 0:
            raise ValueError("query vector is zero")
        at = self._gap(drop)
        if at < 0:
            rows, norms, words = self._full
        else:
            if self._rest is None:
                self._rest = [np.delete(a, at, axis=0) for a in self._full]
                self._dropped = at
            # Rows between the old and the new gap shift by one place.
            lo, hi = sorted((self._dropped, at))
            up = int(at < self._dropped)
            for part, whole in zip(self._rest, self._full):
                part[lo:hi] = whole[lo + up:hi + up]
            self._dropped = at
            rows, norms, words = self._rest
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

    def rank(self, q, answer, drop=None):
        """1-based position of `answer` in `top`'s order, or None when it is
        not a candidate or is `drop`."""
        at = self.position[answer]
        if at < 0 or answer == drop:
            return None
        sims, words = self.scores(q, drop)
        at -= 0 <= self._gap(drop) < at
        s = sims[at]
        return int(1 + np.count_nonzero(sims > s)
                   + np.count_nonzero((sims == s) & (words < answer)))


def nearest_neighbors(query, matrix, K, exclude=frozenset()):
    """Top-K rows of `matrix` by cosine similarity with `query`.

    Zero rows and excluded word indices are skipped; ties break by
    ascending word index. Returns a list of (word_index, similarity).
    """
    keep = np.ones(len(matrix), dtype=bool)
    keep[list(exclude)] = False
    words, sims = CosineRows(matrix, keep).top(query, K)
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
    keeps the assignment with the best mean cosine to centroid.
    Deterministic given the seed.
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
    return Clustering(assignment=best_assign, num_clusters=K)


def _entropy(counts, n):
    p = np.asarray(counts, dtype=np.float64) / n
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def nmi(labels, clusters):
    """Mutual information normalized by the mean of the two entropies.

    Natural log throughout (the ratio is base-invariant). Returns 1 with a
    warning in the degenerate single-label, single-cluster case.
    """
    labels = list(labels)
    assign = clusters.assignment
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


def f_beta(labels, clusters, beta=5.0):
    """Pairwise-decision F measure: (beta^2+1)PR / (beta^2 P + R).

    Over all unordered item pairs: TP = same cluster and same label,
    FP = same cluster, different label, FN = different cluster, same
    label. beta defaults to 5 (recall-weighted). The pair counts come from
    the contingency table in exact integers: TP = sum C(n_ij, 2) over
    (label, cluster) cells, FP = sum C(a_j, 2) over cluster sizes - TP,
    FN = sum C(b_i, 2) over label sizes - TP.
    """
    labels = list(labels)
    assign = clusters.assignment
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


def run_alignment_test(testset, matrices, labels, K_max=TOP_RANK_CUTOFF,
                       queries=None):
    """Rank each record's answer word in the target slice by cosine.

    For every (query_word, query_label, target_label, answer_word) record
    the query word's vector at its slice is compared against all nonzero
    words of the target slice. `queries`, if given, holds one vector per
    record that replaces the query word's own (tw2v's mapped queries). The
    query word itself is excluded only when querying its own slice
    (otherwise same-slice queries are degenerate). The answer's rank is its
    position in `nearest_neighbors`' order. A rank beyond K_max, an excluded
    answer and a zero answer vector are recorded as None ("not found").
    Records whose query vector is zero, and records whose query has no
    local map (`queries[i]` is None while the word's own vector is
    nonzero), are skipped with one warning that counts each cause.

    Records are ranked one target slice at a time against its CosineRows.
    Returns (ranks, skipped_count).
    """
    if K_max < 1:
        raise ValueError("K must be >= 1")
    by_label = {lab: m for lab, m in zip(labels, matrices)}
    by_target = {}
    zero = unmapped = 0
    for i, (word, query_label, target_label, _) in enumerate(testset.records):
        q = by_label[query_label][word]
        if queries is not None and np.linalg.norm(q) > 0:
            q = queries[i]
        if q is None:
            unmapped += 1
            continue
        if np.linalg.norm(q) == 0:
            zero += 1
            continue
        drop = word if query_label == target_label else None
        by_target.setdefault(target_label, []).append((i, q, drop))
    ranks = {}
    for target_label, group in by_target.items():
        rows = CosineRows(by_label[target_label])
        group.sort(key=lambda m: -1 if m[2] is None else rows.position[m[2]])
        for i, q, drop in group:
            rank = rows.rank(q, testset.records[i][3], drop)
            ranks[i] = rank if rank is not None and rank <= K_max else None
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


def norm_series(word, matrices, labels):
    """Euclidean norm of one word's vector per slice, in label order."""
    return [(lab, float(np.linalg.norm(m[word]))) for lab, m in zip(labels, matrices)]


# ---------------------------------------------------------------------------
# File loaders.


def _csv_rows(path, columns):
    """(line number, row dict) for each data row of a UTF-8 CSV file with a
    header; every name in `columns` must be in the header and in the row."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    header = reader.fieldnames or columns
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


def _csv_value(path, line, row, column, parse, kind):
    try:
        return parse(row[column])
    except ValueError:
        raise ArtifactError(
            f"{path}:{line}", f"{column} {row[column]!r} is not {kind}"
        ) from None


def load_testset(path, vocab):
    """Load an alignment testset CSV: query_word,query_label,target_label,answer_word.

    Records whose query or answer word is out of vocabulary are dropped;
    the drop count is returned alongside the testset. A file that is not
    UTF-8, a missing column or a non-integer label raises ArtifactError.
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
    return AlignmentTestset(records=records), dropped


def load_labeled_triplets(path, vocab, min_strength=0.35, top_per_section=200):
    """Load word,label,section,strength rows into LabeledItems.

    Applies the ground-truth filters: for each (word, section) only the
    year of largest strength is kept, rows below the strength threshold
    are dropped, and each section keeps its top rows by strength. A file
    that is not UTF-8, a missing column, a non-integer label or a non-float
    strength raises ArtifactError.
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
        if strength < min_strength:
            continue
        per_section.setdefault(section, []).append((word, label, section, strength))
    items = []
    for section, group in sorted(per_section.items()):
        group.sort(key=lambda r: (-r[3], r[0], r[1]))
        for word, label, sec, _ in group[:top_per_section]:
            items.append(LabeledItem(word=word, slice_label=label, section=sec))
    return items


def clustering_report(items, matrices, labels, seed=0):
    """NMI and F-beta of spherical k-means with each of CLUSTER_SIZES clusters
    over the labeled (word, slice) vectors."""
    by_label = {lab: m for lab, m in zip(labels, matrices)}
    vectors = np.stack([by_label[it.slice_label][it.word] for it in items])
    sections = [it.section for it in items]
    report = {"nmi": {}, "f_beta": {}}
    for K in CLUSTER_SIZES:
        if K > len(items):
            warnings.warn(
                f"skipping K={K}: exceeds number of labeled items {len(items)}"
            )
            continue
        clustering = spherical_kmeans(vectors, K, seed=seed)
        report["nmi"][str(K)] = nmi(sections, clustering)
        report["f_beta"][str(K)] = f_beta(sections, clustering)
    return report


def alignment_report(testset, matrices, labels, queries=None):
    """MRR and MP@K (K in PRECISIONS) for one testset against one embedding
    sequence; `queries` is passed to `run_alignment_test`. Raises
    EmptyEvaluation when no record can be ranked."""
    ranks, skipped = run_alignment_test(testset, matrices, labels,
                                        queries=queries)
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

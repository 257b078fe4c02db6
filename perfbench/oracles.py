"""Brute-force oracles for the outputs of every measured operation.

Each check returns a list of problems (empty when the output is right).
The oracles recompute from the generated inputs, never from the program's
intermediate results: pair counts from the generated documents, PPMI from
the log formula, ranks and top-k lists from a full cosine sort with the
program's self-exclusion and tie rules (ties by ascending word index).

Similarities that differ by less than `EPS` count as tied both ways, so a
last-bit difference between two correct dot products never reads as a
failure; the exact tie rule is exercised by the self-tests.
"""

import json
import math
import re

import numpy as np
import scipy.linalg

EPS = 1e-12
TOP_RANK_CUTOFF = 10
LOCAL_MAP_K = 30
_EPOCH_RE = re.compile(r"^epoch (\d+): objective (\S+)$")
_QUERY_RE = re.compile(r"^(\S+)@(-?\d+) -> (-?\d+): (.*)$")


def read_vocab_words(path):
    return path.read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------------------
# Corpus and PPMI.


def brute_pair_counts(docs, word, window):
    """Co-occurrence row of `word` (an id) over (D, L) documents: for every
    position holding the word, every other position at distance 1..window
    in the same document."""
    doc_idx, pos = np.nonzero(docs == word)
    counts = {}
    L = docs.shape[1]
    for off in range(-window, window + 1):
        if off == 0:
            continue
        p = pos + off
        ok = (p >= 0) & (p < L)
        for other in docs[doc_idx[ok], p[ok]].tolist():
            counts[other] = counts.get(other, 0) + 1
    return counts, len(pos)


def check_counts(stats, docs, gid_to_vid, sample, window):
    """Compare sampled rows of one slice's stats with a recount."""
    problems = []
    if stats.total_tokens != docs.size:
        problems.append(f"total_tokens {stats.total_tokens} != {docs.size}")
    for gid in sample:
        expected, n = brute_pair_counts(docs, gid, window)
        vid = int(gid_to_vid[gid])
        if stats.unigram[vid] != n:
            problems.append(f"unigram of id {gid}: {stats.unigram[vid]} != {n}")
        row = stats.cooc.getrow(vid)
        got = {int(c): int(v) for c, v in zip(row.indices, row.data) if v}
        want = {int(gid_to_vid[g]): c for g, c in expected.items()}
        if got != want:
            problems.append(f"cooc row of id {gid} differs from a recount")
    return problems


def check_ppmi(cooc, unigram, total, ppmi, rows):
    """PPMI entries of sampled rows equal max(0, log(c N / (u_w u_c)))."""
    problems = []
    for w in rows:
        crow = cooc.getrow(w)
        want = {}
        for c, n in zip(crow.indices.tolist(), crow.data.tolist()):
            if n > 0:
                v = math.log(n * total / (float(unigram[w]) * float(unigram[c])))
                if v > 0:
                    want[c] = v
        prow = ppmi.getrow(w)
        got = dict(zip(prow.indices.tolist(), prow.data.tolist()))
        if set(got) != set(want):
            problems.append(f"PPMI row {w}: stored columns differ")
            continue
        for c, v in want.items():
            if abs(got[c] - v) > 1e-12 * max(1.0, abs(v)):
                problems.append(f"PPMI[{w},{c}] = {got[c]!r}, formula {v!r}")
                break
    return problems


# ---------------------------------------------------------------------------
# Training.


def objectives(stdout):
    return [float(m.group(2)) for line in stdout.splitlines()
            if (m := _EPOCH_RE.match(line))]


def check_objective(stdout, epochs):
    vals = objectives(stdout)
    if len(vals) != epochs:
        return [f"{len(vals)} objective lines, expected {epochs}"]
    bad = [i for i in range(1, len(vals)) if vals[i] > vals[i - 1]]
    return [f"objective rose at epoch {i + 1}" for i in bad]


def check_embeddings(mats, labels, T, V, d, text_path):
    problems = []
    if len(mats) != T or list(labels) != list(range(T)):
        problems.append(f"{len(mats)} slices, labels {labels}")
    for m in mats:
        if m.shape != (V, d):
            problems.append(f"slice shape {m.shape}, expected {(V, d)}")
        elif not np.all(np.isfinite(m)):
            problems.append("non-finite embedding values")
    with open(text_path, "rb") as fh:
        header = fh.readline().split()
        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(
            lambda: fh.read(1 << 22), b""))
    if header != [str(V).encode(), str(T).encode(), str(d).encode()]:
        problems.append(f"text embedding header {header}")
    if lines != T * V + 1:
        problems.append(f"text embeddings have {lines} lines, expected "
                        f"{T * V + 1}")
    return problems


# ---------------------------------------------------------------------------
# Ranking.


def full_sort(query, matrix, norms, exclude=()):
    """All nonzero rows of `matrix` by descending cosine with `query`, ties
    by ascending index: (indices, similarities)."""
    valid = norms > 0
    for w in exclude:
        valid[w] = False
    idx = np.flatnonzero(valid)
    sims = (matrix[idx] @ query) / (norms[idx] * np.linalg.norm(query))
    # idx ascends, so a stable sort breaks ties by ascending index.
    order = np.argsort(-sims, kind="stable")
    return idx[order], sims[order]


def rank_bounds(idx, sims, answer):
    """Best and worst 1-based rank of `answer` when similarities within EPS
    of its own may order either way; (None, None) if it is not ranked."""
    hit = np.flatnonzero(idx == answer)
    if len(hit) == 0:
        return None, None
    s = sims[hit[0]]
    above = int(np.sum(sims > s + EPS))
    near = int(np.sum(np.abs(sims - s) <= EPS))
    return above + 1, above + near


def local_map(q_word, src, tgt, src_norms, tgt_norms, k=LOCAL_MAP_K):
    """The local linear transform of a query: least-squares map from its k
    nearest source neighbours to their target rows (ridge 1e-8 when the
    neighbour matrix has rank below d), applied to the query."""
    q = src[q_word]
    if np.linalg.norm(q) == 0:
        return None
    valid = (src_norms > 0) & (tgt_norms > 0)
    valid[q_word] = False
    if np.count_nonzero(valid) < k:
        return None
    nbrs, _ = full_sort(q, src, np.where(valid, src_norms, 0.0))
    S, Tm = src[nbrs[:k]], tgt[nbrs[:k]]
    d = src.shape[1]
    if np.linalg.matrix_rank(S) < d:
        M = scipy.linalg.solve(S.T @ S + 1e-8 * np.eye(d), S.T @ Tm)
    else:
        M = scipy.linalg.lstsq(S, Tm)[0]
    return q @ M


def alignment_bounds(records, mats, labels, local=False):
    """Per ranked record, the best and worst rank of its answer."""
    by_label = dict(zip(labels, mats))
    norms = {lab: np.linalg.norm(m, axis=1) for lab, m in by_label.items()}
    bounds = []
    for q, a, b, ans in records:
        src, tgt = by_label[a], by_label[b]
        if local:
            qv = local_map(q, src, tgt, norms[a], norms[b])
        else:
            qv = src[q] if norms[a][q] > 0 else None
        if qv is None or np.linalg.norm(qv) == 0:
            continue
        idx, sims = full_sort(qv, tgt, norms[b], exclude=(q,) if a == b else ())
        bounds.append(rank_bounds(idx, sims, ans))
    return bounds


def _rr(rank):
    return 1.0 / rank if rank is not None and rank <= TOP_RANK_CUTOFF else 0.0


def _within(rank, K):
    return rank is not None and rank <= K


def check_alignment(report, bounds):
    """Printed MRR and MP@K lie within what the rank bounds allow."""
    if not bounds:
        return ["no record could be ranked"]
    n = len(bounds)
    problems = []
    best = sum(_rr(lo) for lo, _ in bounds) / n
    worst = sum(_rr(hi) for _, hi in bounds) / n
    if not worst - EPS <= report["mrr"] <= best + EPS:
        problems.append(f"MRR {report['mrr']!r} outside brute force "
                        f"[{worst!r}, {best!r}]")
    for K, mp in report["mp"].items():
        lo = sum(_within(hi, int(K)) for _, hi in bounds) / n
        hi = sum(_within(lo_, int(K)) for lo_, _ in bounds) / n
        if not lo - EPS <= mp <= hi + EPS:
            problems.append(f"MP@{K} {mp!r} outside brute force [{lo}, {hi}]")
    return problems


def parse_report(stdout):
    """The JSON report that `evaluate` and `robustness` print first."""
    return json.JSONDecoder().raw_decode(stdout.lstrip())[0]


def check_clustering(report, sizes=("10", "15", "20")):
    problems = []
    for key in ("nmi", "f_beta"):
        vals = report.get(key, {})
        if sorted(vals) != sorted(sizes):
            problems.append(f"{key} has cluster sizes {sorted(vals)}")
        if any(not 0.0 <= v <= 1.0 + EPS for v in vals.values()):
            problems.append(f"{key} outside [0, 1]: {vals}")
    return problems


def check_robustness(rows, rates):
    problems = []
    got = sorted((r["method"], r["rate"]) for r in rows)
    want = sorted((m, r) for m in ("dw2v", "aw2v") for r in rates)
    if got != want:
        problems.append(f"robustness rows {got}, expected {want}")
    for r in rows:
        mps = [r["mp"][k] for k in ("1", "3", "5", "10")]
        if not 0.0 <= r["mrr"] <= 1.0 or mps != sorted(mps):
            problems.append(f"robustness row {r} is inconsistent")
        if not mps[0] - EPS <= r["mrr"] <= mps[-1] + EPS:
            problems.append(f"MRR of {r['method']} outside [MP@1, MP@10]")
    return problems


def check_query(stdout, argv, words, index, mats, labels, norms, k=10):
    """Every printed row equals a full cosine sort of its target slice.

    `index` maps words to rows and `norms[t]` holds the row norms of
    slice t."""
    word, label = argv[1], int(argv[argv.index("--label") + 1])
    by_label = dict(zip(labels, mats))
    targets = labels if "--all-years" in argv else [label]
    lines = stdout.splitlines()
    if len(lines) != len(targets):
        return [f"{len(lines)} result rows, expected {len(targets)}"]
    w = index[word]
    q = by_label[label][w]
    problems = []
    for line, target in zip(lines, targets):
        m = _QUERY_RE.match(line)
        if not m or (m.group(1), int(m.group(2)), int(m.group(3))) != (
                word, label, target):
            problems.append(f"malformed row {line!r}")
            continue
        idx, sims = full_sort(q, by_label[target], norms[target],
                              exclude=(w,) if target == label else ())
        pairs = [p.rsplit(":", 1) for p in m.group(4).split(", ")]
        if len(pairs) != min(k, len(idx)):
            problems.append(f"{len(pairs)} neighbours, expected {k}")
            continue
        sim_of = dict(zip(idx.tolist(), sims.tolist()))
        for pos, (name, printed) in enumerate(pairs):
            v = index.get(name)
            if v not in sim_of or abs(sim_of[v] - sims[pos]) > EPS:
                problems.append(f"{word}@{label}->{target} #{pos + 1} is "
                                f"{name}, full sort says {words[idx[pos]]}")
                break
            if printed != f"{sim_of[v]:.4f}":
                problems.append(f"{word}@{label}->{target} {name}: printed "
                                f"{printed}, full sort {sim_of[v]:.4f}")
                break
    return problems

"""Workload inputs, generated from a seed by the benchmark's own code.

The program under test never sees this module: it only reads the files
that `setup` writes. Every generator is vectorized so that set-up, which a
run repeats several times to report its median, stays a small share of a
run.

Why each workload exists (later issues cite these names):

* ``pipeline-M``: a planted-shift corpus in JSONL run through
  build -> train dw2v -> evaluate -> a closed loop of queries. Corpus
  tokenization and counting dominate; the solver does little. Covers
  ranking and the per-query artifact re-read.
* ``train-L``: paper-scale synthetic PPMI (V=20000, T=8, d=50, ~1.1M nnz
  per slice) run through train dw2v (3 epochs). The solver kernels, the
  CLI's progress sink and objective telemetry, and the embedding writers do
  the work; the corpus layer does none.
* ``baselines-M``: pipeline-M's count and PPMI artifacts and alignment
  records, built at set-up, run through train tw2v -> evaluate tw2v ->
  robustness. Many single-slice
  (T=1) solves at small V instead of one coupled solve at large V, plus
  Procrustes chaining, subsampling and repeated PPMI rebuilds. A solver
  change tuned for train-L that costs small problems shows here.
"""

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

WINDOW = 5

# Planted-shift corpus at scale M (V = 2 * community_size + 1 = 5001, 3.2M
# tokens).
PLANTED_M = dict(n_slices=8, community_size=2500, docs_per_slice=20000,
                 doc_len=20, halo=5)
PROBE_WORD = "probeword"

# Synthetic PPMI at scale L.
ZIPF_L = dict(V=20000, T=8, pairs_per_slice=2_000_000, topics=400,
              partners=8, shares=(0.5, 0.3), mover_share=0.02)

N_TESTSET_M = 2000
N_QUERIES = 240  # half same-slice, half --all-years; >= 10 samples beyond p95


@dataclass
class PlantedCorpus:
    """Token ids of a planted-shift corpus: docs[t] is a (D, L) id matrix.

    Ids index `words`: ring one, ring two, then the probe word."""

    words: list
    docs: list
    labels: list
    community_size: int


@dataclass
class ZipfCounts:
    """Synthetic co-occurrence counts per slice, as fed to build_ppmi."""

    words: list
    cooc: list
    unigram: list
    labels: list


@dataclass
class Prepared:
    """What set-up leaves behind: the files the commands read, the argv of
    every operation, and the generated data the oracles check against."""

    ops: list  # (kind, argv)
    out: Path
    data: object
    testset: list = field(default_factory=list)  # (word, qlab, tlab, answer)
    method: str = "dw2v"
    epochs: int = 5


def planted_corpus(seed, n_slices, community_size, docs_per_slice, doc_len,
                   halo):
    """Two word rings and a probe word that moves from ring one to ring two
    half-way through the slices (the structure of
    `tvembed.synthetic.planted_shift_corpus`, drawn in bulk).

    A document picks a ring and a center and draws every token within
    `halo` ring positions of the center; documents of the probe's current
    ring centered within `halo` of position 0 get the probe word at one
    random position."""
    rng = np.random.default_rng(seed)
    n = community_size
    words = ([f"alpha{i:03d}" for i in range(n)]
             + [f"beta{i:03d}" for i in range(n)] + [PROBE_WORD])
    docs = []
    for t in range(n_slices):
        probe_side = 0 if t < n_slices // 2 else 1
        side = rng.integers(2, size=docs_per_slice)
        center = rng.integers(n, size=docs_per_slice)
        delta = rng.integers(-halo, halo + 1, size=(docs_per_slice, doc_len))
        ids = side[:, None] * n + (center[:, None] + delta) % n
        probe_pos = rng.integers(doc_len, size=docs_per_slice)
        near = (side == probe_side) & (np.minimum(center, n - center) <= halo)
        ids[np.flatnonzero(near), probe_pos[near]] = 2 * n
        docs.append(ids)
    return PlantedCorpus(words=words, docs=docs, labels=list(range(n_slices)),
                         community_size=n)


def write_jsonl(corpus, path):
    """One {"label", "text"} line per document; the words need no escaping."""
    words = np.asarray(corpus.words, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for label, ids in zip(corpus.labels, corpus.docs):
            head = f'{{"label": {label}, "text": "'
            fh.writelines(head + " ".join(row) + '"}\n'
                          for row in words[ids].tolist())


def vocabulary_order(corpus):
    """Word ids by descending total count, ties by word: the order
    `tvembed build` gives its vocabulary."""
    counts = np.zeros(len(corpus.words), dtype=np.int64)
    for ids in corpus.docs:
        counts += np.bincount(ids.ravel(), minlength=len(counts))
    present = np.flatnonzero(counts)
    return sorted(present.tolist(), key=lambda i: (-counts[i], corpus.words[i]))


def window_cooc(ids, V, window):
    """Symmetric windowed pair counts of equal-length documents.

    Every ordered position pair at distance 1..window inside one document
    counts once in each direction."""
    rows, cols = [], []
    for off in range(1, min(window, ids.shape[1] - 1) + 1):
        a, b = ids[:, :-off].ravel(), ids[:, off:].ravel()
        rows += [a, b]
        cols += [b, a]
    r, c = np.concatenate(rows), np.concatenate(cols)
    cooc = sp.coo_matrix((np.ones(len(r), dtype=np.int64), (r, c)),
                         shape=(V, V)).tocsr()
    cooc.sum_duplicates()
    return cooc


def write_artifacts(corpus, out):
    """Write the vocabulary, slice labels, counts and PPMI that
    `tvembed build --window 5 --min-count 1` writes for this corpus, using
    the program's own writers."""
    from tvembed.cli import write_vocab
    from tvembed.corpus import SliceStats, write_stats
    from tvembed.ppmi import build_ppmi, write_ppmi

    order = vocabulary_order(corpus)
    remap = np.full(len(corpus.words), -1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    V = len(order)
    write_vocab([corpus.words[i] for i in order], out / "vocab.txt")
    (out / "labels.json").write_text(json.dumps(corpus.labels))
    for label, ids in zip(corpus.labels, corpus.docs):
        ids = remap[ids]
        unigram = np.bincount(ids.ravel(), minlength=V).astype(np.int64)
        stats = SliceStats(cooc=window_cooc(ids, V, WINDOW), unigram=unigram,
                           total_tokens=int(unigram.sum()), window=WINDOW)
        write_stats(stats, out / f"stats_{label}.tvco")
        write_ppmi(build_ppmi(stats, slice_label=label),
                   out / f"ppmi_{label}.tvpm")


def _draw(rng, n, ids, prob):
    """n draws from `ids` with probabilities `prob`, grouped by id; pair
    them with a shuffled draw to make independent pairs."""
    return np.repeat(ids, rng.multinomial(n, prob))


def zipf_counts(seed, V, T, pairs_per_slice, topics, partners, shares,
                mover_share):
    """Co-occurrence counts with Zipf marginals, topical structure and drift.

    Word w has Zipf weight 1 / (w + 10). A topical pair (share `shares[0]`)
    picks a topic by its total weight, then both words by weight within the
    topic. A personal pair (share `shares[1]`) draws its first word by
    weight and its second among that word's own `partners` fixed partners,
    which gives every word a distinctive context. Any other pair draws
    both words by weight over the whole vocabulary. A fixed set of
    `mover_share * V` words changes topic, a growing part of it in each
    later slice. Unigram counts are the row sums over 2 * WINDOW, as a
    window of that size would give."""
    rng = np.random.default_rng(seed)
    weight = 1.0 / (np.arange(V) + 10.0)
    home = rng.integers(topics, size=V)
    partner = rng.integers(V, size=(V, partners))
    movers = rng.choice(V, size=int(mover_share * V), replace=False)
    new_home = rng.integers(topics, size=len(movers))
    n_topical = int(shares[0] * pairs_per_slice)
    n_personal = int(shares[1] * pairs_per_slice)
    n_global = pairs_per_slice - n_topical - n_personal
    everyone = np.arange(V)
    q = weight / weight.sum()
    out = ZipfCounts(words=[f"w{i:05d}" for i in range(V)], cooc=[],
                     unigram=[], labels=list(range(T)))
    for t in range(T):
        topic = home.copy()
        moved = len(movers) * t // max(T - 1, 1)
        topic[movers[:moved]] = new_home[:moved]
        members = np.split(np.argsort(topic, kind="stable"),
                           np.cumsum(np.bincount(topic, minlength=topics))[:-1])
        mass = np.array([weight[m].sum() for m in members])
        first, second = [], []
        for m, n in zip(members, rng.multinomial(n_topical, mass / mass.sum())):
            if n:
                qm = weight[m] / weight[m].sum()
                first.append(_draw(rng, n, m, qm))
                second.append(rng.permutation(_draw(rng, n, m, qm)))
        own = _draw(rng, n_personal, everyone, q)
        first += [own, _draw(rng, n_global, everyone, q)]
        second += [partner[own, rng.integers(partners, size=n_personal)],
                   rng.permutation(_draw(rng, n_global, everyone, q))]
        first, second = np.concatenate(first), np.concatenate(second)
        lo, hi = np.minimum(first, second), np.maximum(first, second)
        keys, counts = np.unique(lo * V + hi, return_counts=True)
        upper = sp.csr_matrix((counts.astype(np.int64), (keys // V, keys % V)),
                              shape=(V, V))
        cooc = (upper + sp.triu(upper, k=1).T).tocsr()
        rowsum = np.asarray(cooc.sum(axis=1)).ravel()
        out.cooc.append(cooc)
        out.unigram.append(-(-rowsum // (2 * WINDOW)))
    return out


def write_zipf_artifacts(counts, out):
    from tvembed.cli import write_vocab
    from tvembed.corpus import SliceStats
    from tvembed.ppmi import build_ppmi, write_ppmi

    write_vocab(counts.words, out / "vocab.txt")
    (out / "labels.json").write_text(json.dumps(counts.labels))
    for label, cooc, unigram in zip(counts.labels, counts.cooc,
                                    counts.unigram):
        stats = SliceStats(cooc=cooc, unigram=unigram,
                           total_tokens=int(unigram.sum()), window=WINDOW)
        write_ppmi(build_ppmi(stats, slice_label=label),
                   out / f"ppmi_{label}.tvpm")


def identity_records(rng, words, labels, n, min_gap=2):
    """(w, a, b, w) records: find word w of slice a among slice b's words."""
    pairs = [(a, b) for a in labels for b in labels if abs(a - b) >= min_gap]
    w = rng.integers(len(words), size=n)
    p = rng.integers(len(pairs), size=n)
    return [(words[i], *pairs[j], words[i]) for i, j in zip(w, p)]


def write_testset(records, path):
    lines = ["query_word,query_label,target_label,answer_word"]
    lines += [f"{q},{a},{b},{ans}" for q, a, b, ans in records]
    path.write_text("\n".join(lines) + "\n")


def write_triplets(rng, corpus, path, arcs_per_ring=10, words_per_arc=20):
    """Labeled (word, slice) rows whose sections are arcs of the rings."""
    n = corpus.community_size
    arc = n // arcs_per_ring
    lines = ["word,label,section,strength"]
    for prefix in ("alpha", "beta"):
        for a in range(arcs_per_ring):
            # Stay clear of arc ends so neighbouring arcs stay separable.
            inner = np.arange(a * arc + arc // 4, (a + 1) * arc - arc // 4)
            picks = rng.choice(inner, size=min(words_per_arc, len(inner)),
                               replace=False)
            for i in sorted(picks.tolist()):
                label = int(rng.integers(len(corpus.labels)))
                strength = 0.4 + 0.6 * float(rng.random())
                lines.append(f"{prefix}{i:03d},{label},{prefix}{a},"
                             f"{strength:.4f}")
    path.write_text("\n".join(lines) + "\n")


def _queries(rng, words, labels, out):
    ops = []
    for i in range(N_QUERIES):
        word = words[int(rng.integers(len(words)))]
        label = labels[int(rng.integers(len(labels)))]
        argv = ["query", word, "--out", str(out), "--label", str(label)]
        if i % 2:
            argv.append("--all-years")
        ops.append(("query", argv))
    return ops


def setup(workload, seed, work):
    """Generate one workload's inputs under `work` from `seed`."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out = work / "out"
    rng = np.random.default_rng([seed, 1])
    if workload == "pipeline-M":
        corpus = planted_corpus(seed, **PLANTED_M)
        write_jsonl(corpus, work / "corpus.jsonl")
        ring_words = corpus.words[:-1]
        records = identity_records(rng, ring_words, corpus.labels, N_TESTSET_M)
        write_testset(records, work / "testset.csv")
        write_triplets(rng, corpus, work / "triplets.csv")
        ops = [
            ("build", ["build", "--corpus", str(work / "corpus.jsonl"),
                       "--out", str(out), "--window", str(WINDOW),
                       "--min-count", "1"]),
            ("train", ["train", "--out", str(out), "--method", "dw2v",
                       "--dim", "50", "--ridge", "10", "--smoothing", "50",
                       "--coupling", "50", "--epochs", "5"]),
            ("evaluate", ["evaluate", "--out", str(out),
                          "--testset", str(work / "testset.csv"),
                          "--triplets", str(work / "triplets.csv")]),
        ] + _queries(rng, corpus.words, corpus.labels, out)
        return Prepared(ops=ops, out=out, data=corpus, testset=records)
    if workload == "train-L":
        counts = zipf_counts(seed, **ZIPF_L)
        out.mkdir()
        write_zipf_artifacts(counts, out)
        ops = [("train", ["train", "--out", str(out), "--method", "dw2v",
                          "--dim", "50", "--epochs", "3"])]
        return Prepared(ops=ops, out=out, data=counts, epochs=3)
    if workload == "baselines-M":
        corpus = planted_corpus(seed, **PLANTED_M)
        out.mkdir()
        write_artifacts(corpus, out)
        # The same records as pipeline-M on the same seed.
        records = identity_records(rng, corpus.words[:-1], corpus.labels,
                                   N_TESTSET_M)
        write_testset(records, work / "testset.csv")
        testset = str(work / "testset.csv")
        ops = [
            ("train", ["train", "--out", str(out), "--method", "tw2v"]),
            ("evaluate", ["evaluate", "--out", str(out), "--method", "tw2v",
                          "--testset", testset]),
            ("robustness", ["robustness", "--out", str(out),
                            "--testset", testset, "--rates", "0.1"]),
        ]
        return Prepared(ops=ops, out=out, data=corpus, testset=records,
                        method="tw2v")
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pipeline-M", "train-L", "baselines-M")

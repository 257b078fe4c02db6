"""Self-tests of the benchmark: oracles, span arithmetic and whole runs on
tiny inputs.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_PLANTED = dict(n_slices=4, community_size=200, docs_per_slice=400,
                    doc_len=12, halo=3)
TINY_ZIPF = dict(V=400, T=3, pairs_per_slice=40000, topics=10, partners=4,
                 shares=(0.5, 0.3), mover_share=0.05)


def cli(*argv):
    from tvembed.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """A tiny planted corpus built and trained through the CLI."""
    work = tmp_path_factory.mktemp("planted")
    corpus = workloads.planted_corpus(3, **TINY_PLANTED)
    workloads.write_jsonl(corpus, work / "corpus.jsonl")
    out = work / "out"
    cli("build", "--corpus", str(work / "corpus.jsonl"), "--out", str(out),
        "--window", "5", "--min-count", "1")
    train_stdout = cli("train", "--out", str(out), "--dim", "8",
                       "--epochs", "3")
    from tvembed.solver import read_embeddings_binary

    mats, labels = read_embeddings_binary(out / "embeddings_dw2v.tvem")
    words = oracles.read_vocab_words(out / "vocab.txt")
    return dict(work=work, corpus=corpus, out=out, mats=mats, labels=labels,
                words=words, train_stdout=train_stdout)


# ---------------------------------------------------------------------------
# Span arithmetic.


def test_self_time_subtracts_union_of_children():
    s = [("cli.main", 0.0, 10.0, -1),
         ("corpus.load_corpus", 1.0, 3.0, 0),
         ("corpus.tokenize", 1.5, 2.0, 1),
         ("ppmi.build_ppmi", 3.5, 4.0, 0),
         ("solver.train", 6.0, 9.0, 0)]
    assert spans.self_times(s) == pytest.approx([4.5, 1.5, 0.5, 0.5, 3.0])
    assert spans.check_accounting(s) == [("cli.main", 10.0, pytest.approx(10.0))]
    # Overlapping children are covered once.
    s[3] = ("ppmi.build_ppmi", 2.5, 4.0, 0)
    assert spans.self_times(s)[0] == pytest.approx(4.0)


def test_accounting_rejects_a_child_outside_its_parent():
    s = [("cli.main", 0.0, 1.0, -1), ("solver.train", 0.5, 2.0, 0)]
    with pytest.raises(ValueError):
        spans.check_accounting(s)


def test_tracer_wraps_by_name_imports_and_restores(planted):
    import tvembed.cli
    import tvembed.solver

    original = tvembed.cli.train
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tvembed.cli.train is tvembed.solver.train is not original
        root = len(tracer.names)
        # Same settings as the fixture, so the embeddings stay the same.
        cli("train", "--out", str(planted["out"]), "--dim", "8",
            "--epochs", "3")
    finally:
        tracer.uninstall()
    assert tvembed.cli.train is original
    s = tracer.spans()
    names = {n for n, *_ in s}
    assert {"cli.main", "cli.cmd_train", "solver.train", "solver.objective",
            spans.SINK, "ppmi.read_ppmi",
            "solver.write_embeddings_text"} <= names
    assert s[root][0] == "cli.main"
    (_, dur, acc), = spans.check_accounting(s)
    assert acc == pytest.approx(dur)
    m = spans.layer_metrics(s, tracer.counters, {root: "train"})
    assert m["solver.updates"] == tracer.names.count(spans.SINK) > 0
    assert m["solver.train_self_s"] + m["solver.sink_s"] == pytest.approx(
        sum(e - b for n, b, e, _ in s if n == "solver.train"))
    assert m["ppmi.nnz"] > 0 and m["ppmi.bytes"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(dur)


# ---------------------------------------------------------------------------
# Oracles.


def test_fast_build_matches_cli_build(planted, tmp_path):
    workloads.write_artifacts(planted["corpus"], tmp_path)
    for f in sorted(planted["out"].glob("*")):
        if f.suffix in (".tvco", ".tvpm") or f.name == "vocab.txt":
            assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name
    assert json.loads((tmp_path / "labels.json").read_text()) == \
        json.loads((planted["out"] / "labels.json").read_text())


def test_count_and_ppmi_oracles(planted):
    from tvembed.corpus import read_stats
    from tvembed.ppmi import read_ppmi

    corpus, words = planted["corpus"], planted["words"]
    index = {w: i for i, w in enumerate(words)}
    gid_to_vid = np.array([index[w] for w in corpus.words])
    stats = read_stats(planted["out"] / "stats_1.tvco")
    ppmi = read_ppmi(planted["out"] / "ppmi_1.tvpm").values
    sample = [0, 7, len(corpus.words) - 1]
    assert oracles.check_counts(stats, corpus.docs[1], gid_to_vid, sample,
                                5) == []
    rows = gid_to_vid[sample]
    assert oracles.check_ppmi(stats.cooc, stats.unigram, stats.total_tokens,
                              ppmi, rows) == []
    # A wrong input document changes the recount.
    docs = corpus.docs[1].copy()
    docs[0, 0] = 7 if docs[0, 0] != 7 else 0
    assert oracles.check_counts(stats, docs, gid_to_vid, sample, 5)
    bad = ppmi.copy()
    bad.data[bad.indptr[rows[1]]] *= 1.0 + 1e-9
    assert oracles.check_ppmi(stats.cooc, stats.unigram, stats.total_tokens,
                              bad, rows)


def test_objective_oracle(planted):
    assert oracles.check_objective(planted["train_stdout"], 3) == []
    ok = "epoch 1: objective 3.0e+00\nepoch 2: objective 2.0e+00\n"
    assert oracles.check_objective(ok, 2) == []
    assert oracles.check_objective(ok, 3)
    assert oracles.check_objective(ok.replace("2.0e+00", "4.0e+00"), 2)


def test_full_sort_ties_and_self_exclusion():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    norms = np.linalg.norm(m, axis=1)
    idx, sims = oracles.full_sort(m[0], m, norms, exclude=(0,))
    assert idx.tolist() == [2, 4, 1]  # ties by index, zero row skipped
    assert oracles.rank_bounds(idx, sims, 4) == (1, 2)
    assert oracles.rank_bounds(idx, sims, 1) == (3, 3)
    assert oracles.rank_bounds(idx, sims, 0) == (None, None)


def test_alignment_oracle_matches_evaluate(planted, tmp_path):
    rng = np.random.default_rng(0)
    records = workloads.identity_records(rng, planted["corpus"].words[:-1],
                                         planted["labels"], 40)
    workloads.write_testset(records, tmp_path / "t.csv")
    report = oracles.parse_report(cli("evaluate", "--out", str(planted["out"]),
                                      "--testset", str(tmp_path / "t.csv")))
    index = {w: i for i, w in enumerate(planted["words"])}
    ids = [(index[q], a, b, index[ans]) for q, a, b, ans in records]
    bounds = oracles.alignment_bounds(ids, planted["mats"], planted["labels"])
    assert oracles.check_alignment(report, bounds) == []
    wrong = dict(report, mrr=report["mrr"] + 0.01)
    assert oracles.check_alignment(wrong, bounds)


def test_local_map_oracle_matches_tw2v(planted, tmp_path):
    out = planted["out"]
    cli("train", "--out", str(out), "--method", "tw2v", "--dim", "8",
        "--epochs", "2")
    rng = np.random.default_rng(1)
    records = workloads.identity_records(rng, planted["corpus"].words[:-1],
                                         planted["labels"], 30)
    workloads.write_testset(records, tmp_path / "t.csv")
    report = oracles.parse_report(cli("evaluate", "--out", str(out),
                                      "--method", "tw2v", "--testset",
                                      str(tmp_path / "t.csv")))
    from tvembed.solver import read_embeddings_binary

    mats, labels = read_embeddings_binary(out / "embeddings_tw2v_perslice.tvem")
    index = {w: i for i, w in enumerate(planted["words"])}
    ids = [(index[q], a, b, index[ans]) for q, a, b, ans in records]
    bounds = oracles.alignment_bounds(ids, mats, labels, local=True)
    assert oracles.check_alignment(report, bounds) == []


def test_query_oracle(planted):
    argv = ["query", "alpha010", "--out", str(planted["out"]), "--label", "1",
            "--all-years"]
    stdout = cli(*argv)
    words, mats, labels = planted["words"], planted["mats"], planted["labels"]
    index = {w: i for i, w in enumerate(words)}
    norms = {lab: np.linalg.norm(m, axis=1) for lab, m in zip(labels, mats)}
    assert oracles.check_query(stdout, argv, words, index, mats, labels,
                               norms) == []
    first = stdout.splitlines()[0]
    head, rest = first.split(": ", 1)
    items = rest.split(", ")
    items[0], items[1] = items[1], items[0]
    swapped = stdout.replace(first, head + ": " + ", ".join(items))
    assert oracles.check_query(swapped, argv, words, index, mats, labels,
                               norms)


def test_zipf_counts_are_symmetric_and_deterministic():
    a = workloads.zipf_counts(5, **TINY_ZIPF)
    b = workloads.zipf_counts(5, **TINY_ZIPF)
    for ca, cb in zip(a.cooc, b.cooc):
        assert (ca != ca.T).nnz == 0
        assert (ca != cb).nnz == 0


# ---------------------------------------------------------------------------
# Whole runs on tiny inputs.


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "PLANTED_M", TINY_PLANTED)
    monkeypatch.setattr(workloads, "ZIPF_L", TINY_ZIPF)
    monkeypatch.setattr(workloads, "N_TESTSET_M", 60)
    monkeypatch.setattr(workloads, "N_QUERIES", 6)


def bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_whole_run(tiny, workload):
    res = bench("--workload", workload, "--seed", "4", "--seconds", "1",
                "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert list(res["metrics"]) == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    res = bench("--workload", workload, "--seed", "4", "--seconds", "1",
                "--trace", "1")
    assert res["correct"]
    assert sorted(res["metrics"]) == sorted(declared("per_layer"))


def test_wrong_oracle_input_counts_as_failed(tiny, monkeypatch):
    setup = workloads.setup

    def corrupted(*args):
        prep = setup(*args)
        prep.testset = [(q, a, b, prep.testset[0][0])
                        for q, a, b, _ in prep.testset]
        return prep

    monkeypatch.setattr(workloads, "setup", corrupted)
    res = bench("--workload", "pipeline-M", "--seed", "4", "--seconds", "1",
                "--trace", "0")
    assert not res["correct"]
    assert res["failed"] == 1  # the evaluate operation
    assert res["metrics"]["ok_ops_frac"]["value"] < 1.0

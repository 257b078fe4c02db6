"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
pytest capture) so the gate's verdict is visible in any run log.
"""

import statistics
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    dense_objective_terms,
    descent_trace,
    f_beta_oracle,
    nmi_oracle,
    random_ppmi_sequence,
    residual_gradient,
    write_slice_dirs,
)
from tvembed.baselines import procrustes_align, train_per_slice, align_sequence
from tvembed.corpus import (
    build_vocabulary,
    count_cooccurrences,
    read_stats,
    subsample_counts,
    write_stats,
)
from tvembed.cli import main as cli_main
from tvembed.evaluation import (
    f_beta,
    mp_at_k,
    mrr,
    nmi,
    run_alignment_test,
)
from tvembed.ppmi import (
    PpmiMatrix,
    PpmiSequence,
    build_ppmi,
    read_ppmi,
    write_ppmi,
)
from tvembed.solver import (
    SolverConfig,
    final_embedding,
    read_embeddings_binary,
    train,
    write_embeddings_binary,
)
from tvembed.synthetic import identity_testset, planted_shift_corpus


def report(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"acceptance {number:2d} [{name}]: {verdict}{suffix}")
    assert ok, f"acceptance {number} [{name}] failed: {detail}"


@pytest.fixture(scope="module")
def descent_run():
    """Shared run for criteria 1 and 2: objective and normal-equation
    residual recorded after every block update (see `descent_trace`)."""
    Y = random_ppmi_sequence(200, 5, density=0.05, seed=42)
    cfg = SolverConfig(dim=10, ridge=10.0, smoothing=50.0, coupling=50.0,
                       epochs=5, seed=42)
    t0 = time.time()
    initial, objs, residuals = descent_trace(Y, cfg)
    return initial, objs, residuals, time.time() - t0


def test_01_monotone_descent(descent_run, capsys):
    initial, objs, _, elapsed = descent_run
    seq = [initial] + objs
    ok = all(b <= a * (1 + 1e-8) for a, b in zip(seq, seq[1:]))
    ok = ok and elapsed < 60
    report(capsys, 1, "monotone descent per block", ok,
           f"{len(objs)} blocks, {elapsed:.1f}s, obj {seq[0]:.3e}->{seq[-1]:.3e}")


def test_02_normal_equation_residual(descent_run, capsys):
    _, _, residuals, _ = descent_run
    worst = max(residuals)
    report(capsys, 2, "ridge-solve exactness", worst <= 1e-10,
           f"max residual {worst:.2e}")


def test_03_gradient_matches_finite_differences(capsys):
    V, d, step = 6, 3, 1e-6
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        dense = rng.random((V, V))
        Yd = (dense + dense.T) / 2
        Ym = PpmiMatrix(values=sp.csr_matrix(Yd), slice_label=0)
        U = rng.standard_normal((V, d))

        def f(M):
            return 0.5 * np.sum((Yd - M @ M.T) ** 2)

        grad = residual_gradient(U, Ym)
        fd = np.zeros_like(U)
        for i in range(V):
            for j in range(d):
                Up, Um = U.copy(), U.copy()
                Up[i, j] += step
                Um[i, j] -= step
                fd[i, j] = (f(Up) - f(Um)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
    report(capsys, 3, "analytic gradient vs finite differences",
           worst <= 1e-4, f"max rel err {worst:.2e} over 20 trials")


def test_04_objective_matches_dense_oracle(capsys):
    # Each epoch's ObjectiveTerms, as train streams them to a sink, against
    # the dense terms of the factors at that epoch's end.
    worst, compared = 0.0, 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        V = int(rng.integers(2, 9))
        T = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        Y = random_ppmi_sequence(V, T, density=0.5, seed=200 + trial)
        cfg = SolverConfig(dim=d, ridge=float(rng.random() * 5),
                           smoothing=float(rng.random() * 5),
                           coupling=float(rng.random() * 5),
                           epochs=1, seed=trial)
        pairs = []

        def sink(event):
            if event.objective is not None:
                terms = event.objective
                dense = dense_objective_terms(event.state, Y, cfg)
                pairs.extend(zip(
                    (terms.fit, terms.coupling, terms.ridge, terms.smoothing,
                     terms.total), dense + (sum(dense),)))

        train(Y, cfg, progress_sink=sink)
        compared += len(pairs)
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    report(capsys, 4, "streamed objective vs dense oracle",
           worst <= 1e-10 and compared == 20 * 5,
           f"max rel err {worst:.2e} over 20 instances")


def test_05_huge_smoothing_approaches_static_embedding(capsys):
    # With the smoothing weight at 1e6 the slices must collapse onto one
    # static embedding. The mixing happens one neighbor per sweep, so the
    # collapse needs enough epochs; 20 sweeps suffice for T=5.
    V, T = 150, 5
    Y = random_ppmi_sequence(V, T, density=0.05, seed=5)
    cfg = SolverConfig(dim=50, ridge=10.0, smoothing=1e6, coupling=50.0,
                       epochs=20, seed=5)
    seq = train(Y, cfg)
    emb = final_embedding(seq)
    mean = np.mean(emb, axis=0)
    dev = max(
        np.linalg.norm(emb[t] - mean) / np.linalg.norm(mean) for t in range(T)
    )
    report(capsys, 5, "huge smoothing gives static embedding", dev <= 1e-2,
           f"max rel deviation {dev:.2e}")


def test_06_procrustes_recovers_planted_map(capsys):
    V, d = 300, 50
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        source = rng.standard_normal((V, d))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        target = source @ Q
        R = procrustes_align(source, target)
        worst = max(worst, np.linalg.norm(R - Q))
    report(capsys, 6, "planted orthogonal map recovery", worst <= 1e-8,
           f"max Frobenius err {worst:.2e} over 50 trials")


def test_07_metric_oracles_and_rank_invariants(capsys):
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        labels = [f"L{i}" for i in rng.integers(3, size=n)]
        assign = rng.integers(3, size=n)
        clustering = np.asarray(assign)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degenerate labelings warn
            worst = max(worst, abs(nmi(labels, clustering)
                                   - nmi_oracle(labels, clustering)))
            worst = max(worst, abs(f_beta(labels, clustering, beta=5.0)
                                   - f_beta_oracle(labels, clustering, 5.0)))
    invariants = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        ranks = [
            None if rng.random() < 0.3 else int(rng.integers(1, 11))
            for _ in range(n)
        ]
        mps = [mp_at_k(ranks, K) for K in range(1, 11)]
        invariants &= all(a <= b for a, b in zip(mps, mps[1:]))
        invariants &= all(0.0 <= v <= 1.0 for v in mps)
        m = mrr(ranks)
        invariants &= mps[9] / 10 <= m <= mps[9]
    ok = worst <= 1e-12 and invariants
    report(capsys, 7, "clustering metrics vs oracles, rank invariants", ok,
           f"max metric err {worst:.2e}, invariants {'held' if invariants else 'violated'}")


@pytest.fixture(scope="module")
def planted_results():
    """Per-seed retrieval scores on the planted-shift corpus, with and
    without heavy subsampling of alternate slices. Shared by criteria
    8 and 9."""
    results = []
    for seed in range(5):
        corpus = planted_shift_corpus(seed=seed)
        labels = corpus.slice_labels
        vocab = build_vocabulary(corpus, min_count=1)
        stats = [count_cooccurrences(s, vocab, window=5)
                 for s in corpus.slices]
        testset = identity_testset(vocab, labels, seed=seed)
        by_rate = {}
        for rate in (1.0, 0.01):
            used = stats
            if rate < 1:
                used = [
                    subsample_counts(s, rate, rng_seed=seed * 7919 + t)
                    if t % 2 == 1 else s
                    for t, s in enumerate(stats)
                ]
            Y = PpmiSequence(
                [build_ppmi(s, slice_label=lab)
                 for s, lab in zip(used, labels)],
                len(vocab),
            )
            cfg = SolverConfig(dim=20, ridge=1.0, smoothing=50.0,
                               coupling=50.0, epochs=20, seed=seed)
            joint = train(Y, cfg)
            avg = final_embedding(joint)
            per = train_per_slice(Y, cfg)
            variants = {
                "joint": [avg[t] for t in range(len(labels))],
                "unaligned": list(per),
                "aligned": list(align_sequence(per)),
            }
            scores = {}
            for name, mats in variants.items():
                ranks = run_alignment_test(testset, dict(zip(labels, mats)))
                scores[name] = {"mp1": mp_at_k(ranks, 1), "mrr": mrr(ranks)}
            by_rate[rate] = scores
        results.append(by_rate)
    return results


def test_08_planted_shift_retrieval_ordering(planted_results, capsys):
    t0 = time.time()

    def median(variant):
        return statistics.median(
            r[1.0][variant]["mp1"] for r in planted_results
        )

    joint, unaligned, aligned = (
        median("joint"), median("unaligned"), median("aligned")
    )
    ok = joint > unaligned and joint >= aligned
    report(capsys, 8, "planted-shift MP@1 ordering", ok,
           f"joint {joint:.3f} > unaligned {unaligned:.3f}, "
           f">= aligned {aligned:.3f}; median of 5 seeds")
    assert time.time() - t0 < 300


def test_09_robustness_to_subsampling(planted_results, capsys):
    def drops(variant):
        return [
            r[1.0][variant]["mrr"] - r[0.01][variant]["mrr"]
            for r in planted_results
        ]

    joint_drop = statistics.median(drops("joint"))
    aligned_drop = statistics.median(drops("aligned"))
    report(capsys, 9, "MRR robustness under 1% subsampling",
           joint_drop < aligned_drop,
           f"joint drop {joint_drop:+.3f} < aligned drop {aligned_drop:+.3f}")


def test_10_bit_exact_io_and_reruns(tmp_path, capsys):
    corpus = planted_shift_corpus(n_slices=3, community_size=15,
                                  docs_per_slice=60, doc_len=10, seed=3)
    vocab = build_vocabulary(corpus, min_count=1)
    stats = count_cooccurrences(corpus.slices[0], vocab, window=3)
    ok = True

    p = tmp_path / "s.tvco"
    write_stats(stats, p)
    blob = p.read_bytes()
    write_stats(read_stats(p), p)
    ok &= p.read_bytes() == blob

    m = build_ppmi(stats, slice_label=7)
    p = tmp_path / "m.tvpm"
    write_ppmi(m, p)
    blob = p.read_bytes()
    write_ppmi(read_ppmi(p), p)
    ok &= p.read_bytes() == blob

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 3)) for _ in range(2)]
    p = tmp_path / "e.tvem"
    write_embeddings_binary(mats, [1990, 1995], p)
    blob = p.read_bytes()
    got, labels = read_embeddings_binary(p)
    write_embeddings_binary(got, labels, p)
    ok &= p.read_bytes() == blob

    corpus_dir = tmp_path / "corpus"
    write_slice_dirs(corpus_dir, corpus)
    out = tmp_path / "run"
    build_args = ["build", "--corpus", str(corpus_dir), "--out", str(out),
                  "--window", "3", "--min-count", "1"]
    train_args = ["train", "--out", str(out), "--dim", "4", "--epochs", "2"]
    assert cli_main(build_args) == 0
    assert cli_main(train_args) == 0
    artifacts = sorted(f for f in out.iterdir() if f.is_file())
    blobs = {f.name: f.read_bytes() for f in artifacts}
    assert cli_main(build_args) == 0
    assert cli_main(train_args) == 0
    ok &= all(f.read_bytes() == blobs[f.name] for f in artifacts)

    report(capsys, 10, "bit-exact round-trips and reruns", ok,
           f"{len(blobs)} command artifacts compared")

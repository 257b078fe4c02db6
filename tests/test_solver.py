import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_objective_oracle,
    descent_trace,
    dense_objective_terms,
    dense_ridge_system,
    normal_residual,
    random_ppmi_sequence,
    residual_gradient,
)
from tvembed.corpus import build_vocabulary, count_cooccurrences
from tvembed.ppmi import PpmiMatrix, PpmiSequence, build_ppmi
from tvembed.solver import (
    EmbeddingSequence,
    SolverConfig,
    final_embedding,
    init_embeddings,
    read_embeddings_binary,
    train,
    update_factor,
    write_embeddings_binary,
    write_embeddings_text,
)
from tvembed.synthetic import planted_shift_corpus


def _nudge(x, step):
    """x moved `step` (-1, 0 or 1) ulps."""
    return float(np.nextafter(x, step * np.inf)) if step else x


_ULP_STEPS = st.sampled_from([-1, 0, 1])

# Values that reach every branch of the text formatter, either sign.
TEXT_VALUES = st.builds(lambda v, neg: -v if neg else v, st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-290, 1e290,
                     1.7976931348623157e308, 12345678.25, 123456788.5]),
    # powers of ten and their neighbours: exponent guesses and carries
    st.builds(lambda k, step: _nudge(float(f"1e{k}"), step),
              st.integers(-323, 308), _ULP_STEPS),
    # 9-digit rounding ties and their neighbours
    st.builds(lambda n, k, step: _nudge((n + 0.5) * float(f"1e{k}"), step),
              st.integers(10**8, 10**9 - 1), st.integers(-305, 299), _ULP_STEPS),
    st.floats(1, 1e9, exclude_max=True),
    st.floats(1e100, 1e300),
    st.floats(1e-300, 1e-100),
    st.floats(-2, 2),
    st.floats(),
), st.booleans())


def zero_factors(V, T, cfg):
    """An EmbeddingSequence of T slices whose U and W are all zero."""
    return EmbeddingSequence(U=[np.zeros((V, cfg.dim)) for _ in range(T)],
                             W=[np.zeros((V, cfg.dim)) for _ in range(T)])


def zero_sequence(V, T):
    mats = [
        PpmiMatrix(values=sp.csr_matrix((V, V)), slice_label=t) for t in range(T)
    ]
    return PpmiSequence(matrices=mats, vocab_size=V)


class TestInit:
    def test_deterministic(self):
        cfg = SolverConfig(dim=10, seed=7)
        a = init_embeddings(100, 3, cfg)
        b = init_embeddings(100, 3, cfg)
        for x, y in zip(a.U + a.W, b.U + b.W):
            assert np.array_equal(x, y)

    def test_range_bound(self):
        cfg = SolverConfig(dim=10, seed=7)
        seq = init_embeddings(100, 3, cfg)
        bound = 1.0 / np.sqrt(10)
        for m in seq.U + seq.W:
            assert np.max(np.abs(m)) <= bound

    def test_u_w_independent(self):
        cfg = SolverConfig(dim=3, seed=1)
        seq = init_embeddings(20, 1, cfg)
        assert not np.array_equal(seq.U[0], seq.W[0])


class TestObjective:
    """The dense oracle on closed-form cases, and the objective the solver
    streams against it."""

    def test_zero_factors(self):
        Y = random_ppmi_sequence(6, 3, seed=1)
        cfg = SolverConfig(dim=2)
        seq = zero_factors(6, 3, cfg)
        expected = 0.5 * sum(
            float(m.values.power(2).sum()) for m in Y.matrices
        )
        assert dense_objective_oracle(seq, Y, cfg) == pytest.approx(
            expected, rel=1e-12)

    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        V, d = 5, 2
        U = rng.standard_normal((V, d))
        W = rng.standard_normal((V, d))
        prod = U @ W.T
        Y = PpmiSequence(
            matrices=[PpmiMatrix(values=sp.csr_matrix(prod), slice_label=0)],
            vocab_size=V,
        )
        cfg = SolverConfig(dim=d, ridge=0.0, smoothing=0.0, coupling=0.0)
        seq = EmbeddingSequence(U=[U], W=[W])
        assert dense_objective_oracle(seq, Y, cfg) == pytest.approx(
            0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        V, T, d = 6, 3, 2
        Y = random_ppmi_sequence(V, T, seed=seed)
        cfg = SolverConfig(dim=d, ridge=2.5, smoothing=1.5, coupling=0.7,
                           epochs=2, seed=seed)
        _, epochs = streamed_run(Y, cfg)
        for terms, dense in epochs:
            assert terms.total == pytest.approx(sum(dense), rel=1e-10)


class TestResidualGradient:
    def test_zero_input(self):
        Y = random_ppmi_sequence(4, 1, seed=3).matrices[0]
        grad = residual_gradient(np.zeros((4, 2)), Y)
        assert np.all(grad == 0)

    def test_stationary_at_exact_factorization(self):
        rng = np.random.default_rng(1)
        U = rng.standard_normal((4, 2))
        Y = PpmiMatrix(values=sp.csr_matrix(U @ U.T), slice_label=0)
        grad = residual_gradient(U, Y)
        assert np.max(np.abs(grad)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        V, d = 4, 2
        Y = random_ppmi_sequence(V, 1, density=0.6, seed=seed).matrices[0]
        U = rng.standard_normal((V, d))

        def f(M):
            return 0.5 * np.sum((Y.values.toarray() - M @ M.T) ** 2)

        grad = residual_gradient(U, Y)
        eps = 1e-6
        fd = np.zeros_like(U)
        for i in range(V):
            for j in range(d):
                up, dn = U.copy(), U.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                fd[i, j] = (f(up) - f(dn)) / (2 * eps)
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1) <= 1e-5


class TestRidgeUpdateBlock:
    """update_factor: one exact BCD block update, i.e. a whole factor."""

    def test_zero_data_shrinks_to_zero(self):
        V, T, d = 6, 3, 2
        Y = zero_sequence(V, T)
        cfg = SolverConfig(dim=d, ridge=5.0, smoothing=0.0, coupling=0.0, seed=2)
        state = init_embeddings(V, T, cfg)
        new, *_ = update_factor("U", 1, state, Y, cfg)
        A, B = dense_ridge_system("U", 1, state, Y, cfg)
        assert np.max(np.abs(new)) <= 1e-14
        assert normal_residual(new, A, B) == 0.0

    def test_large_smoothing_averages_neighbors(self):
        V, T, d = 5, 3, 2
        Y = zero_sequence(V, T)
        cfg = SolverConfig(
            dim=d, ridge=0.0, smoothing=1e12, coupling=0.0, seed=4
        )
        state = init_embeddings(V, T, cfg)
        new, *_ = update_factor("U", 1, state, Y, cfg)
        target = (state.U[0] + state.U[2]) / 2.0
        assert np.max(np.abs(new - target)) <= 1e-8

    @pytest.mark.parametrize("factor", ["U", "W"])
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_block_update_never_increases_objective(self, factor, t):
        V, T, d = 8, 3, 3
        Y = random_ppmi_sequence(V, T, seed=5)
        cfg = SolverConfig(dim=d, ridge=1.0, smoothing=2.0, coupling=0.5, seed=5)
        state = init_embeddings(V, T, cfg)
        before = dense_objective_oracle(state, Y, cfg)
        new, *_ = update_factor(factor, t, state, Y, cfg)
        (state.U if factor == "U" else state.W)[t] = new
        after = dense_objective_oracle(state, Y, cfg)
        assert after <= before * (1 + 1e-12)

    def test_normal_equation_residual(self):
        V, T, d = 8, 3, 3
        Y = random_ppmi_sequence(V, T, seed=6)
        cfg = SolverConfig(dim=d, ridge=1.0, smoothing=2.0, coupling=0.5, seed=6)
        state = init_embeddings(V, T, cfg)
        for t in range(T):
            for factor in ("U", "W"):
                A, B = dense_ridge_system(factor, t, state, Y, cfg)
                new, *_ = update_factor(factor, t, state, Y, cfg)
                assert normal_residual(new, A, B) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_solve(self, seed):
        V, T, d = 9, 4, 3
        Y = random_ppmi_sequence(V, T, seed=seed)
        cfg = SolverConfig(dim=d, ridge=0.5, smoothing=1.5, coupling=2.0,
                           seed=seed)
        state = init_embeddings(V, T, cfg)
        for t in range(T):
            for factor in ("U", "W"):
                A, B = dense_ridge_system(factor, t, state, Y, cfg)
                new, gram, cross = update_factor(factor, t, state, Y, cfg)
                want = np.linalg.solve(A, B.T).T
                assert np.allclose(new, want, rtol=1e-10, atol=1e-12)
                F = (state.W if factor == "U" else state.U)[t]
                assert np.allclose(gram, F.T @ F, rtol=1e-12, atol=0)
                dense_cross = np.sum(new * (Y.matrices[t].values.toarray() @ F))
                assert cross == pytest.approx(dense_cross, rel=1e-12)

    def test_does_not_mutate_state(self):
        Y = random_ppmi_sequence(6, 2, seed=7)
        cfg = SolverConfig(dim=2, seed=7)
        state = init_embeddings(6, 2, cfg)
        before = [m.copy() for m in state.U + state.W]
        update_factor("W", 0, state, Y, cfg)
        for a, b in zip(before, state.U + state.W):
            assert np.array_equal(a, b)

    def test_singular_system_uses_least_norm(self):
        Y = zero_sequence(4, 1)
        cfg = SolverConfig(dim=2, ridge=0.0, smoothing=0.0, coupling=0.0)
        state = zero_factors(4, 1, cfg)
        with pytest.warns(UserWarning, match="singular"):
            new, *_ = update_factor("U", 0, state, Y, cfg)
        assert np.array_equal(new, np.zeros((4, 2)))

    def test_unknown_factor(self):
        Y = zero_sequence(3, 1)
        cfg = SolverConfig(dim=2)
        with pytest.raises(ValueError):
            update_factor("V", 0, init_embeddings(3, 1, cfg), Y, cfg)


class TestTrain:
    def test_monotone_descent_every_block(self):
        Y = random_ppmi_sequence(20, 4, density=0.4, seed=9)
        cfg = SolverConfig(
            dim=3, ridge=1.0, smoothing=3.0, coupling=2.0, epochs=3, seed=9,
        )
        initial, objs, residuals = descent_trace(Y, cfg)
        objs = [initial] + objs
        assert max(residuals) <= 1e-10
        for before, after in zip(objs, objs[1:]):
            assert after <= before * (1 + 1e-8)
        assert objs[-1] < objs[0]

    def test_one_event_per_factor_update(self):
        T = 3
        Y = random_ppmi_sequence(10, T, seed=16)
        cfg = SolverConfig(dim=2, epochs=2, seed=16)
        events = []
        train(Y, cfg, progress_sink=events.append)
        assert len(events) == cfg.epochs * T * 2
        assert [(e.epoch, e.t, e.factor) for e in events] == [
            (epoch, t, factor)
            for epoch in range(cfg.epochs)
            for t in range(T)
            for factor in ("U", "W")
        ]

    def test_t1_smoothing_is_inert(self):
        V, d = 10, 3
        Y = random_ppmi_sequence(V, 1, seed=10)
        base = SolverConfig(dim=d, ridge=1.0, smoothing=0.0, coupling=1.0,
                            epochs=3, seed=10)
        smooth = SolverConfig(dim=d, ridge=1.0, smoothing=123.0, coupling=1.0,
                              epochs=3, seed=10)
        a = train(Y, base)
        b = train(Y, smooth)
        assert np.array_equal(a.U[0], b.U[0])
        assert np.array_equal(a.W[0], b.W[0])

    def test_deterministic(self):
        Y = random_ppmi_sequence(12, 3, seed=11)
        cfg = SolverConfig(dim=3, epochs=2, seed=11)
        a = train(Y, cfg)
        b = train(Y, cfg)
        for x, y in zip(a.U + a.W, b.U + b.W):
            assert np.array_equal(x, y)

    def test_rotation_increases_objective(self):
        # With smoothing > 0, rotating one interior slice breaks alignment.
        V, T, d = 10, 3, 3
        Y = random_ppmi_sequence(V, T, seed=12)
        cfg = SolverConfig(dim=d, ridge=1.0, smoothing=5.0, coupling=0.0,
                           epochs=4, seed=12)
        seq = train(Y, cfg)
        base = dense_objective_oracle(seq, Y, cfg)
        theta = 0.7
        R = np.eye(d)
        R[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]]
        rotated = copy.deepcopy(seq)
        rotated.U[1] = rotated.U[1] @ R
        rotated.W[1] = rotated.W[1] @ R
        assert dense_objective_oracle(rotated, Y, cfg) > base

    def test_nan_detection(self):
        Y = random_ppmi_sequence(4, 1, seed=13)
        Y.matrices[0].values.data[:] = np.nan
        cfg = SolverConfig(dim=2, epochs=1, seed=13)
        with pytest.raises(FloatingPointError):
            train(Y, cfg)


def streamed_run(Y, cfg):
    """train with a sink: the factors, then per epoch the ObjectiveTerms
    and the dense terms, both read at the epoch's end."""
    epochs = []

    def sink(event):
        last = (event.t, event.factor) == (len(Y.matrices) - 1, "W")
        assert (event.objective is not None) == last
        if last:
            epochs.append((event.objective,
                           dense_objective_terms(event.state, Y, cfg)))

    seq = train(Y, cfg, progress_sink=sink)
    assert len(epochs) == cfg.epochs
    return seq, epochs


def with_zero_slice(Y, t):
    V = Y.vocab_size
    Y.matrices[t] = PpmiMatrix(values=sp.csr_matrix((V, V)),
                               slice_label=Y.matrices[t].slice_label)
    return Y


class TestStreamedObjective:
    """The objective train streams on each epoch's last event."""

    CASES = {
        "T1": (lambda: random_ppmi_sequence(12, 1, seed=21),
               dict(ridge=1.0, smoothing=3.0, coupling=2.0)),
        "T2": (lambda: random_ppmi_sequence(12, 2, seed=22),
               dict(ridge=1.0, smoothing=3.0, coupling=2.0)),
        "T5": (lambda: random_ppmi_sequence(15, 5, density=0.4, seed=23),
               dict(ridge=0.5, smoothing=4.0, coupling=1.5)),
        "no-coupling-no-smoothing": (
            lambda: random_ppmi_sequence(12, 4, seed=24),
            dict(ridge=2.0, smoothing=0.0, coupling=0.0)),
        "zero-slice": (
            lambda: with_zero_slice(random_ppmi_sequence(12, 4, seed=25), 2),
            dict(ridge=1.0, smoothing=3.0, coupling=2.0)),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request):
        make, settings = self.CASES[request.param]
        cfg = SolverConfig(dim=3, epochs=4, seed=26, **settings)
        return make(), cfg

    def test_total_matches_objective_every_epoch(self, case):
        Y, cfg = case
        _, epochs = streamed_run(Y, cfg)
        for terms, dense in epochs:
            assert terms.total == pytest.approx(sum(dense), rel=1e-12)

    def test_each_term_matches_its_closed_form(self, case):
        Y, cfg = case
        _, epochs = streamed_run(Y, cfg)
        for terms, dense in epochs:
            got = (terms.fit, terms.coupling, terms.ridge, terms.smoothing)
            # A term that is zero (no coupling, no smoothing, T=1) is
            # exactly zero.
            assert got == pytest.approx(dense, rel=1e-12, abs=1e-300)

    def test_sink_leaves_factors_bit_identical(self, case):
        Y, cfg = case
        seq, _ = streamed_run(Y, cfg)
        bare = train(Y, cfg)
        for a, b in zip(seq.U + seq.W, bare.U + bare.W):
            assert np.array_equal(a, b)

    def test_fit_cancellation_near_convergence(self):
        # The streamed fit term is 1/2 (||Y||^2 - 2<Y, U W^T> + <U^T U,
        # W^T W>), whose parts nearly cancel once the factors fit Y. Over 40
        # epochs on a planted corpus the fit falls to about a quarter of
        # ||Y||^2 / 2; measured worst relative error against the dense
        # oracle: fit 1.8e-15, total 5.6e-16.
        corpus = planted_shift_corpus(n_slices=4, community_size=20,
                                      docs_per_slice=80, doc_len=12, halo=3,
                                      seed=27)
        vocab = build_vocabulary(corpus, min_count=1)
        Y = PpmiSequence(
            matrices=[build_ppmi(count_cooccurrences(s, vocab, window=3),
                                 slice_label=lab)
                      for s, lab in zip(corpus.slices, corpus.slice_labels)],
            vocab_size=len(vocab))
        cfg = SolverConfig(dim=8, epochs=40, seed=27)
        _, epochs = streamed_run(Y, cfg)
        half_ynorm2 = 0.5 * sum(float(m.values.power(2).sum())
                                for m in Y.matrices)
        fit_err = max(abs(terms.fit - dense[0]) / dense[0]
                      for terms, dense in epochs)
        total_err = max(abs(terms.total - sum(dense)) / sum(dense)
                        for terms, dense in epochs)
        print(f"fit/(||Y||^2/2) {epochs[-1][0].fit / half_ynorm2:.3f} after "
              f"{cfg.epochs} epochs; worst relative error: fit "
              f"{fit_err:.1e}, total {total_err:.1e}")
        assert fit_err <= 1e-12 and total_err <= 1e-12


class TestFinalEmbedding:
    def make_seq(self):
        U = [np.full((3, 2), 2.0)]
        W = [np.zeros((3, 2))]
        return EmbeddingSequence(U=U, W=W)

    def test_average(self):
        out = final_embedding(self.make_seq())
        assert np.array_equal(out[0], np.ones((3, 2)))

    def test_equal_factors(self):
        seq = self.make_seq()
        seq.W = [seq.U[0].copy()]
        before = seq.U[0].copy()
        out = final_embedding(seq)
        assert np.array_equal(out[0], before)

    def test_in_place_average_is_bit_exact(self):
        # Signed zeros, subnormals and values near the float64 limits, in a
        # C- and an F-ordered factor (the solver's factors are F-ordered).
        tiny = np.finfo(float).smallest_subnormal
        big = np.finfo(float).max
        special = np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, 1e-310,
                            big, -big, 1.0, -1.0, 0.1, 1 / 3])
        rng = np.random.default_rng(4)
        U = [rng.choice(special, size=(12, 12)),
             np.asfortranarray(rng.standard_normal((12, 12)))]
        W = [rng.choice(special, size=(12, 12)),
             rng.choice(special, size=(12, 12))]
        seq = EmbeddingSequence(U=list(U), W=list(W))
        with np.errstate(over="ignore"):  # big + big is inf on both sides
            want = [(u.copy() + w.copy()) / 2.0 for u, w in zip(U, W)]
            out = final_embedding(seq)
        for t in range(2):
            assert out[t] is U[t]
            assert out[t].tobytes() == want[t].tobytes()
        assert seq.W == [None, None]


class TestEmbeddingIO:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        mats = [rng.standard_normal((6, 3)) for _ in range(2)]
        p = tmp_path / "e.tvem"
        write_embeddings_binary(mats, [1990, 1991], p)
        back, labels = read_embeddings_binary(p)
        assert labels == [1990, 1991]
        for a, b in zip(mats, back):
            assert np.array_equal(a, b)
        write_embeddings_binary(back, labels, tmp_path / "e2.tvem")
        assert (tmp_path / "e.tvem").read_bytes() == (
            tmp_path / "e2.tvem"
        ).read_bytes()

    def test_text_format(self, tmp_path):
        mats = [np.array([[1.0, 2.0], [3.0, 0.123456789123]])]
        p = tmp_path / "e.txt"
        write_embeddings_text(mats, [2000], ["cat", "dog"], p)
        lines = p.read_text().splitlines()
        assert lines[0] == "2 1 2"
        assert lines[1].startswith("cat 2000 1 2")
        assert "0.123456789" in lines[2]

    def test_text_bytes_match_per_element_format(self, tmp_path):
        rng = np.random.default_rng(15)
        special = [0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 1.0 / 3.0,
                   -2.0 / 3.0, 0.123456789123, -987654321.5, 1e16, 1e-5,
                   1.7976931348623157e308]
        bits = rng.integers(0, 2**63, size=400, dtype=np.uint64).view(np.float64)
        values = np.concatenate([special, rng.standard_normal(300),
                                 bits[np.isfinite(bits)]])
        d = 7
        values = np.resize(values, (2, len(values) // d + 1, d))
        mats = [values[0], values[1]]
        words = [f"w{i}" for i in range(values.shape[1])]
        p = tmp_path / "e.txt"
        write_embeddings_text(mats, [1990, 1991], words, p)
        lines = [f"{values.shape[1]} 2 {d}\n"]
        for m, label in zip(mats, [1990, 1991]):
            for i, word in enumerate(words):
                coords = " ".join(f"{x:.9g}" for x in m[i])
                lines.append(f"{word} {label} {coords}\n")
        assert p.read_bytes() == "".join(lines).encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(TEXT_VALUES, min_size=1, max_size=64),
           words=st.lists(st.text(max_size=6), min_size=1, max_size=8),
           labels=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3),
           V=st.integers(1, 1100), d=st.integers(1, 4))
    @example(values=[0.1, -2.5e-7], words=["ü"], labels=[-12, 2000],
             V=1029, d=1)
    # 9 digits that round up to the next power of ten
    @example(values=[0.00099999999996, -9.9999999996e-06, 0.099999999996,
                     9.9999999996, 999999999.6], words=["w"], labels=[0],
             V=1, d=5)
    def test_text_bytes_match_the_reference_on_every_branch(
            self, values, words, labels, V, d):
        mats = list(np.resize(np.array(values), (len(labels), V, d)))
        words = [words[i % len(words)] for i in range(V)]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "e.txt"
            write_embeddings_text(mats, labels, words, p)
            got = p.read_bytes()
        lines = [f"{V} {len(labels)} {d}\n"]
        for m, label in zip(mats, labels):
            for i, word in enumerate(words):
                coords = " ".join(f"{x:.9g}" for x in m[i])
                lines.append(f"{word} {label} {coords}\n")
        assert got == "".join(lines).encode("utf-8")

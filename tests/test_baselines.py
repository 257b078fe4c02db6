import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import loop_local_linear_map, random_ppmi_sequence
from tvembed.baselines import (
    align_sequence,
    factorize_single,
    local_linear_maps,
    procrustes_align,
    train_per_slice,
    train_static,
)
from tvembed.corpus import Vocabulary, count_cooccurrences, pool_stats
from tvembed.evaluation import _BLOCK, CosineRows
from tvembed.ppmi import PpmiMatrix, build_ppmi
from tvembed.solver import (SolverConfig, read_embeddings_binary,
                            write_embeddings_binary)


def random_orthogonal(d, rng):
    return scipy.stats.ortho_group.rvs(d, random_state=rng)


class TestFactorizeSingle:
    def test_zero_matrix_shrinks_to_zero(self):
        Y = PpmiMatrix(values=sp.csr_matrix((6, 6)), slice_label=0)
        cfg = SolverConfig(dim=2, ridge=3.0, coupling=0.0, epochs=2, seed=1)
        U = factorize_single(Y, cfg)
        assert np.max(np.abs(U)) <= 1e-12

    def test_planted_factor_recovery(self):
        rng = np.random.default_rng(2)
        V, d = 30, 4
        X = rng.standard_normal((V, d))
        Yd = X @ X.T
        Y = PpmiMatrix(values=sp.csr_matrix(Yd), slice_label=0)
        # Small ridge; the coupling must be nontrivial or U and W drift
        # apart under the scale ambiguity of U W^T and the averaged
        # embedding stops being a symmetric factor.
        cfg = SolverConfig(
            dim=d, ridge=1e-3, coupling=1.0, smoothing=0.0, epochs=50, seed=2
        )
        U = factorize_single(Y, cfg)
        rel = np.linalg.norm(Yd - U @ U.T) / np.linalg.norm(Yd)
        assert rel <= 0.05

    def test_deterministic(self):
        Y = random_ppmi_sequence(8, 1, seed=3).matrices[0]
        cfg = SolverConfig(dim=3, epochs=3, seed=3)
        assert np.array_equal(
            factorize_single(Y, cfg), factorize_single(Y, cfg)
        )


class TestTrainStatic:
    def make_stats(self, seed, n_docs=6):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(6)]
        vocab = Vocabulary(sorted(words))
        docs = [
            [words[i] for i in rng.integers(6, size=12)] for _ in range(n_docs)
        ]
        return count_cooccurrences(docs, vocab, 2)

    def test_single_slice_equals_factorize_single(self):
        stats = self.make_stats(4)
        cfg = SolverConfig(dim=3, epochs=3, seed=4)
        static = train_static([stats], cfg)
        single = factorize_single(build_ppmi(stats), cfg)
        assert np.array_equal(static, single)

    def test_pooling_is_count_level(self):
        # Pooled PPMI differs from the sum of per-slice PPMIs.
        s1 = self.make_stats(5)
        s2 = self.make_stats(6)
        pooled = build_ppmi(pool_stats([s1, s2])).values.toarray()
        summed = (
            build_ppmi(s1).values.toarray() + build_ppmi(s2).values.toarray()
        )
        assert not np.allclose(pooled, summed)


class TestProcrustes:
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_rotation_recovered(self, seed):
        rng = np.random.default_rng(seed)
        source = rng.standard_normal((40, 5))
        R0 = random_orthogonal(5, rng)
        R = procrustes_align(source, source @ R0)
        assert np.linalg.norm(R - R0) <= 1e-8

    def test_identity(self):
        rng = np.random.default_rng(9)
        source = rng.standard_normal((20, 4))
        R = procrustes_align(source, source)
        assert np.linalg.norm(R - np.eye(4)) <= 1e-10

    def test_always_orthogonal(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            A = rng.standard_normal((15, 3))
            B = rng.standard_normal((15, 3))
            R = procrustes_align(A, B)
            assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-8

    def test_residual_never_worse_than_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((12, 3))
            B = rng.standard_normal((12, 3))
            R = procrustes_align(A, B)
            assert np.linalg.norm(A @ R - B) <= np.linalg.norm(A - B) + 1e-12

    def test_reflection_allowed(self):
        rng = np.random.default_rng(12)
        source = rng.standard_normal((30, 3))
        R0 = np.diag([1.0, 1.0, -1.0])  # det -1
        R = procrustes_align(source, source @ R0)
        assert np.linalg.norm(R - R0) <= 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_rank_deficiency_warns(self):
        A = np.zeros((5, 3))
        A[:, 0] = 1.0
        with pytest.warns(UserWarning):
            procrustes_align(A, A)

    def test_returns_the_matrix(self):
        rng = np.random.default_rng(13)
        R = procrustes_align(rng.standard_normal((9, 4)),
                             rng.standard_normal((9, 4)))
        assert type(R) is np.ndarray and R.shape == (4, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_warns_exactly_when_rank_deficient(self, seed):
        # The rank comes from the singular values of the one SVD, with
        # np.linalg.matrix_rank's tolerance: an exactly rank-deficient
        # system warns, a full-rank one does not.
        rng = np.random.default_rng(seed)
        d = (3, 8, 50)[seed % 3]
        A = rng.standard_normal((2 * d, d))
        B = rng.standard_normal((2 * d, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            procrustes_align(A, B)
        A[:, -1] = A[:, 0]
        assert np.linalg.matrix_rank(A.T @ B) < d
        with pytest.warns(UserWarning, match="rank-deficient"):
            procrustes_align(A, B)


class TestAlignSequence:
    def test_single_slice_unchanged(self):
        rng = np.random.default_rng(13)
        U = rng.standard_normal((10, 3))
        out = align_sequence([U])
        assert np.array_equal(out[0], U)

    def test_planted_rotation_chain(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((25, 4))
        mats = [base] + [base @ random_orthogonal(4, rng) for _ in range(4)]
        out = align_sequence(mats)
        for m in out:
            assert np.linalg.norm(m - base) <= 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((25, 4))
        mats = [base @ random_orthogonal(4, rng) for _ in range(4)]
        once = align_sequence(mats)
        twice = align_sequence(once)
        for a, b in zip(once, twice):
            assert np.linalg.norm(a - b) <= 1e-8

    def test_within_slice_cosines_preserved(self):
        rng = np.random.default_rng(16)
        mats = [rng.standard_normal((10, 3)) for _ in range(3)]
        out = align_sequence(mats)
        for raw, aligned in zip(mats, out):
            assert np.allclose(raw @ raw.T, aligned @ aligned.T, atol=1e-10)


@st.composite
def local_map_cases(draw):
    """Slice pairs with exact ties (duplicated and integer-valued rows) and
    zero rows in the source and the target, records whose source is their
    target, and k from 1 to past the candidate count, below and above d."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    integer_valued = draw(st.booleans())
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        if integer_valued:
            m = rng.integers(-2, 3, size=(V, d)).astype(np.float64)
        else:
            m = rng.standard_normal((V, d))
        dup = rng.integers(V, size=draw(st.integers(0, V)))
        m[rng.permutation(V)[: len(dup)]] = m[dup]
        m[rng.integers(V, size=draw(st.integers(0, 3)))] = 0.0
        mats.append(m)
    slices = st.integers(0, len(mats) - 1)
    records = draw(st.lists(
        st.tuples(st.integers(0, V - 1), slices, slices), max_size=20,
    ))
    k = draw(st.integers(1, V + 1))
    return records, dict(enumerate(mats)), k


def _tied_pair():
    """Source rows in three exact-tie groups; rows 2 and 9 are zero in the
    target (row 2 is also a query) and row 5 is zero in the source."""
    base = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    source = base[np.arange(12) % 3] * np.arange(1, 13)[:, None]
    source[5] = 0.0
    target = source @ np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 0.0, 2.0]]) + 0.5
    target[[2, 9]] = 0.0
    return source, target


_SOURCE, _TARGET = _tied_pair()
_PAIR = {"s": _SOURCE, "t": _TARGET}


class TestLocalLinearMaps:
    @given(local_map_cases())
    @example(([(w, "s", "t") for w in (0, 2, 5, 7)], _PAIR, 2))
    @example(([(w, "s", "t") for w in (0, 2, 5, 7)], _PAIR, 3))
    @example(([(w, "s", "s") for w in (0, 2, 5, 7)], _PAIR, 9))
    @example(([(w, "s", "t") for w in (1, 2)], _PAIR, 9))
    @example(([(w, "s", "t") for w in (1, 2)], _PAIR, 10))
    @example(([(4, "s", "t"), (4, "t", "s"), (4, "s", "t")], _PAIR, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, case):
        records, slices, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = local_linear_maps(records, slices, k=k)
            assert len(got) == len(records)
            for (w, source, target), mapped in zip(records, got):
                try:
                    want = loop_local_linear_map(w, slices[source],
                                                 slices[target], k=k)
                except ValueError:
                    assert mapped is None
                else:
                    assert mapped is not None
                    assert np.array_equal(mapped, want)

    def test_matches_loop_oracle_large_slices(self):
        # Paper-sized rows (d=50, k=30 < d) over thousands of words, where
        # the matrix-vector product runs the BLAS library's blocked and
        # threaded paths; queries repeat and revisit earlier positions.
        rng = np.random.default_rng(20)
        mats = [rng.standard_normal((3000, 50)) for _ in range(2)]
        mats[0][rng.integers(3000, size=40)] = 0.0
        mats[1][rng.integers(3000, size=40)] = 0.0
        mats[1][100:110] = mats[1][200:210]
        words = rng.integers(3000, size=40).tolist() + [2999, 0, 2999, 0]
        records = [(w, t % 2, (t // 2) % 2) for t, w in enumerate(words)]
        got = local_linear_maps(records, dict(enumerate(mats)))
        for (w, source, target), mapped in zip(records, got):
            try:
                want = loop_local_linear_map(w, mats[source], mats[target])
            except ValueError:
                assert mapped is None
            else:
                assert np.array_equal(mapped, want)

    def test_pair_past_one_block_matches_loop_oracle(self, monkeypatch):
        # One slice pair with more records than a block, zero rows in both
        # slices and no duplicated row: every neighbour search takes the
        # block path, and only the record whose two nearest neighbours are
        # duplicated rows is searched again by CosineRows.top.
        again = []
        top = CosineRows.top
        monkeypatch.setattr(CosineRows, "top", lambda self, q, k, drop:
                            again.append(drop) or top(self, q, k, drop))
        rng = np.random.default_rng(22)
        source, target = rng.standard_normal((2, 600, 10))
        source[20:30] = 0.0
        target[30:40] = 0.0  # no RuntimeWarning from either
        words = rng.integers(20, 600, size=2 * _BLOCK + 3).tolist()
        records = [(w, "s", "t") for w in words]
        slices = {"s": source, "t": target}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = local_linear_maps(records, slices)
        assert again == []
        for w, mapped in zip(words, got):
            if w < 30:
                assert mapped is None
            else:
                assert np.array_equal(
                    mapped, loop_local_linear_map(w, source, target))
        # Words with a negative cosine with row 3 do not have rows 7 and 8,
        # both along row 3, among their 31 nearest; word 3 has them first.
        source[[7, 8]] = source[3] * [[2.0], [3.0]]
        far = [w for w in words if w >= 30 and source[w] @ source[3] < 0]
        tied = local_linear_maps([(w, "s", "t") for w in far + [3]], slices)
        assert again == [3]
        for w, mapped in zip(far + [3], tied):
            assert np.array_equal(
                mapped, loop_local_linear_map(w, source, target))

    def test_none_for_zero_query_or_too_few_neighbors(self):
        # Row 5 is zero in the source; 8 rows other than row 0 are nonzero
        # in both slices.
        assert local_linear_maps([(5, "s", "t")], _PAIR, k=2) == [None]
        assert local_linear_maps([(0, "s", "t")], _PAIR, k=9) == [None]
        assert local_linear_maps([(0, "s", "t")], _PAIR, k=8)[0] is not None

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            local_linear_maps([(0, "s", "t")], _PAIR, k=0)

    @given(local_map_cases())
    @settings(max_examples=100, deadline=None)
    def test_stored_norms_map_as_computed_norms(self, case):
        # Row norms given by slice label (as a .tvem stores them) give maps
        # bit-equal to norms computed from the slices; a label missing from
        # `norms` has its norms computed.
        records, slices, k = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.tvem"
            write_embeddings_binary(list(slices.values()), list(slices), path)
            _, labels, norms = read_embeddings_binary(path, with_norms=True)
            stored = {lab: n.copy() for lab, n in zip(labels, norms)}
        some = dict(list(stored.items())[:1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = local_linear_maps(records, slices, k=k)
            for norms in (stored, some):
                got = local_linear_maps(records, slices, k=k, norms=norms)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert (a is None and b is None) or np.array_equal(a, b)


class TestLocalLinearMap:
    def test_identity_map(self):
        rng = np.random.default_rng(17)
        source = rng.standard_normal((40, 4))
        (mapped,) = local_linear_maps([(0, 0, 0)], {0: source}, k=10)
        assert np.linalg.norm(mapped - source[0]) <= 1e-8

    def test_planted_linear_map(self):
        rng = np.random.default_rng(18)
        source = rng.standard_normal((40, 4))
        M0 = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        target = source @ M0
        (mapped,) = local_linear_maps([(3, 0, 1)], {0: source, 1: target},
                                      k=10)
        assert np.linalg.norm(mapped - source[3] @ M0) <= 1e-6

    def test_too_few_valid_neighbors(self):
        source = np.zeros((5, 3))
        source[0] = [1.0, 0.0, 0.0]
        source[1] = [0.0, 1.0, 0.0]
        assert local_linear_maps([(0, 0, 0)], {0: source}, k=4) == [None]

    def test_zero_query_vector(self):
        source = np.ones((5, 3))
        source[2] = 0.0
        assert local_linear_maps([(2, 0, 0)], {0: source}, k=2) == [None]


class TestTrainPerSlice:
    def test_slices_are_independent_of_each_other(self):
        Y = random_ppmi_sequence(10, 3, seed=19)
        cfg = SolverConfig(dim=3, epochs=2, seed=19)
        out = train_per_slice(Y, cfg)
        assert len(out) == 3
        # Distinct per-slice seeds: identical data must still give
        # different factors.
        Y_same = random_ppmi_sequence(10, 1, seed=19)
        from tvembed.ppmi import PpmiSequence

        dup = PpmiSequence(
            matrices=[
                type(Y_same.matrices[0])(
                    values=Y_same.matrices[0].values, slice_label=t
                )
                for t in range(2)
            ],
            vocab_size=10,
        )
        two = train_per_slice(dup, cfg)
        assert not np.allclose(two[0], two[1])

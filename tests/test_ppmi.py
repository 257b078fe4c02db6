import math

import scipy.sparse as sp

import numpy as np
import pytest

from tvembed.corpus import SliceStats, Vocabulary, count_cooccurrences
from tvembed.ppmi import (
    PpmiSequence,
    build_ppmi,
    read_ppmi,
    write_ppmi,
)


def pmi_value(count_wc, count_w, count_c, total):
    """Pointwise mutual information log(count_wc * total / (count_w * count_c)).

    Natural log. Returns -inf when count_wc is zero (callers clamp).
    """
    if count_wc > 0 and (count_w <= 0 or count_c <= 0 or total <= 0):
        raise ValueError("marginal counts must be positive when the pair count is")
    if count_wc == 0:
        return -math.inf
    return math.log(count_wc * total / (count_w * count_c))


def dense_ppmi_oracle(stats):
    """Naive double-loop evaluation of PMI with zero clamping."""
    V = len(stats.unigram)
    out = np.zeros((V, V))
    cooc = stats.cooc.toarray()
    for w in range(V):
        for c in range(V):
            pmi = pmi_value(cooc[w, c], stats.unigram[w], stats.unigram[c],
                            stats.total_tokens)
            out[w, c] = max(pmi, 0.0)
    return out


class TestPmiValue:
    def test_toy(self):
        assert pmi_value(3, 2, 2, 4) == pytest.approx(math.log(3), abs=1e-12)

    def test_exactly_zero(self):
        assert pmi_value(1, 2, 2, 4) == 0.0

    def test_zero_count_sentinel(self):
        assert pmi_value(0, 5, 5, 100) == -math.inf

    def test_zero_marginal_error(self):
        with pytest.raises(ValueError):
            pmi_value(3, 0, 2, 4)


class TestBuildPpmi:
    def test_abab_toy(self):
        vocab = Vocabulary(["a", "b"])
        stats = count_cooccurrences([["a", "b", "a", "b"]], vocab, 1)
        mat = build_ppmi(stats).values
        a, b = vocab.index["a"], vocab.index["b"]
        assert mat[a, b] == pytest.approx(math.log(3), abs=1e-12)
        assert mat[a, a] == 0.0
        assert mat[b, b] == 0.0

    def test_all_negative_pmi_empty(self):
        # 3 self co-occurrences with unigram 4 and 4 tokens:
        # PMI = log(3*4/16) < 0, clamped away entirely.
        stats = SliceStats(
            cooc=sp.csr_matrix(np.array([[3]], dtype=np.int64)),
            unigram=np.array([4], dtype=np.int64),
            total_tokens=4,
            window=1,
        )
        assert build_ppmi(stats).values.nnz == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(10)]
        vocab = Vocabulary(sorted(words))
        docs = [
            [words[i] for i in rng.integers(10, size=rng.integers(2, 25))]
            for _ in range(15)
        ]
        stats = count_cooccurrences(docs, vocab, 3)
        mat = build_ppmi(stats).values.toarray()
        oracle = dense_ppmi_oracle(stats)
        assert np.max(np.abs(mat - oracle)) <= 1e-12

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(77)
        words = [f"w{i}" for i in range(9)]
        vocab = Vocabulary(sorted(words))
        docs = [
            [words[i] for i in rng.integers(9, size=20)] for _ in range(10)
        ]
        mat = build_ppmi(count_cooccurrences(docs, vocab, 2)).values
        assert (mat != mat.T).nnz == 0
        assert np.all(mat.data > 0)

    def test_rebuild_is_bit_identical(self):
        vocab = Vocabulary(["a", "b", "c"])
        stats = count_cooccurrences([["a", "b", "c", "a"]], vocab, 2)
        m1 = build_ppmi(stats).values
        m2 = build_ppmi(stats).values
        assert (m1 != m2).nnz == 0
        assert np.array_equal(m1.data, m2.data)


class TestPpmiSequence:
    def test_label_ordering_enforced(self):
        vocab = Vocabulary(["a", "b"])
        stats = count_cooccurrences([["a", "b"]], vocab, 1)
        m1 = build_ppmi(stats, slice_label=5)
        m2 = build_ppmi(stats, slice_label=5)
        with pytest.raises(ValueError):
            PpmiSequence(matrices=[m1, m2], vocab_size=2)


class TestPpmiIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(7)]
        vocab = Vocabulary(sorted(words))
        docs = [[words[i] for i in rng.integers(7, size=30)] for _ in range(6)]
        mat = build_ppmi(count_cooccurrences(docs, vocab, 2), slice_label=1999)
        p = tmp_path / "m.tvpm"
        write_ppmi(mat, p)
        back = read_ppmi(p)
        assert back.slice_label == 1999
        assert (back.values != mat.values).nnz == 0
        assert np.array_equal(back.values.data, mat.values.data)
        write_ppmi(back, tmp_path / "m2.tvpm")
        assert (tmp_path / "m.tvpm").read_bytes() == (
            tmp_path / "m2.tvpm"
        ).read_bytes()

import contextlib
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (coo_build_ppmi, coo_subsample_counts,
                      loop_count_cooccurrences, loop_pool_stats,
                      validate_stats, write_jsonl, write_planted_jsonl)
from tvembed import corpus as corpus_module
from tvembed.artifact import ArtifactError
from tvembed.corpus import (
    EmptyVocabularyError,
    SliceStats,
    TimeSlicedCorpus,
    Vocabulary,
    _Encoder,
    _read_jsonl,
    build_vocabulary,
    count_cooccurrences,
    load_corpus,
    load_stopwords,
    pool_stats,
    read_stats,
    subsample_counts,
    tokenize,
    write_stats,
)
from tvembed.ppmi import build_ppmi


def regex_tokens(text):
    """Independent oracle: the runs of Unicode alphanumerics (underscore
    excluded) of the lowercased text."""
    return re.findall(r"[^\W_]+", text.lower())


def brute_force_cooc(docs, vocab, window):
    """Independent oracle: enumerate all ordered position pairs."""
    V = len(vocab)
    cooc = np.zeros((V, V), dtype=np.int64)
    unigram = np.zeros(V, dtype=np.int64)
    for doc in docs:
        ids = [vocab.index.get(t, -1) for t in doc]
        for i, wi in enumerate(ids):
            if wi >= 0:
                unigram[wi] += 1
            for j, wj in enumerate(ids):
                if i != j and abs(i - j) <= window and wi >= 0 and wj >= 0:
                    cooc[wi, wj] += 1
    return cooc, unigram


def assert_same_csr(got, want):
    """The CSR arrays themselves, dtypes included: the writers store them
    as they are."""
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def assert_same_stats(got, want):
    assert_same_csr(got.cooc, want.cooc)
    assert got.unigram.dtype == want.unigram.dtype
    assert np.array_equal(got.unigram, want.unigram)
    assert got.total_tokens == want.total_tokens
    assert got.window == want.window


@contextlib.contextmanager
def bounded_jsonl(records, bound):
    """The path of a temporary JSON-lines file of the (label, text)
    `records`, read in batches of about `bound` characters."""
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_module, "_BATCH_CHARS", bound)
        path = Path(tmp) / "corpus.jsonl"
        write_jsonl(path, records)
        yield path


def make_corpus(slices, labels=None):
    if labels is None:
        labels = list(range(len(slices)))
    return TimeSlicedCorpus(slices=slices, slice_labels=labels)


class TestTokenize:
    def test_stopword_removal(self):
        assert tokenize("The cat sat.", {"the"}) == ["cat", "sat"]

    def test_empty(self):
        assert tokenize("", set()) == []

    def test_case_folding(self):
        assert tokenize("Apple APPLE apple", set()) == ["apple"] * 3

    def test_numeric_tokens_dropped(self):
        assert tokenize("in 1991 there were 3 things", set()) == [
            "in",
            "there",
            "were",
            "things",
        ]

    def test_punctuation_stripped(self):
        assert tokenize("don't stop-me now!", set()) == [
            "don",
            "t",
            "stop",
            "me",
            "now",
        ]

    # Letters, digits and whitespace of several kinds, plus characters on
    # which a whitespace split and the regex could disagree: the underscore,
    # letters whose lowercase form changes length or adds a combining mark,
    # non-ASCII digits and numerics, and bare combining marks.
    ALPHABET = (list("abzAZ09") + ["\t", " ", "\n", "\x1c", "\x1d", "\x1e",
                                   "\x1f", "\u00a0", "\u2028"]
                + ["_", "\u0130", "\u00df", "\u03a3", "\u0663", "\u0669",
                   "\u00b2", "\u00bd", "\u0301", "\u0307", "-", "'"])

    # The text may hold NUL, which TestBatchTokenize's alphabet (defined
    # below) adds.
    @given(text=st.deferred(lambda: st.text(
               alphabet=st.sampled_from(TestBatchTokenize.ALPHABET),
               max_size=40)),
           stopwords=st.frozensets(st.text(alphabet=st.sampled_from(ALPHABET),
                                           min_size=1, max_size=2)))
    @example(text="Plain words only 42", stopwords=frozenset({"only"}))
    @example(text="snake_case \u0130stanbul", stopwords=frozenset())
    @example(text="x\u00a0y\u2028z\x1c\u00bd \u00b2", stopwords=frozenset())
    @example(text="a\x00b \u03a3\x00\u03a3", stopwords=frozenset())
    @settings(max_examples=500, deadline=None)
    def test_matches_regex(self, text, stopwords):
        want = [t for t in regex_tokens(text)
                if t not in stopwords and not t.isdigit()]
        assert tokenize(text, stopwords) == want


class TestTimeSlicedCorpus:
    def test_token_lists_encode_and_decode(self):
        slices = [[["b", "a"], [], ["a"]], [], [["c"]]]
        corpus = make_corpus(slices)
        assert [s.documents() for s in corpus.slices] == slices
        assert [len(s.lengths) for s in corpus.slices] == [3, 0, 1]
        assert all(s.ids.dtype == np.int32 for s in corpus.slices)
        assert all(s.types is corpus.slices[0].types for s in corpus.slices)

    def test_separator_token_rejected(self):
        # A batch of raw text uses "\x00" as its document separator; the
        # tokenizer never yields it, so a caller's token lists may not hold it.
        with pytest.raises(ValueError, match="reserved"):
            make_corpus([[["\x00", "a"]]])

    def test_slices_of_two_type_tables_rejected(self):
        a = make_corpus([[["a"]]]).slices[0]
        b = make_corpus([[["b"]]]).slices[0]
        with pytest.raises(ValueError):
            TimeSlicedCorpus(slices=[a, b], slice_labels=[0, 1])


class TestBuildVocabulary:
    def test_threshold(self):
        corpus = make_corpus([[["a"] * 5 + ["b"] * 2]])
        vocab = build_vocabulary(corpus, min_count=3)
        assert vocab.words == ["a"]

    def test_lexicographic_tie_break(self):
        corpus = make_corpus([[["b"] * 5 + ["a"] * 5]])
        vocab = build_vocabulary(corpus, min_count=1)
        assert vocab.words == ["a", "b"]

    def test_count_ordering(self):
        corpus = make_corpus([[["z"] * 9, ["a"] * 2]])
        assert build_vocabulary(corpus, 1).words == ["z", "a"]

    def test_total_across_slices(self):
        # 2 + 2 occurrences of "a" across slices pass min_count=3.
        corpus = make_corpus([[["a", "a"]], [["a", "a"]]])
        assert build_vocabulary(corpus, 3).words == ["a"]

    def test_empty_vocabulary_error(self):
        corpus = make_corpus([[["a"]]])
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary(corpus, min_count=2)


class TestCountCooccurrences:
    def test_abab_window1(self):
        vocab = Vocabulary(["a", "b"])
        stats = count_cooccurrences([["a", "b", "a", "b"]], vocab, window=1)
        a, b = vocab.index["a"], vocab.index["b"]
        assert stats.cooc[a, b] == 3
        assert stats.cooc[b, a] == 3
        assert stats.unigram.tolist() == [2, 2]
        assert stats.total_tokens == 4

    def test_single_token(self):
        vocab = Vocabulary(["a"])
        stats = count_cooccurrences([["a"]], vocab, window=5)
        assert stats.cooc.nnz == 0
        assert stats.unigram[0] == 1

    def test_abc_window2(self):
        vocab = Vocabulary(["a", "b", "c"])
        stats = count_cooccurrences([["a", "b", "c"]], vocab, window=2)
        i = vocab.index
        assert stats.cooc[i["a"], i["c"]] == 1
        assert stats.cooc[i["c"], i["a"]] == 1
        assert stats.cooc[i["a"], i["b"]] == 1
        assert stats.cooc[i["b"], i["c"]] == 1

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_matches_brute_force(self, window):
        rng = np.random.default_rng(42 + window)
        words = [f"w{i}" for i in range(8)]
        vocab = Vocabulary(sorted(words))
        docs = [
            [words[i] for i in rng.integers(8, size=rng.integers(1, 15))]
            for _ in range(20)
        ]
        stats = count_cooccurrences(docs, vocab, window)
        cooc, unigram = brute_force_cooc(docs, vocab, window)
        assert np.array_equal(stats.cooc.toarray(), cooc)
        assert np.array_equal(stats.unigram, unigram)
        validate_stats(stats)
        want = loop_count_cooccurrences(docs, vocab, window).cooc
        assert_same_csr(stats.cooc, want)

    def test_int64_keys_past_int32_vocabulary(self):
        # From V = 46341 on, V*V no longer fits in int32, so the keys of the
        # last words need int64.
        words = [f"w{i}" for i in range(46341)]
        vocab = Vocabulary(words)
        docs = [words[-3:] + words[:2] + words[-1:], words[-2:]]
        got = count_cooccurrences(docs, vocab, 3).cooc
        want = loop_count_cooccurrences(docs, vocab, 3).cooc
        assert got.nnz == want.nnz > 0
        assert_same_csr(got, want)

    def test_oov_tokens_keep_positions(self):
        # "x" is out of vocabulary but separates a and b beyond window 1.
        vocab = Vocabulary(["a", "b"])
        stats = count_cooccurrences([["a", "x", "b"]], vocab, window=1)
        assert stats.cooc.nnz == 0
        assert stats.total_tokens == 2

    def test_windows_do_not_cross_documents(self):
        vocab = Vocabulary(["a", "b"])
        split = count_cooccurrences([["a"], ["b"]], vocab, window=5)
        joined = count_cooccurrences([["a", "b"]], vocab, window=5)
        assert split.cooc.nnz == 0
        assert joined.cooc.nnz == 2

    def test_document_order_irrelevant(self):
        vocab = Vocabulary(["a", "b", "c"])
        docs = [["a", "b"], ["c", "a", "c"], ["b"]]
        s1 = count_cooccurrences(docs, vocab, 2)
        s2 = count_cooccurrences(docs[::-1], vocab, 2)
        assert (s1.cooc != s2.cooc).nnz == 0
        assert np.array_equal(s1.unigram, s2.unigram)

    def test_monotone_in_window(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(6)]
        vocab = Vocabulary(sorted(words))
        docs = [
            [words[i] for i in rng.integers(6, size=10)] for _ in range(10)
        ]
        prev = count_cooccurrences(docs, vocab, 1).cooc.toarray()
        for window in (2, 3, 5):
            cur = count_cooccurrences(docs, vocab, window).cooc.toarray()
            assert np.all(cur >= prev)
            prev = cur

    def test_window_past_the_longest_document(self):
        # No pair lies farther apart than a document's length - 1, so a
        # window of 4000 over two five-token documents counts what a window
        # of 4 does, with memory for that window, not for 4000 gap
        # positions per document and 4000 offset masks.
        vocab = Vocabulary(["a", "b", "c"])
        docs = [["a", "b", "c", "a", "b"], ["c", "c", "a", "x", "b"]]
        tracemalloc.start()
        try:
            stats = count_cooccurrences(docs, vocab, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**17
        assert stats.window == 4000
        assert_same_csr(stats.cooc,
                        count_cooccurrences(docs, vocab, 4).cooc)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(10)]
        vocab = Vocabulary(sorted(words))
        docs = [
            [words[i] for i in rng.integers(10, size=30)] for _ in range(5)
        ]
        stats = count_cooccurrences(docs, vocab, 3)
        assert (stats.cooc != stats.cooc.T).nnz == 0


    @given(
        words=st.lists(st.sampled_from("abcdef"), unique=True, max_size=6),
        docs=st.lists(
            st.lists(st.sampled_from(list("abcdefxy")), max_size=14), max_size=8
        ),
        window=st.integers(min_value=1, max_value=6),
    )
    @example(words=["a", "b"], docs=[], window=3)  # empty slice
    @example(words=["a", "b"], docs=[[], ["a", "b"], []], window=2)  # empty docs
    @example(words=["a", "b"], docs=[["a", "b"], ["b"]], window=6)  # short docs
    @example(words=["a", "b"], docs=[["x", "y", "x"], ["a"]], window=1)  # all OOV
    @example(words=[], docs=[["a", "b"]], window=2)  # empty vocabulary
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, words, docs, window):
        vocab = Vocabulary(words)
        got = count_cooccurrences(docs, vocab, window)
        want = loop_count_cooccurrences(docs, vocab, window)
        assert got.cooc.shape == want.cooc.shape
        assert_same_stats(got, want)


class TestSubsampleCounts:
    def toy_stats(self):
        vocab = Vocabulary(["a", "b", "c"])
        docs = [["a", "b", "c", "a", "b"] * 4 for _ in range(5)]
        return count_cooccurrences(docs, vocab, 2)

    def test_rate_one_is_identity(self):
        stats = self.toy_stats()
        out = subsample_counts(stats, 1.0, rng_seed=5)
        assert (out.cooc != stats.cooc).nnz == 0
        assert np.array_equal(out.unigram, stats.unigram)
        assert out.total_tokens == stats.total_tokens

    def test_invalid_rates(self):
        stats = self.toy_stats()
        for r in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                subsample_counts(stats, r, rng_seed=0)

    def test_binomial_mean(self):
        # C=1000 at r=0.01: mean over 100 seeds within 10 +- 3*sigma/10,
        # sigma = sqrt(1000 * 0.01 * 0.99) ~ 3.15 -> bound ~ [9.06, 10.94];
        # the stated acceptance interval [7, 13] is wider still.
        cooc = sp.csr_matrix(np.array([[0, 1000], [1000, 0]], dtype=np.int64))
        stats = SliceStats(
            cooc=cooc,
            unigram=np.array([1000, 1000], dtype=np.int64),
            total_tokens=2000,
            window=1,
        )
        draws = [
            subsample_counts(stats, 0.01, rng_seed=s).cooc[0, 1]
            for s in range(100)
        ]
        assert 7 <= np.mean(draws) <= 13

    def test_symmetry_preserved(self):
        stats = self.toy_stats()
        out = subsample_counts(stats, 0.3, rng_seed=11)
        assert (out.cooc != out.cooc.T).nnz == 0

    def test_deterministic(self):
        stats = self.toy_stats()
        a = subsample_counts(stats, 0.5, rng_seed=9)
        b = subsample_counts(stats, 0.5, rng_seed=9)
        assert (a.cooc != b.cooc).nnz == 0
        assert np.array_equal(a.unigram, b.unigram)
        assert a.total_tokens == b.total_tokens

    def test_unigram_floor(self):
        # Tiny rate: any surviving co-occurrence keeps its words' unigram
        # counts at >= 1.
        cooc = sp.csr_matrix(np.array([[0, 5], [5, 0]], dtype=np.int64))
        stats = SliceStats(
            cooc=cooc,
            unigram=np.array([5, 5], dtype=np.int64),
            total_tokens=10,
            window=1,
        )
        for seed in range(50):
            out = subsample_counts(stats, 0.05, rng_seed=seed)
            rows = np.asarray(out.cooc.sum(axis=1)).ravel()
            assert np.all(out.unigram[rows > 0] >= 1)
            validate_stats(out)


class TestStatsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        vocab = Vocabulary([f"w{i}" for i in range(12)])
        rng = np.random.default_rng(2)
        docs = [
            [f"w{i}" for i in rng.integers(12, size=40)] for _ in range(8)
        ]
        stats = count_cooccurrences(docs, vocab, 3)
        p = tmp_path / "s.tvco"
        write_stats(stats, p)
        back = read_stats(p)
        assert (back.cooc != stats.cooc).nnz == 0
        assert np.array_equal(back.unigram, stats.unigram)
        assert back.total_tokens == stats.total_tokens
        assert back.window == stats.window
        write_stats(back, tmp_path / "s2.tvco")
        assert (tmp_path / "s.tvco").read_bytes() == (
            tmp_path / "s2.tvco"
        ).read_bytes()

    @pytest.mark.parametrize("window", [-1, 2**32])
    def test_window_outside_header_range(self, tmp_path, window):
        stats = SliceStats(cooc=sp.csr_matrix((2, 2), dtype=np.int64),
                           unigram=np.zeros(2, dtype=np.int64),
                           total_tokens=0, window=window)
        p = tmp_path / "s.tvco"
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            write_stats(stats, p)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dense,unigram,word", [
        ([[0, 2], [0, 0]], [0, 1], 0),  # a row's word
        ([[0, 2], [0, 0]], [1, 0], 1),  # a column's word
        ([[0, 0], [0, 3]], [4, 0], 1),  # a diagonal count
        ([[0, 0, 0], [0, 0, 0], [5, 0, 0]], [1, 1, 0], 2),  # after empty rows
    ])
    def test_count_of_an_uncounted_word(self, tmp_path, dense, unigram, word):
        # Damaged files can hold counts that are not symmetric.
        unigram = np.array(unigram, dtype=np.int64)
        p = tmp_path / "s.tvco"
        write_stats(SliceStats(cooc=sp.csr_matrix(np.array(dense)),
                               unigram=unigram,
                               total_tokens=int(unigram.sum()), window=1), p)
        with pytest.raises(ArtifactError, match=(
                f"word {word} has co-occurrence counts but a unigram count "
                "of 0")):
            read_stats(p)

    def test_stored_zero_count_needs_no_unigram(self, tmp_path):
        cooc = sp.csr_matrix((np.array([0, 5]), np.array([1, 1]),
                              np.array([0, 1, 2])), shape=(2, 2))
        p = tmp_path / "s.tvco"
        write_stats(SliceStats(cooc=cooc, unigram=np.array([0, 3]),
                               total_tokens=3, window=1), p)
        assert read_stats(p).cooc.nnz == 2

    @pytest.mark.parametrize("dense", [
        [[0, 2], [3, 0]],  # two values of one pair
        [[0, 2], [0, 0]],  # a value without its mirror
    ])
    def test_counts_must_be_symmetric(self, tmp_path, dense):
        p = tmp_path / "s.tvco"
        write_stats(SliceStats(cooc=sp.csr_matrix(np.array(dense)),
                               unigram=np.array([1, 1]), total_tokens=2,
                               window=1), p)
        with pytest.raises(ArtifactError, match=(
                f"{p}: co-occurrence counts are not symmetric")):
            read_stats(p)

    def test_total_is_the_exact_unigram_sum(self, tmp_path):
        # Four counts of 2**62 sum to 2**64, which is 0 in int64 and u64.
        p = tmp_path / "s.tvco"
        write_stats(SliceStats(cooc=sp.csr_matrix((4, 4), dtype=np.int64),
                               unigram=np.full(4, 2**62, dtype=np.int64),
                               total_tokens=0, window=1), p)
        with pytest.raises(ArtifactError, match=(
                f"total_tokens 0 is not the sum of the unigram counts, "
                f"{2**64}")):
            read_stats(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            read_stats(p)


class TestPoolStats:
    def test_pooling_sums_counts(self):
        vocab = Vocabulary(["a", "b"])
        s1 = count_cooccurrences([["a", "b"]], vocab, 1)
        s2 = count_cooccurrences([["b", "a", "b"]], vocab, 1)
        pooled = pool_stats([s1, s2])
        assert pooled.total_tokens == s1.total_tokens + s2.total_tokens
        assert np.array_equal(pooled.unigram, s1.unigram + s2.unigram)
        assert (pooled.cooc != (s1.cooc + s2.cooc)).nnz == 0


@st.composite
def symmetric_stats(draw, V):
    """SliceStats with random symmetric int64 counts over V words: diagonal
    entries and empty rows included, unigram counts that may be 0 and a
    total that is the unigram sum or 0."""
    dense = np.zeros((V, V), dtype=np.int64)
    for i, j, c in draw(st.lists(st.tuples(
            st.integers(0, V - 1), st.integers(0, V - 1),
            st.integers(1, 2**40)), max_size=3 * V)):
        dense[min(i, j), max(i, j)] = c
    unigram = np.array(draw(st.lists(st.integers(0, 2**40), min_size=V,
                                     max_size=V)), dtype=np.int64)
    return SliceStats(cooc=sp.csr_matrix(dense + np.triu(dense, k=1).T),
                      unigram=unigram,
                      total_tokens=draw(st.sampled_from(
                          [int(unigram.sum()), 0])),
                      window=draw(st.integers(1, 10)))


class TestCountLayerMatchesCooReference:
    """build_ppmi, subsample_counts and pool_stats give the CSR arrays, with
    their dtypes, of the earlier COO and copy-loop code kept in conftest:
    the same draws in the same order, not only the same distribution."""

    @given(data=st.data(), V=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_build_ppmi(self, data, V):
        stats = data.draw(symmetric_stats(V))
        with np.errstate(divide="ignore", invalid="ignore"):
            got = build_ppmi(stats, slice_label=3).values
            want = coo_build_ppmi(stats, slice_label=3).values
        assert_same_csr(got, want)

    @given(data=st.data(), V=st.integers(1, 8),
           rate=st.one_of(st.just(1e-12), st.just(1.0),
                          st.floats(1e-3, 1.0)),
           seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_subsample_counts(self, data, V, rate, seed):
        # A rate of 1e-12 draws every count to 0.
        stats = data.draw(symmetric_stats(V))
        assert_same_stats(subsample_counts(stats, rate, seed),
                          coo_subsample_counts(stats, rate, seed))

    @given(data=st.data(), V=st.integers(1, 8), n=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_pool_stats(self, data, V, n):
        stats = [data.draw(symmetric_stats(V)) for _ in range(n)]
        assert_same_stats(pool_stats(stats), loop_pool_stats(stats))


class TestLoadCorpus:
    def test_directory_layout(self, tmp_path):
        for year, text in [(1990, "alpha beta"), (1995, "beta gamma beta")]:
            d = tmp_path / str(year)
            d.mkdir()
            (d / "doc1.txt").write_text(text)
        corpus = load_corpus(tmp_path)
        assert corpus.slice_labels == [1990, 1995]
        assert corpus.slices[0].documents() == [["alpha", "beta"]]

    def test_jsonl_layout(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"label": 2001, "text": "The dog."}\n'
            '{"label": 2000, "text": "A cat!"}\n'
        )
        corpus = load_corpus(p)
        assert corpus.slice_labels == [2000, 2001]
        assert corpus.slices[1].documents() == [["the", "dog"]]

    def test_dropped_tokens_leave_the_type_table(self, tmp_path):
        (tmp_path / "1").mkdir()
        (tmp_path / "1" / "d.txt").write_text("The 1991 cat, the dog")
        corpus = load_corpus(tmp_path, stopwords=frozenset({"the"}))
        assert corpus.slices[0].documents() == [["cat", "dog"]]
        assert corpus.slices[0].types == ["cat", "dog"]

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope")

    @staticmethod
    def assert_one_copy_of_the_ids(path, stopwords=frozenset()):
        # The token ids are collected once and handed to the slices without
        # a copy. SLACK_FRACTION covers the id arrays' growth as they fill;
        # SLACK the type table and the batch being tokenized.
        SLACK_FRACTION, SLACK = 1 / 8, 2**19
        tracemalloc.start()
        try:
            loaded = load_corpus(path, stopwords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ids = sum(s.ids.nbytes + s.lengths.nbytes for s in loaded.slices)
        assert peak <= (1 + SLACK_FRACTION) * ids + SLACK

    def test_peak_memory_one_copy_of_the_ids(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_planted_jsonl(path)
        self.assert_one_copy_of_the_ids(path)

    def test_peak_memory_with_a_stopword(self, tmp_path):
        # The probe word's tokens are dropped as each batch is encoded, with
        # no temporary of a slice's length.
        path = tmp_path / "corpus.jsonl"
        write_planted_jsonl(path)
        assert " probeword " in path.read_text()
        self.assert_one_copy_of_the_ids(path, frozenset({"probeword"}))

    def test_peak_memory_when_most_tokens_are_numbers(self, tmp_path):
        # News text is full of years. A dropped token is dropped as its
        # batch is encoded, so it never takes a place in the id arrays.
        rng = np.random.default_rng(9)
        words = np.array([f"w{i}" for i in range(500)] + [
            str(year) for year in range(1990, 2020)])
        records = []
        for i in range(4000):
            # 20 words and 180 years a record.
            ids = np.concatenate([rng.integers(500, size=20),
                                  rng.integers(500, 530, size=180)])
            records.append((i % 4, " ".join(words[rng.permutation(ids)])))
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records)
        self.assert_one_copy_of_the_ids(path)

    def test_stopword_line_endings(self, tmp_path):
        # Lines end at "\n", "\r\n" or "\r"; other Unicode line breaks
        # such as U+0085 stay inside a stopword.
        p = tmp_path / "stop.txt"
        p.write_bytes("a\r\nb\rc\n\n  d\u0085e \r".encode("utf-8"))
        assert load_stopwords(p) == frozenset({"a", "b", "c", "d\u0085e"})


class TestBatchTokenize:
    """Records are tokenized a batch of documents at a time; each document
    must get the tokens `regex_tokens` gives it alone."""

    # TestTokenize's characters and NUL, which a batch holds as its
    # separator; "\u03a3" among them takes its final form at a word's end.
    # Half the texts use only the characters a batch can keep whole, so
    # that batches of many documents are tokenized together.
    ALPHABET = TestTokenize.ALPHABET + ["\x00"]
    TEXTS = st.one_of(*(
        st.text(alphabet=st.sampled_from(chars), max_size=12)
        for chars in (ALPHABET, [c for c in ALPHABET
                                 if c.isspace() or c.lower().isalnum()])))

    def test_punctuated_batch_is_tokenized_whole(self, tmp_path,
                                                 monkeypatch):
        # Prose has punctuation in nearly every record, and a document may
        # hold a NUL of its own; either way each label's batch is tokenized
        # in one call, not one document at a time.
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [(i % 2, text) for i, text in enumerate(
            ["Hello, world.", "It's", "", "a-b_c", "x\x00y\u03a3"])])
        tokens, calls = corpus_module._tokens, []
        monkeypatch.setattr(corpus_module, "_tokens",
                            lambda text: calls.append(text) or tokens(text))
        enc = _Encoder()
        slices = enc.slices(_read_jsonl(path, enc))
        assert [s.documents() for s in slices] == [
            [["hello", "world"], [], ["x", "y\u03c2"]],
            [["it", "s"], ["a", "b", "c"]]]
        assert len(calls) == 2

    @given(records=st.lists(st.tuples(st.integers(0, 3), TEXTS), min_size=1,
                            max_size=30),
           bound=st.integers(0, 48), by_label=st.booleans())
    @example(records=[(0, "a\u03a3"), (0, "\u03a3b"), (0, "a\u03a3 c")],
             bound=100, by_label=False)
    @example(records=[(1, "x"), (0, "a\x00b"), (1, "y z")], bound=100,
             by_label=False)
    @example(records=[(0, ""), (0, " "), (0, "\x1c")], bound=0,
             by_label=False)
    @settings(max_examples=300, deadline=None)
    def test_matches_documents_one_at_a_time(self, records, bound, by_label):
        if by_label:
            records.sort(key=lambda r: r[0])
        with bounded_jsonl(records, bound) as path:
            enc = _Encoder()
            labels = _read_jsonl(path, enc)
            slices = enc.slices(labels)
        for label, got in zip(labels, slices):
            want = [regex_tokens(text) for lab, text in records
                    if lab == label]
            assert got.documents() == want
            assert got.ids.dtype == np.int32 and got.lengths.dtype == np.int64
        if by_label:
            assert slices[0].types == list(dict.fromkeys(
                token for _, text in records
                for token in regex_tokens(text)))

    @given(records=st.lists(st.tuples(st.integers(0, 3), TEXTS), min_size=1,
                            max_size=30),
           stopwords=st.frozensets(st.text(
               alphabet=st.sampled_from(TestTokenize.ALPHABET), min_size=1,
               max_size=2)),
           bound=st.integers(0, 48))
    @example(records=[(1, "The 1991 cat,"), (0, "1990"), (1, "the dog 7."),
                      (0, "a \u0663 b")],
             stopwords=frozenset({"the", "b"}), bound=8)
    @settings(max_examples=200, deadline=None)
    def test_load_corpus_drops_stopwords_and_numbers(self, records, stopwords,
                                                     bound):
        # Labels interleave, so each batch holds several labels' documents.
        with bounded_jsonl(records, bound) as path:
            corpus = load_corpus(path, stopwords)
        want = {label: [[t for t in regex_tokens(text)
                         if t not in stopwords and not t.isdigit()]
                        for lab, text in records if lab == label]
                for label in corpus.slice_labels}
        assert corpus.slice_labels == sorted(want)
        assert [s.documents() for s in corpus.slices] == list(want.values())
        # A dropped type takes no id either.
        assert sorted(corpus.slices[0].types) == sorted(
            {t for docs in want.values() for doc in docs for t in doc})


class TestOneIdPath:
    """Token lists (TimeSlicedCorpus) and raw text (load_corpus) become ids
    in one place, so the same documents give the same TokenIds either way."""

    # TestBatchTokenize's texts, mostly non-ASCII, and ASCII texts with and
    # without punctuation.
    TEXTS = st.one_of(TestBatchTokenize.TEXTS, *(
        st.text(alphabet=st.sampled_from(chars), max_size=12)
        for chars in ("abZ09 \t\n", "abZ09 \t\n,.'-_")))

    @given(records=st.lists(st.tuples(st.integers(0, 3), TEXTS), min_size=1,
                            max_size=30),
           bound=st.integers(0, 48))
    @example(records=[(0, "plain ascii 42"), (0, "Hello, world."),
                      (1, "wé0042 wè7"),
                      (1, "wé0042, und so."), (3, "")], bound=8)
    @settings(max_examples=200, deadline=None)
    def test_token_lists_and_jsonl_give_equal_ids(self, records, bound):
        # Sorted by label, the records are seen in the order the token
        # lists are, so the types are numbered alike.
        records.sort(key=lambda r: r[0])
        with bounded_jsonl(records, bound) as path:
            loaded = load_corpus(path)
        labels = loaded.slice_labels
        lists = make_corpus(
            [[[t for t in regex_tokens(text) if not t.isdigit()]
              for lab, text in records if lab == label] for label in labels],
            labels)
        for got, want in zip(loaded.slices, lists.slices):
            assert got.ids.dtype == want.ids.dtype == np.int32
            assert got.lengths.dtype == want.lengths.dtype == np.int64
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.lengths, want.lengths)
            assert got.types == want.types

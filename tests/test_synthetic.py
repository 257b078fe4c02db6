import numpy as np
import pytest

from tvembed.corpus import build_vocabulary, count_cooccurrences
from tvembed.synthetic import identity_testset, planted_shift_corpus


@pytest.fixture(scope="module")
def corpus():
    return planted_shift_corpus(n_slices=4, community_size=20,
                                docs_per_slice=120, doc_len=10, seed=7)


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocabulary(corpus, min_count=1)


class TestPlantedShiftCorpus:
    def test_shape_and_labels(self, corpus):
        assert len(corpus.slices) == 4
        assert corpus.slice_labels == [0, 1, 2, 3]
        assert all(len(s) == 120 for s in corpus.slices)
        assert all(len(d) == 10 for s in corpus.slices for d in s.documents())

    def test_deterministic(self, corpus):
        again = planted_shift_corpus(n_slices=4, community_size=20,
                                     docs_per_slice=120, doc_len=10, seed=7)
        assert ([s.documents() for s in again.slices]
                == [s.documents() for s in corpus.slices])

    def test_vocab_is_two_communities_plus_probe(self, vocab):
        assert "probeword" in vocab
        assert sum(w.startswith("alpha") for w in vocab.words) == 20
        assert sum(w.startswith("beta") for w in vocab.words) == 20

    def test_communities_never_cooccur(self, corpus, vocab):
        for t in range(4):
            stats = count_cooccurrences(corpus.slices[t], vocab, window=5)
            coo = stats.cooc.tocoo()
            for i, j in zip(coo.row, coo.col):
                a, b = vocab.words[i], vocab.words[j]
                if "probeword" in (a, b):
                    continue
                assert a[0] == b[0], f"cross-community pair {a},{b} at t={t}"

    def test_probe_switches_community(self, corpus, vocab):
        p = vocab.index["probeword"]

        def neighbor_prefixes(t):
            stats = count_cooccurrences(corpus.slices[t], vocab, window=5)
            row = stats.cooc.getrow(p).tocoo()
            return {vocab.words[j].rstrip("0123456789") for j in row.col
                    if j != p}

        assert neighbor_prefixes(0) == {"alpha"}
        assert neighbor_prefixes(3) == {"beta"}

    def test_non_probe_words_stay_on_their_arc(self, corpus, vocab):
        """A ring word co-occurs only with words within 2*halo ring steps."""
        w = vocab.index["alpha010"]
        for t in range(4):
            stats = count_cooccurrences(corpus.slices[t], vocab, window=5)
            row = stats.cooc.getrow(w).tocoo()
            for j in row.col:
                name = vocab.words[j]
                if name == "probeword":
                    continue
                i = int(name[5:])
                assert min((i - 10) % 20, (10 - i) % 20) <= 6


class TestIdentityTestset:
    def test_records_respect_gap_and_exclude_probe(self, corpus, vocab):
        ts = identity_testset(vocab, corpus.slice_labels, min_gap=2,
                              max_records=50, seed=1)
        assert len(ts.records) == 50
        probe_idx = vocab.index["probeword"]
        for q, a, b, ans in ts.records:
            assert q == ans != probe_idx
            assert abs(a - b) >= 2
            assert a in corpus.slice_labels and b in corpus.slice_labels

    def test_deterministic(self, corpus, vocab):
        ts1 = identity_testset(vocab, corpus.slice_labels, seed=5)
        ts2 = identity_testset(vocab, corpus.slice_labels, seed=5)
        assert ts1.records == ts2.records

"""Corpus ingestion: tokenization, vocabulary, per-slice co-occurrence counts."""

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from tvembed.artifact import ArtifactReader, triplet_parts, write_artifact

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

STATS_MAGIC = b"TVCO"
STATS_VERSION = 1


class EmptyVocabularyError(ValueError):
    """No word survived the minimum-count filter."""


class CorpusFormatError(ValueError):
    """The corpus on disk does not follow either supported layout."""


def tokenize(text, stopwords=frozenset()):
    """Split raw text into lowercase tokens.

    Token boundaries are runs of Unicode alphanumerics (underscore excluded).
    Stopwords and purely numeric tokens are dropped. Empty text yields an
    empty list.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return [t for t in tokens if t not in stopwords and not t.isdigit()]


@dataclass
class TimeSlicedCorpus:
    """Ordered collection of tokenized document slices.

    slices[t] is a list of documents, each a list of lowercase tokens;
    slice_labels[t] is the integer label (e.g. a year) of slice t.
    """

    slices: list
    slice_labels: list

    def __post_init__(self):
        if len(self.slices) != len(self.slice_labels):
            raise ValueError("slices and slice_labels must have equal length")
        if not self.slices:
            raise ValueError("corpus must contain at least one slice")
        labels = list(self.slice_labels)
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValueError("slice_labels must be strictly increasing")

    @property
    def num_slices(self):
        return len(self.slices)


@dataclass
class Vocabulary:
    """Dense word <-> index bijection shared by all time slices."""

    words: list
    index: dict = field(default=None)

    def __post_init__(self):
        if self.index is None:
            self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ValueError("duplicate words in vocabulary")

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.index


def build_vocabulary(corpus, min_count=1):
    """Collect every word with total count across all slices >= min_count.

    Words are ordered by descending total count, ties broken
    lexicographically, so indices are stable across runs.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = {}
    for docs in corpus.slices:
        for doc in docs:
            for tok in doc:
                counts[tok] = counts.get(tok, 0) + 1
    kept = [w for w, c in counts.items() if c >= min_count]
    if not kept:
        raise EmptyVocabularyError(
            f"no word reaches min_count={min_count} (corpus has "
            f"{len(counts)} distinct words)"
        )
    kept.sort(key=lambda w: (-counts[w], w))
    return Vocabulary(kept)


@dataclass
class SliceStats:
    """Co-occurrence statistics of one time slice.

    cooc is a symmetric sparse V x V integer matrix of windowed pair counts,
    unigram the per-word token counts, total_tokens the slice token total,
    window the half-window size used for counting.
    """

    cooc: sp.csr_matrix
    unigram: np.ndarray
    total_tokens: int
    window: int

    def validate(self):
        if (self.cooc != self.cooc.T).nnz != 0:
            raise ValueError("cooc matrix is not symmetric")
        if self.unigram.min(initial=0) < 0:
            raise ValueError("negative unigram count")
        rows, cols = self.cooc.nonzero()
        if len(rows) and (
            np.any(self.unigram[rows] == 0) or np.any(self.unigram[cols] == 0)
        ):
            raise ValueError("co-occurrence involves a word with zero unigram count")


def count_cooccurrences(docs, vocab, window):
    """Count windowed co-occurrences of one slice against a fixed vocabulary.

    Every ordered position pair (i, j) with 0 < |i - j| <= window and both
    tokens in the vocabulary increments cooc[w_i, w_j] by one, which makes
    the matrix symmetric by construction. Windows never cross document
    boundaries. Out-of-vocabulary tokens still occupy positions but
    contribute no counts. total_tokens counts in-vocabulary tokens only.

    The slice is counted in array passes: its documents are laid end to end
    as one id array with `window` gap positions (id -1, like an
    out-of-vocabulary token) after each document, so no window reaches from
    one document into the next. For each offset 1..window the pairs of
    in-vocabulary ids are packed into keys a*V + b and b*V + a, and one
    `np.unique` over all keys gives the counts already in CSR order. The
    keys are the transient peak: 2 * window * N int64 values for a slice
    of N positions.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    V = len(vocab)
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    tokens = list(itertools.chain.from_iterable(docs))
    positions = np.arange(len(tokens)) + window * np.repeat(
        np.arange(len(docs)), lengths
    )
    ids = np.full(len(tokens) + window * len(docs), -1, dtype=np.int64)
    ids[positions] = np.fromiter(
        map(vocab.index.get, tokens, itertools.repeat(-1)),
        dtype=np.int64,
        count=len(tokens),
    )
    unigram = np.bincount(ids[ids >= 0], minlength=V).astype(np.int64)
    keys = []
    for off in range(1, window + 1):
        a, b = ids[:-off], ids[off:]
        keep = (a >= 0) & (b >= 0)
        a, b = a[keep], b[keep]
        keys += [a * V + b, b * V + a]
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // V, minlength=V), out=indptr[1:])
    cooc = sp.csr_matrix(
        (counts.astype(np.int64), keys % V, indptr), shape=(V, V)
    )
    return SliceStats(
        cooc=cooc,
        unigram=unigram,
        total_tokens=int(unigram.sum()),
        window=window,
    )


def subsample_counts(stats, rate, rng_seed):
    """Binomially thin every co-occurrence count at the given rate.

    Each nonzero count C becomes a Binomial(n=C, p=rate) draw, drawn once
    per unordered pair and mirrored to keep the matrix symmetric. Unigram
    counts are rescaled by each word's surviving co-occurrence mass
    (rounded, floored at 1 while any co-occurrence survives); total_tokens
    is the rescaled unigram sum. Deterministic given rng_seed.
    """
    if not 0 < rate <= 1:
        raise ValueError(f"subsampling rate must be in (0, 1], got {rate}")
    if rate == 1.0:
        return SliceStats(
            cooc=stats.cooc.copy(),
            unigram=stats.unigram.copy(),
            total_tokens=stats.total_tokens,
            window=stats.window,
        )
    rng = np.random.default_rng(rng_seed)
    upper = sp.triu(stats.cooc, k=0).tocoo()
    new_data = rng.binomial(upper.data, rate)
    keep = new_data > 0
    r, c, d = upper.row[keep], upper.col[keep], new_data[keep]
    off = r != c
    V = stats.cooc.shape[0]
    cooc = sp.coo_matrix(
        (
            np.concatenate([d, d[off]]),
            (np.concatenate([r, c[off]]), np.concatenate([c, r[off]])),
        ),
        shape=(V, V),
        dtype=np.int64,
    ).tocsr()
    old_mass = np.asarray(stats.cooc.sum(axis=1)).ravel()
    new_mass = np.asarray(cooc.sum(axis=1)).ravel()
    unigram = stats.unigram.copy()
    scaled = old_mass > 0
    ratio = np.divide(new_mass, old_mass, out=np.zeros_like(new_mass, dtype=float),
                      where=scaled)
    unigram[scaled] = np.rint(stats.unigram[scaled] * ratio[scaled]).astype(np.int64)
    floor = scaled & (stats.unigram > 0) & (new_mass > 0)
    unigram[floor] = np.maximum(unigram[floor], 1)
    return SliceStats(
        cooc=cooc,
        unigram=unigram,
        total_tokens=int(unigram.sum()),
        window=stats.window,
    )


def pool_stats(stats_list):
    """Sum SliceStats over slices (count-level pooling for static training)."""
    if not stats_list:
        raise ValueError("nothing to pool")
    cooc = stats_list[0].cooc.copy()
    unigram = stats_list[0].unigram.copy()
    total = stats_list[0].total_tokens
    for s in stats_list[1:]:
        cooc = cooc + s.cooc
        unigram = unigram + s.unigram
        total += s.total_tokens
    return SliceStats(cooc=cooc.tocsr(), unigram=unigram, total_tokens=total,
                      window=stats_list[0].window)


# ---------------------------------------------------------------------------
# Persistence in the artifact container: magic "TVCO", version 1, then V u64,
# window u32, total_tokens u64, unigram V*u64 and a triplet block with u64
# counts.


def write_stats(stats, path):
    write_artifact(path, STATS_MAGIC, STATS_VERSION, [
        ("<QIQ", stats.cooc.shape[0], stats.window, stats.total_tokens),
        stats.unigram.astype("<u8"),
        *triplet_parts(stats.cooc, "<u8"),
    ])


def read_stats(path):
    r = ArtifactReader(path, STATS_MAGIC, STATS_VERSION)
    V, window, total = r.fields("<QIQ")
    unigram = r.array("<u8", V).astype(np.int64)
    cooc = r.triplets(V, "<u8", np.int64)
    r.end()
    return SliceStats(cooc=cooc, unigram=unigram, total_tokens=int(total),
                      window=int(window))


# ---------------------------------------------------------------------------
# Corpus loading: one directory of plain-text files per slice (label = dir
# name), or a single JSON-lines file with {"label": int, "text": str}.


def load_corpus(path, stopwords=frozenset()):
    """Load and tokenize a time-sliced corpus from disk."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus path does not exist: {path}")
    per_label = {}
    if path.is_file():
        # Undecodable bytes become lone surrogates, so the line that holds
        # them can be named.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: not valid UTF-8"
                    ) from None
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    label, text = int(rec["label"]), rec["text"]
                    if not isinstance(text, str):
                        raise TypeError("text is not a string")
                except (ValueError, KeyError, TypeError):
                    raise CorpusFormatError(
                        f"{path}:{lineno}: expected a JSON object with an "
                        'integer "label" and a string "text"'
                    ) from None
                per_label.setdefault(label, []).append(tokenize(text, stopwords))
    else:
        subdirs = [p for p in path.iterdir() if p.is_dir()]
        if not subdirs:
            raise FileNotFoundError(f"no slice directories under {path}")
        for sub in subdirs:
            try:
                label = int(sub.name)
            except ValueError:
                raise CorpusFormatError(
                    f"{sub}: slice directory name is not an integer label"
                ) from None
            docs = per_label.setdefault(label, [])
            for f in sorted(sub.iterdir()):
                if f.is_file():
                    try:
                        text = f.read_text(encoding="utf-8")
                    except UnicodeDecodeError:
                        raise CorpusFormatError(f"{f}: not valid UTF-8") from None
                    docs.append(tokenize(text, stopwords))
    labels = sorted(per_label)
    return TimeSlicedCorpus(
        slices=[per_label[lab] for lab in labels], slice_labels=labels
    )


def load_stopwords(path):
    """Read a stopword file, one token per line."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())

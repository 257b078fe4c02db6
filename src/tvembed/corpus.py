"""Corpus ingestion: tokenization, vocabulary, per-slice co-occurrence counts."""

import io
import itertools
import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from tvembed.artifact import (
    ArtifactError,
    ArtifactReader,
    read_text,
    reading,
    triplet_parts,
    write_artifact,
)

STATS_MAGIC = b"TVCO"
STATS_VERSION = 1


class EmptyVocabularyError(ValueError):
    """No word survived the minimum-count filter."""


# The tokens: runs of Unicode alphanumerics (underscore excluded), and each
# NUL as a token of its own, which only a batch's separator holds.
_TOKEN_RE = re.compile(r"[^\W_]+|\x00", re.UNICODE)
# The bytes a lowercased ASCII text may hold when each of its
# whitespace-separated pieces is a token: letters, digits, the whitespace
# `str.split` splits at, and NUL.
_ASCII_TOKEN_BYTES = bytes(
    c for c in range(128) if chr(c).isalnum() or chr(c).isspace()) + b"\x00"


def _tokens(text):
    """The tokens of lowercased `text`, in which every NUL has whitespace
    on both sides.

    `str.isalnum` and the regex's `[^\\W_]` make the same per-character test
    and no whitespace character passes it, so when every whitespace-separated
    piece is alphanumeric (or a NUL) those pieces are already the regex's
    tokens. An ASCII text is tested with one `bytes.translate`, about ten
    times faster than `isalnum` over the joined pieces.
    """
    if text.isascii():
        if not text.encode("ascii").translate(None, _ASCII_TOKEN_BYTES):
            return text.split()
    else:
        tokens = text.split()
        if "".join(tokens).replace("\x00", "").isalnum():
            return tokens
    return _TOKEN_RE.findall(text)


def _kept(token, stopwords):
    return token not in stopwords and not token.isdigit()


def tokenize(text, stopwords=frozenset()):
    """Split raw text into lowercase tokens.

    Token boundaries are runs of Unicode alphanumerics (underscore excluded).
    Stopwords and purely numeric tokens are dropped. Empty text yields an
    empty list.
    """
    return [t for t in _tokens(text.replace("\x00", " ").lower())
            if _kept(t, stopwords)]


@dataclass
class TokenIds:
    """The documents of one time slice as token ids.

    ids holds the documents end to end as int32 indices into `types`, the
    token table every slice of a corpus shares; lengths[d] is the number of
    tokens of document d.
    """

    ids: np.ndarray
    lengths: np.ndarray
    types: list

    def __len__(self):
        return len(self.lengths)

    def documents(self):
        """The documents as lists of tokens."""
        tokens = [self.types[i] for i in self.ids.tolist()]
        ends = np.cumsum(self.lengths).tolist()
        return [tokens[end - n:end]
                for end, n in zip(ends, self.lengths.tolist())]


# Raw documents are tokenized in batches of about _BATCH_CHARS characters,
# joined by _SEPARATOR. Its NUL comes out of `_tokens` as a token of its
# own, which the type table maps to the reserved id -1; a dropped type gets
# the reserved id -2.
_SEPARATOR = " \x00 "
_BATCH_CHARS = 2**14


class _TypeTable(dict):
    """Token -> id, filled as tokens are seen. A type that passes `keep` (or
    every type, without `keep`) gets the next id, so the kept types are
    numbered in first-seen order; any other type gets -2. `keep` runs once
    per distinct type."""

    def __init__(self, keep=None):
        super().__init__({"\x00": -1})
        self._keep = keep
        self._next_id = itertools.count().__next__

    def __missing__(self, token):
        id_ = self[token] = (self._next_id() if self._keep is None
                             or self._keep(token) else -2)
        return id_


class _Encoder:
    """Maps tokens to ids of a type table that grows as tokens are seen, and
    collects each slice's ids and document lengths. It is the one place
    where tokens become ids. A token whose type fails `keep` is dropped as
    its batch is encoded, so it takes no position and no id space."""

    def __init__(self, keep=None):
        self._table = _TypeTable(keep)
        self._slices = {}
        self._queued = defaultdict(list)
        self._queued_chars = 0

    def _arrays(self, label):
        """The id and length arrays of slice `label`."""
        try:
            arrays = self._slices[label]
        except KeyError:
            arrays = self._slices[label] = (array("i"), array("q"))
        return arrays

    def add(self, label, tokens):
        """Append one document, given as a list of tokens, to slice `label`.
        The token "\\x00" is reserved for the batch separator. For an
        encoder without `keep` only."""
        if "\x00" in tokens:
            raise ValueError('the token "\\x00" is reserved')
        ids, lengths = self._arrays(label)
        ids.extend(map(self._table.__getitem__, tokens))
        lengths.append(len(tokens))

    def add_text(self, label, text):
        """Queue one document, given as raw text, for slice `label`. The
        queue is tokenized one batch per label, in the order the labels were
        queued, once it passes _BATCH_CHARS characters and by `slices`."""
        self._queued[label].append(text)
        self._queued_chars += len(text)
        if self._queued_chars > _BATCH_CHARS:
            self._flush()

    def _flush(self):
        for label, texts in self._queued.items():
            self._add_batch(label, texts)
        self._queued.clear()
        self._queued_chars = 0

    def _add_batch(self, label, texts):
        """Append the documents `texts` to slice `label`, each tokenized as
        `tokenize` tokenizes it.

        The batch is joined with a separator before, between and after the
        documents, lowercased and tokenized once; a document's length is the
        number of kept tokens between its two separators. The separator has
        whitespace on both sides, so no token spans two documents and `lower`
        sees each document's own final-sigma context. A document's own NUL is
        joined as a space: both end a token and neither is cased or
        case-ignorable, so the tokens and that context stay as they were.
        """
        joined = _SEPARATOR.join(["", *texts, ""])
        if joined.count("\x00") != len(texts) + 1:
            joined = _SEPARATOR.join(
                ["", *(t.replace("\x00", " ") for t in texts), ""])
        tokens = _tokens(joined.lower())
        ids = np.fromiter(map(self._table.__getitem__, tokens),
                          dtype=np.int32, count=len(tokens))
        kept = ids >= 0
        slice_ids, lengths = self._arrays(label)
        slice_ids.frombytes(ids[kept].tobytes())
        lengths.frombytes(
            np.diff(np.cumsum(kept, dtype=np.int64)[ids == -1]).tobytes())

    def slices(self, labels):
        """TokenIds of each of `labels` (empty for a label never added).

        Single use: each slice's collected ids are handed over, not copied,
        so the encoder keeps no slice once this returns."""
        self._flush()
        types = [t for t, i in self._table.items() if i >= 0]
        out = []
        for label in labels:
            ids, lengths = self._slices.pop(label, (array("i"), array("q")))
            out.append(TokenIds(ids=np.frombuffer(ids, dtype=np.int32),
                                lengths=np.frombuffer(lengths, dtype=np.int64),
                                types=types))
        return out


def _encode(slices):
    """TokenIds of slices given as lists of token lists, over one type table."""
    enc = _Encoder()
    for t, docs in enumerate(slices):
        for doc in docs:
            enc.add(t, doc)
    return enc.slices(range(len(slices)))


@dataclass
class TimeSlicedCorpus:
    """Ordered collection of tokenized document slices.

    slices[t] holds the documents of slice t as TokenIds; slices given as
    lists of documents, each a list of lowercase tokens other than the
    reserved "\\x00", are encoded on construction. slice_labels[t] is the
    integer label (e.g. a year) of slice t.
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
        if not isinstance(self.slices[0], TokenIds):
            self.slices = _encode(self.slices)
        elif any(not isinstance(s, TokenIds) or s.types is not
                 self.slices[0].types for s in self.slices):
            raise ValueError("slices must be TokenIds over one type table")

    @property
    def num_slices(self):
        return len(self.slices)


@dataclass
class Vocabulary:
    """Dense word <-> index bijection shared by all time slices."""

    words: list
    index: dict = field(init=False)

    def __post_init__(self):
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
    types = corpus.slices[0].types
    counts = np.zeros(len(types), dtype=np.int64)
    for s in corpus.slices:
        counts += np.bincount(s.ids, minlength=len(types))
    kept = np.flatnonzero(counts >= min_count).tolist()
    if not kept:
        raise EmptyVocabularyError(
            f"no word reaches min_count={min_count} (corpus has "
            f"{np.count_nonzero(counts)} distinct words)"
        )
    c = counts.tolist()
    kept.sort(key=lambda i: (-c[i], types[i]))
    return Vocabulary([types[i] for i in kept])


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


def count_cooccurrences(docs, vocab, window):
    """Count windowed co-occurrences of one slice against a fixed vocabulary.

    `docs` is a TokenIds or a list of documents, each a list of tokens. Every
    ordered position pair (i, j) with 0 < |i - j| <= window and both tokens
    in the vocabulary increments cooc[w_i, w_j] by one, which makes the
    matrix symmetric by construction. Windows never cross document
    boundaries. Out-of-vocabulary tokens still occupy positions but
    contribute no counts. total_tokens counts in-vocabulary tokens only.

    No pair lies farther apart than the longest document's length - 1, so
    the slice is counted with the half-window w = min(window, that length -
    1), at least 1; the stats record `window` as given. The slice is counted
    in array passes: its documents are laid end to end as one
    vocabulary-index array with w gap positions (index -1, like an
    out-of-vocabulary token) after each document, so no window reaches from
    one document into the next. For each offset 1..w the pairs of
    in-vocabulary indices are packed into forward keys a*V + b, the earlier
    token first, straight into one key array. That array is sorted in place,
    and its runs of equal keys count the pairs in CSR order. The matrix is
    that forward count plus its transpose, so a self-pair lands on the
    diagonal twice. The keys are the transient peak: up to w * N values for
    a slice of N positions, held once, int32 while V*V fits in it (half the
    bytes to sort), else int64.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not isinstance(docs, TokenIds):
        docs = _encode([docs])[0]
    V = len(vocab)
    lengths = docs.lengths
    n = len(docs.ids)
    w = min(window, max(1, int(lengths.max(initial=0)) - 1))
    key_dtype = np.int32 if V * V <= np.iinfo(np.int32).max else np.int64
    ids = np.full(n + w * len(lengths), -1, dtype=key_dtype)
    index = np.fromiter(
        map(vocab.index.get, docs.types, itertools.repeat(-1)),
        dtype=key_dtype,
        count=len(docs.types),
    )
    ids[np.arange(n) + w * np.repeat(np.arange(len(lengths)),
                                     lengths)] = index[docs.ids]
    valid = ids >= 0
    unigram = np.bincount(ids[valid], minlength=V).astype(np.int64)
    keeps = [valid[:-off] & valid[off:] for off in range(1, w + 1)]
    keys = np.empty(sum(map(np.count_nonzero, keeps)), dtype=key_dtype)
    end = 0
    for off, keep in enumerate(keeps, 1):
        part = keys[end:end + np.count_nonzero(keep)]
        end += len(part)
        np.multiply(ids[:-off][keep], V, out=part)
        part += ids[off:][keep]
    del valid, keeps
    keys.sort()
    # The runs of equal keys are the distinct pairs; their lengths the counts.
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys))
    keys = keys[starts]
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // V, minlength=V), out=indptr[1:])
    forward = sp.csr_matrix(
        (counts.astype(np.int64), keys % V, indptr), shape=(V, V)
    )
    cooc = (forward + forward.T).tocsr()
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
    """Write `stats` as a .tvco file. Its header holds the window as a u32,
    so a window outside [0, 2**32) raises ValueError and writes nothing."""
    if not 0 <= stats.window < 2**32:
        raise ValueError(f"window {stats.window} does not fit the stats "
                         "header: it must be in [0, 2**32)")
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
    """Load and tokenize a time-sliced corpus from disk.

    Documents are tokenized a bounded batch at a time straight into ids, so
    token strings live no longer than their batch. Stopwords and numeric
    tokens are dropped once per distinct type. Every label the corpus names
    is a slice, even one with no documents.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus path does not exist: {path}")
    enc = _Encoder(keep=lambda t: _kept(t, stopwords))
    with reading(path):
        if path.is_file():
            labels = _read_jsonl(path, enc)
        else:
            labels = _read_directories(path, enc)
    return TimeSlicedCorpus(slices=enc.slices(labels), slice_labels=labels)


def _check_label(where, label):
    """Artifacts store a slice label as a signed 64-bit integer."""
    if label not in range(-2**63, 2**63):
        raise ArtifactError(
            where, f"slice label {label} is outside the signed 64-bit range")


def _read_jsonl(path, enc):
    """Add every record of a JSON-lines corpus to `enc`; return the sorted
    labels."""
    labels = set()
    decode = json.JSONDecoder().raw_decode
    # Undecodable bytes become lone surrogates, so the line that holds them
    # can be named. One leading byte-order mark is dropped.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ArtifactError(f"{path}:{lineno}", "not valid UTF-8") from None
            line = line.strip()
            if not line:
                continue
            try:
                # The stripped line must hold one JSON value and nothing
                # after it, as json.loads requires. A value nested too deep
                # for the decoder is malformed too.
                rec, end = decode(line)
                label, text = rec["label"], rec["text"]
                if (end != len(line) or type(label) is not int
                        or not isinstance(text, str)):
                    raise ValueError
            except (ValueError, KeyError, TypeError, RecursionError):
                raise ArtifactError(
                    f"{path}:{lineno}", "expected a JSON object with an "
                    'integer "label" and a string "text"'
                ) from None
            if label not in labels:
                _check_label(f"{path}:{lineno}", label)
                labels.add(label)
            enc.add_text(label, text)
    if not labels:
        raise ArtifactError(path, "no record")
    return sorted(labels)


def _read_directories(path, enc):
    """Add the files of every slice directory to `enc`; return the sorted
    labels, including those of directories without files."""
    subdirs = sorted(p for p in path.iterdir() if p.is_dir())
    if not subdirs:
        raise FileNotFoundError(f"no slice directories under {path}")
    seen = {}
    for sub in subdirs:
        try:
            label = int(sub.name)
        except ValueError:
            raise ArtifactError(
                sub, "slice directory name is not an integer label"
            ) from None
        _check_label(sub, label)
        if label in seen:
            raise ArtifactError(
                sub, f"slice label {label} is also the label of {seen[label]}"
            )
        seen[label] = sub
        for f in sorted(sub.iterdir()):
            if f.is_file():
                enc.add_text(label, read_text(f))
    return sorted(seen)


def load_stopwords(path):
    """Read a UTF-8 stopword file, one token per line; a line ends at "\n",
    "\r\n" or "\r"."""
    lines = io.StringIO(read_text(path), newline=None)
    return frozenset(line.strip() for line in lines if line.strip())

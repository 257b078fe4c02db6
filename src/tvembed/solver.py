"""Joint temporal factorization of PPMI sequences by block coordinate descent.

The trained model minimizes, over factor sequences U(1..T) and W(1..T),

    1/2 sum_t ||Y(t) - U(t) W(t)^T||_F^2
  + coupling/2  sum_t ||U(t) - W(t)||_F^2
  + ridge/2    (sum_t ||U(t)||_F^2 + sum_t ||W(t)||_F^2)
  + smoothing/2 sum_{t>=2} (||U(t-1) - U(t)||_F^2 + ||W(t-1) - W(t)||_F^2)

Each factor at each slice is updated in closed form as a whole: U(t)
solves the ridge system  U(t) @ A = B,  whose d x d matrix A is shared by
all V rows, with

    A = W(t)^T W(t) + (coupling + ridge + c_t * smoothing) I
    B = Y(t) @ W(t) + coupling * W(t) + smoothing * (U(t-1) + U(t+1))

where c_t counts the temporal neighbors of slice t (2 interior, 1 at the
ends, 0 when T = 1) and the neighbor terms are dropped at the boundaries.
The W update is symmetric (Y is symmetric).

Given a progress sink, `train` also reports the objective after every
epoch, split into its four terms (fit, coupling, ridge, smoothing), as the
`objective` of the epoch's last ProgressEvent; `tvembed train` prints its
total as "epoch N: objective X.XXXXXXe+YY". The terms come from the
updates' own products, so the log costs no second sparse product: within
an epoch U(t) is final when W(t) is updated, so that update's Y(t) U(t)
gives the cross term <W(t), Y(t) U(t)> of the fit and its U(t)^T U(t) the
Gram term <U(t)^T U(t), W(t)^T W(t)>; ||Y(t)||^2 is taken once per run and
the other terms are O(V d) each.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from tvembed.artifact import (ArtifactError, ArtifactReader, atomic_write,
                              write_artifact)

EMB_MAGIC = b"TVEM"
EMB_VERSION = 2


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the temporal factorization.

    Defaults follow the grid-searched setting: ridge 10, smoothing and
    coupling 50, 5 epochs. dim 50 suits a real corpus; small synthetic
    problems use less.
    """

    dim: int = 50
    ridge: float = 10.0
    smoothing: float = 50.0
    coupling: float = 50.0
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.epochs < 1:
            raise ValueError("dim and epochs must be >= 1")
        for name in ("ridge", "smoothing", "coupling"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        # The diagonal of A at an interior slice.
        if not np.isfinite(self.coupling + self.ridge + 2 * self.smoothing):
            raise ValueError("coupling + ridge + 2*smoothing must be finite")


@dataclass
class EmbeddingSequence:
    """Factor matrices U(t), W(t) for every slice."""

    U: list
    W: list

    def __post_init__(self):
        if len(self.U) != len(self.W):
            raise ValueError("U and W must have equal length")
        shape = self.U[0].shape
        for m in list(self.U) + list(self.W):
            if m.shape != shape:
                raise ValueError("inconsistent factor shapes")

    @property
    def num_slices(self):
        return len(self.U)


@dataclass(frozen=True)
class ObjectiveTerms:
    """The four terms of the objective of the module docstring."""

    fit: float  # 1/2 sum_t ||Y(t) - U(t) W(t)^T||_F^2
    coupling: float
    ridge: float
    smoothing: float

    @property
    def total(self):
        return self.fit + self.coupling + self.ridge + self.smoothing


@dataclass
class ProgressEvent:
    """Emitted after every factor update, once per (epoch, t, factor)."""

    epoch: int
    t: int
    factor: str  # "U" or "W"
    new: np.ndarray  # the updated factor, solving new @ A = B
    A: np.ndarray
    B: np.ndarray
    state: "EmbeddingSequence" = None  # live view, already includes this update
    # The objective at the end of the epoch, on its last event only.
    objective: ObjectiveTerms = None


def init_embeddings(V, T, config):
    """Draw both factor sequences i.i.d. uniform in +-1/sqrt(dim)."""
    if V < 1 or T < 1:
        raise ValueError("V and T must be >= 1")
    rng = np.random.default_rng(config.seed)
    bound = 1 / np.sqrt(config.dim)
    U = [rng.uniform(-bound, bound, size=(V, config.dim)) for _ in range(T)]
    W = [rng.uniform(-bound, bound, size=(V, config.dim)) for _ in range(T)]
    return EmbeddingSequence(U=U, W=W)


def _neighbor_weight(t, T):
    return (1 if t > 0 else 0) + (1 if t < T - 1 else 0)


def update_factor(factor, t, state, Y, config):
    """Exactly minimize the objective over the whole factor U(t) or W(t).

    Forms the ridge system  new @ A = B  of the module docstring for all V
    rows, factors the shared d x d matrix A once (Cholesky) and solves for
    every row in one call. `factor` is "U" or "W". Returns (new, A, B,
    gram, cross) without mutating state: `gram` is F^T F and `cross`
    <new, Y(t) F> for the other factor F at slice t, the parts of the fit
    term `train` streams. Raises FloatingPointError if A, B or new is not
    finite.
    """
    if factor not in ("U", "W"):
        raise ValueError("factor must be 'U' or 'W'")
    T = state.num_slices
    same = state.U if factor == "U" else state.W
    F = (state.W if factor == "U" else state.U)[t]
    shrink = (
        config.coupling + config.ridge + _neighbor_weight(t, T) * config.smoothing
    )
    gram = F.T @ F
    A = gram + shrink * np.eye(config.dim)
    if not np.all(np.isfinite(A)):
        raise FloatingPointError(
            f"non-finite ridge system for {factor}({t}); "
            "input data or factors contain NaN/inf"
        )
    product = np.asarray(Y.matrices[t].values @ F)
    # coupling F + Y(t) F has the bits of Y(t) F + coupling F and leaves the
    # product for the cross term.
    B = config.coupling * F
    B += product
    if t > 0:
        B += config.smoothing * same[t - 1]
    if t < T - 1:
        B += config.smoothing * same[t + 1]
    if not np.all(np.isfinite(B)):
        raise FloatingPointError(f"non-finite right-hand side for {factor}({t})")
    try:
        cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        new = scipy.linalg.cho_solve(cho, B.T, check_finite=False).T
    except scipy.linalg.LinAlgError:
        # A is singular only when ridge = coupling = smoothing = 0; fall
        # back to the least-norm solution.
        warnings.warn("singular ridge system; using least-norm solution")
        new = scipy.linalg.lstsq(A, B.T, check_finite=False)[0].T
    if not np.all(np.isfinite(new)):
        raise FloatingPointError(f"non-finite values in {factor}({t})")
    return new, A, B, gram, _dot(new, product)


def _slice_terms(t, state, ynorm2, UtU, cross, config):
    """Slice t's share of the four objective terms, once U(t) and W(t) are
    final: `UtU` is U(t)^T U(t) and `cross` is <W(t), Y(t) U(t)>, both from
    the W(t) update, and `ynorm2` is ||Y(t)||_F^2. The smoothing share is
    that of the pair (t-1, t)."""
    U, W = state.U, state.W
    WtW = W[t].T @ W[t]
    fit = 0.5 * (ynorm2 - 2.0 * cross + _dot(UtU, WtW))
    coupling = 0.5 * config.coupling * _sq_dist(U[t], W[t])
    ridge = 0.5 * config.ridge * (float(np.trace(UtU)) + float(np.trace(WtW)))
    smoothing = 0.0
    if t > 0:
        smoothing = 0.5 * config.smoothing * (
            _sq_dist(U[t - 1], U[t]) + _sq_dist(W[t - 1], W[t])
        )
    return fit, coupling, ridge, smoothing


def _dot(a, b):
    # einsum sums in one pass on this thread; a BLAS dot of this size can
    # spend longer starting its threads than summing.
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _sq_dist(a, b):
    diff = a - b
    return _dot(diff, diff)


def train(Y, config, progress_sink=None):
    """Run block coordinate descent over the whole sequence.

    Sweeps slices in ascending order for the configured number of epochs,
    replacing U(t) and then W(t) by `update_factor`. Each factor update is
    the exact minimizer over that factor, so the objective is
    non-increasing after every update. `progress_sink`, if given, is called
    with one ProgressEvent per (epoch, t, factor); the last one of each
    epoch carries the epoch's ObjectiveTerms. Deterministic given the
    config; the factors do not depend on whether a sink is given.
    """
    if not Y.matrices:
        raise ValueError("empty PPMI sequence")
    T = len(Y.matrices)
    state = init_embeddings(Y.vocab_size, T, config)
    streamed = progress_sink is not None
    if streamed:
        ynorm2 = [_dot(m.values.data, m.values.data) for m in Y.matrices]
    for epoch in range(config.epochs):
        terms = []
        for t in range(T):
            for factor in ("U", "W"):
                try:
                    new, A, B, gram, cross = update_factor(factor, t, state,
                                                           Y, config)
                except FloatingPointError as e:
                    raise FloatingPointError(f"epoch {epoch}: {e}") from None
                (state.U if factor == "U" else state.W)[t] = new
                if streamed:
                    epoch_objective = None
                    if factor == "W":
                        terms.append(_slice_terms(t, state, ynorm2[t], gram,
                                                  cross, config))
                        if t == T - 1:
                            epoch_objective = ObjectiveTerms(
                                *map(math.fsum, zip(*terms)))
                    progress_sink(ProgressEvent(epoch, t, factor, new, A, B,
                                                state, epoch_objective))
                # B is V x d; it is not held while the next update is solved.
                del B
    return state


def final_embedding(seq):
    """One embedding matrix per slice: the average of its two factors.

    The average is taken in U(t)'s storage, `u += w; u /= 2.0` (the same two
    IEEE operations as `(u + w) / 2.0`), and each W(t) is released, so the
    result holds U's arrays and `seq` is used up: seq.U holds the averages
    and seq.W only None."""
    for t, u in enumerate(seq.U):
        w, seq.W[t] = seq.W[t], None
        u += w
        u /= 2.0
    return list(seq.U)


# ---------------------------------------------------------------------------
# Persistence.
# Binary, in the artifact container: magic "TVEM", version EMB_VERSION (2),
# then V u64, T u64, d u64, T labels i64, T row-major f64 V x d matrices and
# a row-major f64 T x V block of row norms.
# Text: header "V T d", then one "word label v1 ... vd" line per (slice,
# word), slices in order, each value as "%.9g" prints it.
#
# The text writer is a table formatter that streams blocks of rows into the
# file. A value is four u64 words, each gathered from a table: a head (the
# separating space, the sign, and "0." with leading zeros then the first
# digit, or the first digit and a point if any digit follows), two groups of
# 4 digits (trailing zeros dropped from the last group that is not all
# zeros, and an all-zero group after it dropped) and an exponent ("e+XX",
# "e-XXX" or nothing).
# A byte the value does not print is 0xFF, which UTF-8 never contains, and
# `bytes.translate` deletes it. The 9 digits are n = rint(|x| 10^(8-e)) with
# e = floor(log10 |x|). A value goes through "%.9g" itself where float64
# cannot settle its digits or the tables do not print it:
#   - the fraction of |x| 10^(8-e) lies within 1e-5 of 0.5 (its worst error
#     is about 2.2e-7);
#   - |x| 10^(8-e) is below 10^8, or n is 10^9 or above (a log10 off by
#     one, or 9 digits that round up to the next power of ten);
#   - |x| is outside (1e-290, 1e290), zero excepted (subnormals, inf, nan);
#   - fixed notation puts the point inside the digits (1 <= e <= 8).


def write_embeddings_binary(matrices, labels, path):
    """Write the per-slice V x d matrices and their slice labels as a .tvem
    file. It ends in each slice's row norms, `np.linalg.norm(m, axis=1)` of
    the C-ordered f64 matrix `m` as written, so the same call on the read
    slice gives the same bits."""
    V, d = matrices[0].shape
    if any(m.shape != (V, d) for m in matrices):
        raise ValueError("inconsistent matrix shapes")
    norms = [np.linalg.norm(np.ascontiguousarray(m, dtype="<f8"), axis=1)
             for m in matrices]
    write_artifact(path, EMB_MAGIC, EMB_VERSION, [
        ("<QQQ", V, len(matrices), d),
        np.asarray(labels, dtype="<i8"),
        *(np.asarray(m, dtype="<f8") for m in matrices),
        *(np.asarray(n, dtype="<f8") for n in norms),
    ])


def read_embeddings_binary(path, with_norms=False):
    """The per-slice V x d matrices of a .tvem file and its slice labels,
    and with `with_norms` each slice's length-V row norms as a third item.

    The arrays are read-only views into the mapped file, so a slice that
    is never used is never read from disk. A row norm that is negative or
    not finite raises ArtifactError."""
    r = ArtifactReader(path, EMB_MAGIC, EMB_VERSION)
    V, T, d = r.fields("<QQQ")
    labels = r.array("<i8", T).tolist()
    matrices = [r.array("<f8", V * d).reshape(V, d) for _ in range(T)]
    norms = r.array("<f8", T * V).reshape(T, V)
    r.end()
    valid = (norms >= 0) & (norms < np.inf)
    if not valid.all():
        t, row = divmod(int(np.argmin(valid)), V)
        raise ArtifactError(
            path, f"row norm {float(norms[t, row])} of row {row} in slice "
            f"{labels[t]} is negative or not finite")
    if with_norms:
        return matrices, labels, list(norms)
    return matrices, labels


_TEXT_BLOCK_ROWS = 512
_EXP_RANGE = 300  # the tables cover exponents -300..300


def _u64_words(data):
    """`data` padded with 0xFF to a whole number of u64 words."""
    return np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\xff"), np.uint64)


def _text_tables():
    """The head, digit-group, exponent and power-of-ten tables; about
    171 KB, built once per `write_embeddings_text` call, so no table
    outlives the write."""
    def table(strings):
        return _u64_words(b"".join(s.encode().ljust(8, b"\xff") for s in strings))

    heads = table(" " + sign + (f"0.{'0' * (form - 1)}{digit}" if form
                                else digit + "." * point)
                  for sign in ("", "-") for form in range(5)
                  for digit in "0123456789" for point in (0, 1))
    groups = np.stack([table(f"{g:04d}" for g in range(10000)),
                       table(f"{g:04d}".rstrip("0") for g in range(10000))])
    exps = range(-_EXP_RANGE, _EXP_RANGE + 1)
    exponents = table("" if -4 <= e <= 8 else f"e{e:+03d}" for e in exps)
    powers = np.array([float(f"1e{k}") for k in exps])
    return heads, groups, exponents, powers


def _format_values(x, tables):
    """The u64 words of each value of the float64 array `x`, four per value,
    in a (values, 4) array: " %.9g" of the value, padded with 0xFF.
    `tables` is `_text_tables()`."""
    heads, groups, exponents, powers = tables
    x = x.ravel()
    scaled = np.abs(x)
    zero = scaled == 0
    tabled = (scaled > 1e-290) & (scaled < 1e290)
    scaled[~tabled] = 1.0
    e = np.floor(np.log10(scaled)).astype(np.int64)
    scaled *= powers[8 - e + _EXP_RANGE]
    n = np.rint(scaled)
    slow = (~tabled | (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-5)
            | (scaled < 1e8) | (n >= 1e9))
    del scaled
    slow = (slow | ((e >= 1) & (e <= 8))) & ~zero
    n[slow | zero] = 0
    first, rest = np.divmod(n.astype(np.int64), 10**8)
    high, low = np.divmod(rest, 10**4)
    form = np.where((e < 0) & (e >= -4), -e, 0)
    out = np.empty((len(x), 4), np.uint64)
    out[:, 0] = heads[((np.signbit(x) * 5 + form) * 10 + first) * 2 + (rest != 0)]
    out[:, 1] = groups[(low == 0).astype(np.intp), high]
    out[:, 2] = groups[1, low]
    out[:, 3] = exponents[e + _EXP_RANGE]
    chars = out.view(np.uint8).reshape(len(x), 32)
    for i in np.flatnonzero(slow):
        chars[i] = np.frombuffer(f" {x[i]:.9g}".encode().ljust(32, b"\xff"),
                                 np.uint8)
    return out


def write_embeddings_text(matrices, labels, words, path):
    V, d = matrices[0].shape
    encoded = [w.encode("utf-8") for w in words]
    width = -(-max(map(len, encoded), default=0) // 8) * 8
    prefixes = _u64_words(b"".join(w.ljust(width, b"\xff") for w in encoded))
    prefixes = prefixes.reshape(V, width // 8)
    newline = _u64_words(b"\n")
    tables = _text_tables()

    def blocks():
        yield f"{V} {len(matrices)} {d}\n".encode()
        for m, label in zip(matrices, labels):
            tail = _u64_words(f" {label}".encode())
            for i in range(0, V, _TEXT_BLOCK_ROWS):
                rows = np.asarray(m[i:i + _TEXT_BLOCK_ROWS], dtype=np.float64)
                r = len(rows)
                yield np.hstack([
                    prefixes[i:i + r],
                    np.broadcast_to(tail, (r, len(tail))),
                    _format_values(rows, tables).reshape(r, 4 * d),
                    np.broadcast_to(newline, (r, 1)),
                ]).tobytes().translate(None, b"\xff")

    atomic_write(path, blocks())

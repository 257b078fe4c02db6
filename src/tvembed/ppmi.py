"""Positive PMI matrices built from per-slice co-occurrence statistics."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tvembed.artifact import (ArtifactError, ArtifactReader, csr_parts,
                              write_artifact)

PPMI_MAGIC = b"TVPM"
PPMI_VERSION = 2


@dataclass
class PpmiMatrix:
    """Sparse symmetric PPMI matrix of one time slice (zeros implicit)."""

    values: sp.csr_matrix
    slice_label: int

    @property
    def shape(self):
        return self.values.shape


@dataclass
class PpmiSequence:
    """Ordered PPMI matrices over all time slices, one vocabulary."""

    matrices: list
    vocab_size: int

    def __post_init__(self):
        for m in self.matrices:
            if m.shape != (self.vocab_size, self.vocab_size):
                raise ValueError("all PPMI matrices must be V x V")
        labels = [m.slice_label for m in self.matrices]
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValueError("slice labels must be strictly increasing")


def build_ppmi(stats, slice_label=0):
    """Clamp the PMI of every observed pair at zero and keep the positives
    in the input's stored order, so the result is symmetric because the
    input counts are. A pair of a word whose unigram count is 0 gets +inf;
    read_stats rejects such counts.
    """
    cooc = stats.cooc.tocsr()
    if cooc.nnz == 0 or stats.total_tokens == 0:
        return PpmiMatrix(values=sp.csr_matrix(cooc.shape, dtype=np.float64),
                          slice_label=slice_label)
    V = cooc.shape[0]
    rows = np.repeat(np.arange(V), np.diff(cooc.indptr))
    unigram = stats.unigram.astype(np.float64)
    vals = np.log(cooc.data.astype(np.float64) * float(stats.total_tokens)
                  / (unigram[rows] * unigram[cooc.indices]))
    keep = vals > 0
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=V), out=indptr[1:])
    mat = sp.csr_matrix((vals[keep], cooc.indices[keep], indptr),
                        shape=cooc.shape)
    return PpmiMatrix(values=mat, slice_label=slice_label)


# ---------------------------------------------------------------------------
# Persistence in the artifact container: magic "TVPM", version 2, then V u64,
# slice_label i64 and a CSR block with f64 values.


def write_ppmi(matrix, path):
    write_artifact(path, PPMI_MAGIC, PPMI_VERSION, [
        ("<Qq", matrix.values.shape[0], matrix.slice_label),
        *csr_parts(matrix.values, "<f8"),
    ])


def read_ppmi(path):
    """Read a .tvpm file; a stored value that is not positive and finite,
    or values that are not symmetric, raise ArtifactError."""
    r = ArtifactReader(path, PPMI_MAGIC, PPMI_VERSION)
    V, label = r.fields("<Qq")
    mat = r.csr(V, "<f8", np.float64)
    r.end()
    valid = (mat.data > 0) & (mat.data < np.inf)
    if not valid.all():
        bad = float(mat.data[np.argmin(valid)])
        raise ArtifactError(path, f"PPMI value {bad} is not positive and finite")
    # The W update and the streamed objective take Y(t) = Y(t)^T.
    if (mat != mat.T).nnz:
        raise ArtifactError(path, "PPMI values are not symmetric")
    return PpmiMatrix(values=mat, slice_label=int(label))

"""Positive PMI matrices built from per-slice co-occurrence statistics."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tvembed.artifact import ArtifactReader, triplet_parts, write_artifact

PPMI_MAGIC = b"TVPM"
PPMI_VERSION = 1


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
        labels = self.labels
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValueError("slice labels must be strictly increasing")

    @property
    def labels(self):
        return [m.slice_label for m in self.matrices]


def build_ppmi(stats, slice_label=0):
    """Clamp the PMI of every observed pair at zero and keep the positives.

    Words with zero unigram count contribute no entries; the result is
    symmetric because the input counts are.
    """
    coo = stats.cooc.tocoo()
    if coo.nnz == 0 or stats.total_tokens == 0:
        return PpmiMatrix(
            values=sp.csr_matrix(stats.cooc.shape, dtype=np.float64),
            slice_label=slice_label,
        )
    uw = stats.unigram[coo.row].astype(np.float64)
    uc = stats.unigram[coo.col].astype(np.float64)
    vals = np.log(
        coo.data.astype(np.float64) * float(stats.total_tokens) / (uw * uc)
    )
    keep = vals > 0
    mat = sp.coo_matrix(
        (vals[keep], (coo.row[keep], coo.col[keep])), shape=stats.cooc.shape
    ).tocsr()
    return PpmiMatrix(values=mat, slice_label=slice_label)


# ---------------------------------------------------------------------------
# Persistence in the artifact container: magic "TVPM", version 1, then V u64,
# slice_label i64 and a triplet block with f64 values.


def write_ppmi(matrix, path):
    write_artifact(path, PPMI_MAGIC, PPMI_VERSION, [
        ("<Qq", matrix.values.shape[0], matrix.slice_label),
        *triplet_parts(matrix.values, "<f8"),
    ])


def read_ppmi(path, check=None):
    """Read a .tvpm file. `check(V, slice_label)`, if given, sees the header
    before the triplet block becomes a V x V matrix and may raise, so a
    damaged V is caught before it sizes an allocation."""
    r = ArtifactReader(path, PPMI_MAGIC, PPMI_VERSION)
    V, label = r.fields("<Qq")
    if check is not None:
        check(V, int(label))
    mat = r.triplets(V, "<f8", np.float64)
    r.end()
    return PpmiMatrix(values=mat, slice_label=int(label))

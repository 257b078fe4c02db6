"""The container of the .tvco, .tvpm and .tvem artifacts: a 4-byte magic, a
u32 version, then struct header fields and raw little-endian arrays in a fixed
order, with no byte left over. A damaged file raises ArtifactError, which is
also the error of every other malformed input file; `read_text` decodes the
text inputs."""

import os
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class ArtifactError(ValueError):
    """A malformed input file: an artifact that is damaged, of another format
    or version, or stale, or a corpus file, CSV or other text input that
    cannot be parsed. `path` may end in ":<line>"."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")


def read_text(path):
    """The whole UTF-8 text of `path`, its line endings untranslated."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ArtifactError(path, "not valid UTF-8") from None


def atomic_write_bytes(path, data):
    """Write a file atomically via a per-process temp file, fsync and rename."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, magic, version, parts):
    """Write magic, u32 version, then each part: a (fmt, *values) tuple is
    packed with struct, an array is written as its raw bytes."""
    blob = [magic, struct.pack("<I", version)] + [
        struct.pack(p[0], *p[1:]) if isinstance(p, tuple)
        else np.ascontiguousarray(p).tobytes() for p in parts]
    atomic_write_bytes(path, b"".join(blob))


def triplet_parts(matrix, value_dtype):
    """nnz u64, then the row u4, col u4 and value arrays in (row, col) order."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return [("<Q", coo.nnz), coo.row[order].astype("<u4"),
            coo.col[order].astype("<u4"), coo.data[order].astype(value_dtype)]


class ArtifactReader:
    """Reads the parts of one artifact in order, each within the file."""

    def __init__(self, path, magic, version):
        self.path, self.raw, self.off = path, Path(path).read_bytes(), 4
        if self.raw[:4] != magic:
            raise ArtifactError(path, f"bad magic {self.raw[:4]!r}, expected {magic!r}")
        (found,) = self.fields("<I")
        if found != version:
            raise ArtifactError(path, f"version {found}, expected {version}")

    def _take(self, size):
        left = len(self.raw) - self.off
        if size > left:
            raise ArtifactError(self.path, f"truncated: needs {size} bytes, has {left}")
        self.off += size
        return self.off - size

    def fields(self, fmt):
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt)))

    def array(self, dtype, count):
        size = count * np.dtype(dtype).itemsize
        return np.frombuffer(self.raw, dtype, count, self._take(size))

    def triplets(self, V, value_dtype, dtype):
        """The V x V CSR matrix of a triplet block, values cast to dtype."""
        (nnz,) = self.fields("<Q")
        rows, cols = self.array("<u4", nnz), self.array("<u4", nnz)
        values = self.array(value_dtype, nnz).astype(dtype, copy=False)
        top = max(rows.max(initial=0), cols.max(initial=0))
        if nnz and top >= V:
            raise ArtifactError(self.path, f"triplet index {top} >= V={V}")
        ij = (rows.astype(np.int64), cols.astype(np.int64))
        return sp.coo_matrix((values, ij), shape=(V, V)).tocsr()

    def end(self):
        if self.off != len(self.raw):
            raise ArtifactError(self.path, f"{len(self.raw) - self.off} trailing bytes")

"""The container of the .tvco, .tvpm and .tvem artifacts: a 4-byte magic, a
u32 version, then struct header fields and raw little-endian arrays in a fixed
order, with no byte left over. A damaged file raises ArtifactError, which is
also the error of every other malformed or unreadable input file; `read_text`
decodes the text inputs."""

import mmap
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class ArtifactError(ValueError):
    """A malformed input file: an artifact that is damaged, of another format
    or version, or stale, or a corpus file, CSV or other text input that
    cannot be parsed. `path` may end in ":<line>"."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")


class ArtifactVersionError(ArtifactError):
    """An artifact of another format version than this program reads."""

    def __init__(self, path, found, expected):
        super().__init__(path, f"version {found}, expected {expected}")
        self.found, self.expected = found, expected


@contextmanager
def reading(path):
    """Turn an OSError other than FileNotFoundError raised in the block (a
    directory, no permission) into an ArtifactError naming the file it
    names, else `path`."""
    try:
        yield
    except FileNotFoundError:
        raise
    except OSError as e:
        raise ArtifactError(e.filename or path, e.strerror or e) from None


def read_text(path):
    """The whole UTF-8 text of `path`, its line endings untranslated."""
    with reading(path):
        raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ArtifactError(path, "not valid UTF-8") from None


def atomic_write(path, chunks):
    """Write the byte chunks of an iterable to `path` atomically, each as it
    comes, via a per-process temp file, fsync and rename. If anything raises,
    the temp file is removed and `path` is left as it was. An OSError that
    names the temp file is raised again naming `path`."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename == str(tmp):
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def atomic_write_bytes(path, data):
    """`atomic_write` of the one chunk `data`."""
    atomic_write(path, [data])


def write_artifact(path, magic, version, parts):
    """Write magic, u32 version, then each part: a (fmt, *values) tuple is
    packed with struct, an array is written as its raw bytes, straight from
    its memory."""
    def chunks():
        yield magic
        yield struct.pack("<I", version)
        for p in parts:
            yield (struct.pack(p[0], *p[1:]) if isinstance(p, tuple)
                   else memoryview(np.ascontiguousarray(p)).cast("B"))
    atomic_write(path, chunks())


def triplet_parts(matrix, value_dtype):
    """nnz u64, then the row u4, col u4 and value arrays in (row, col) order.

    Only triplets out of that order are sorted. The sort is stable, so
    skipping it on ordered input, duplicates included, gives the same bytes.
    """
    coo = matrix.tocoo()
    row, col, data = coo.row, coo.col, coo.data
    if not np.all((row[1:] > row[:-1])
                  | ((row[1:] == row[:-1]) & (col[1:] >= col[:-1]))):
        order = np.lexsort((col, row))
        row, col, data = row[order], col[order], data[order]
    return [("<Q", coo.nnz), row.astype("<u4"), col.astype("<u4"),
            data.astype(value_dtype)]


class ArtifactReader:
    """Reads the parts of one artifact in order, each within the file.

    The file is mapped read-only, so `array` returns read-only views into the
    mapping; the mapping lives as long as the reader or any such view. A
    caller that writes into an array copies it first. Writers replace files
    by rename (`atomic_write`), which leaves a live mapping intact;
    truncating a mapped file in place is unsupported."""

    def __init__(self, path, magic, version):
        with reading(path), open(path, "rb") as fh:
            # mmap refuses an empty file; it then fails the magic check.
            empty = os.fstat(fh.fileno()).st_size == 0
            self.raw = b"" if empty else mmap.mmap(fh.fileno(), 0,
                                                    access=mmap.ACCESS_READ)
        self.path, self.off = path, 4
        if self.raw[:4] != magic:
            raise ArtifactError(path, f"bad magic {self.raw[:4]!r}, expected {magic!r}")
        (found,) = self.fields("<I")
        if found != version:
            raise ArtifactVersionError(path, found, version)

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

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
    """The whole UTF-8 text of `path`, its line endings untranslated and one
    leading byte-order mark dropped."""
    with reading(path):
        raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8-sig")
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


def csr_parts(matrix, value_dtype):
    """nnz u64, then the V+1 row offsets u64, column indices u4 and values of
    `matrix` as CSR. ValueError unless the columns strictly increase within
    each row, as the reader requires."""
    m = sp.csr_matrix(matrix)
    if not m.has_canonical_format:
        raise ValueError("CSR column indices must strictly increase within "
                         "each row")
    return [("<Q", m.nnz), m.indptr.astype("<u8"), m.indices.astype("<u4"),
            m.data.astype(value_dtype, copy=False)]


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

    def csr(self, V, value_dtype, dtype):
        """The V x V matrix of a CSR block, values cast to dtype, as copies
        with int32 indices while they fit. The V+1 offsets must fit in the
        file, so a V too large fails as truncated before anything V-sized is
        allocated. Columns must strictly increase within each row, so no
        (row, column) is stored twice."""
        (nnz,) = self.fields("<Q")
        offsets = self.array("<u8", V + 1)
        cols = self.array("<u4", nnz)
        values = self.array(value_dtype, nnz)
        if (offsets[0] != 0 or offsets[-1] != nnz
                or np.any(offsets[1:] < offsets[:-1])):
            raise ArtifactError(self.path, f"row offsets must go from 0 to "
                                f"nnz={nnz} without falling")
        top = cols.max(initial=0)
        if nnz and top >= V:
            raise ArtifactError(self.path, f"column index {top} >= V={V}")
        index = np.int32 if max(V, nnz) < 2**31 else np.int64
        m = sp.csr_matrix((values.astype(dtype), cols.astype(index),
                           offsets.astype(index)), shape=(V, V))
        if not m.has_canonical_format:
            raise ArtifactError(self.path, "column indices must strictly "
                                "increase within each row")
        return m

    def end(self):
        if self.off != len(self.raw):
            raise ArtifactError(self.path, f"{len(self.raw) - self.off} trailing bytes")

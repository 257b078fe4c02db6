"""The artifact container: a damaged file of any of the three binary formats
raises ArtifactError naming its path, and writes are atomic."""

import errno
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import damaged_csr
from tvembed.artifact import (ArtifactError, atomic_write, atomic_write_bytes,
                              read_text, write_artifact)
from tvembed.corpus import (STATS_MAGIC, STATS_VERSION, SliceStats,
                            read_stats, write_stats)
from tvembed.ppmi import (PPMI_MAGIC, PPMI_VERSION, PpmiMatrix, read_ppmi,
                          write_ppmi)
from tvembed.solver import (EMB_VERSION, read_embeddings_binary,
                            write_embeddings_binary, write_embeddings_text)


def _symmetric(rng, V, values):
    upper = np.triu(values * (rng.random((V, V)) < 0.5))
    return sp.csr_matrix(upper + np.triu(upper, 1).T)


def _write_tvco(path, V, rng):
    cooc = _symmetric(rng, V, rng.integers(1, 9, size=(V, V)))
    unigram = rng.integers(1, 50, size=V)
    write_stats(SliceStats(cooc, unigram, int(unigram.sum()), 3), path)


def _write_tvpm(path, V, rng):
    values = _symmetric(rng, V, rng.random((V, V)) + 0.1)
    write_ppmi(PpmiMatrix(values, slice_label=int(rng.integers(-5, 3000))), path)


def _write_tvem(path, V, rng):
    T, d = (int(n) for n in rng.integers(1, 4, size=2))
    mats = [rng.standard_normal((V, d)) for _ in range(T)]
    write_embeddings_binary(mats, list(range(1990, 1990 + T)), path)


# name -> (writer, reader, magic, offset of the row offsets of the CSR
# block as a function of V, or None); the block's nnz u64 precedes them.
FORMATS = {
    "tvco": (_write_tvco, read_stats, b"TVCO", lambda V: 36 + 8 * V),
    "tvpm": (_write_tvpm, read_ppmi, b"TVPM", lambda V: 32),
    "tvem": (_write_tvem, read_embeddings_binary, b"TVEM", None),
}

VERSIONS = {"tvco": STATS_VERSION, "tvpm": PPMI_VERSION, "tvem": EMB_VERSION}

# name -> (offset, struct format) of each header field after the version
HEADERS = {
    "tvco": [(8, "<Q"), (16, "<I"), (20, "<Q")],  # V, window, total_tokens
    "tvpm": [(8, "<Q"), (16, "<q")],  # V, slice_label
    "tvem": [(8, "<Q"), (16, "<Q"), (24, "<Q")],  # V, T, d
}


def _flip(blob, offset, fmt, bit):
    """`blob` with one bit of the header field at `offset` flipped."""
    blob = bytearray(blob)
    (value,) = struct.unpack_from(fmt, blob, offset)
    struct.pack_into(fmt, blob, offset, value ^ (1 << bit))
    return bytes(blob)


# (V, seed) of a valid file
cases = st.tuples(st.integers(1, 6), st.integers(0, 2**32 - 1))
each_format = pytest.mark.parametrize("name", sorted(FORMATS))


def _valid(name, V, seed, directory):
    path = Path(directory) / f"valid.{name}"
    FORMATS[name][0](path, V, np.random.default_rng(seed))
    return path.read_bytes()


def _raises_naming(name, blob, directory):
    path = Path(directory) / f"damaged.{name}"
    path.write_bytes(blob)
    with pytest.raises(ArtifactError) as info:
        FORMATS[name][1](path)
    assert str(path) in str(info.value)


class TestDamagedArtifacts:
    @each_format
    @given(cases)
    @settings(max_examples=8, deadline=None)
    def test_every_strict_prefix_raises(self, name, case):
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = _valid(name, V, seed, d)
            FORMATS[name][1](Path(d) / f"valid.{name}")
            for n in range(len(blob)):
                _raises_naming(name, blob[:n], d)

    @each_format
    @given(cases, st.binary(min_size=1, max_size=24))
    @settings(max_examples=15, deadline=None)
    def test_appended_bytes_raise(self, name, case, tail):
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            _raises_naming(name, _valid(name, V, seed, d) + tail, d)

    @each_format
    @given(cases, st.binary(min_size=4, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_wrong_magic_raises(self, name, case, magic):
        V, seed = case
        if magic == FORMATS[name][2]:
            magic = b"NOPE"
        with tempfile.TemporaryDirectory() as d:
            _raises_naming(name, magic + _valid(name, V, seed, d)[4:], d)

    @each_format
    @given(cases, st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_wrong_version_raises(self, name, case, version):
        V, seed = case
        assume(version != VERSIONS[name])
        with tempfile.TemporaryDirectory() as d:
            blob = _valid(name, V, seed, d)
            blob = blob[:4] + struct.pack("<I", version) + blob[8:]
            _raises_naming(name, blob, d)

    @given(cases)
    @settings(max_examples=8, deadline=None)
    def test_prefix_ending_in_the_norms_block_names_its_size(self, case):
        # The T x V row norms are the last array of a .tvem.
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = _valid("tvem", V, seed, d)
            (T,) = struct.unpack_from("<Q", blob, 16)
            start = len(blob) - 8 * T * V
            path = Path(d) / "cut.tvem"
            for n in range(start, len(blob)):
                path.write_bytes(blob[:n])
                with pytest.raises(ArtifactError) as info:
                    read_embeddings_binary(path)
                assert str(info.value) == (
                    f"{path}: truncated: needs {8 * T * V} bytes, has "
                    f"{n - start}")

    @given(cases, st.data(), st.one_of(
        st.floats(max_value=-5e-324), st.sampled_from(
            [float("nan"), float("inf"), float("-inf")])))
    @settings(max_examples=30, deadline=None)
    def test_bad_row_norm_raises(self, case, data, value):
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = bytearray(_valid("tvem", V, seed, d))
            (T,) = struct.unpack_from("<Q", blob, 16)
            labels = struct.unpack_from(f"<{T}q", blob, 32)
            t, row = data.draw(st.integers(0, T - 1)), data.draw(
                st.integers(0, V - 1))
            struct.pack_into("<d", blob, len(blob) - 8 * (T - t) * V
                             + 8 * row, value)
            path = Path(d) / "bad.tvem"
            path.write_bytes(bytes(blob))
            with pytest.raises(ArtifactError) as info:
                read_embeddings_binary(path)
            assert str(info.value) == (
                f"{path}: row norm {value} of row {row} in slice "
                f"{labels[t]} is negative or not finite")

    @pytest.mark.parametrize("name", ["tvco", "tvpm"])
    @given(cases, st.data())
    @settings(max_examples=15, deadline=None)
    def test_column_index_out_of_range_raises(self, name, case, data):
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = bytearray(_valid(name, V, seed, d))
            at = FORMATS[name][3](V)
            (nnz,) = struct.unpack_from("<Q", blob, at - 8)
            assume(nnz > 0)
            i, col = data.draw(st.integers(0, nnz - 1)), data.draw(
                st.integers(V, 2**32 - 1))
            struct.pack_into("<I", blob, at + 8 * (V + 1) + 4 * i, col)
            path = Path(d) / f"damaged.{name}"
            path.write_bytes(bytes(blob))
            with pytest.raises(ArtifactError) as info:
                FORMATS[name][1](path)
            assert str(info.value) == f"{path}: column index {col} >= V={V}"

    @pytest.mark.parametrize("name", ["tvco", "tvpm"])
    @pytest.mark.parametrize("damage", ["first", "falling", "last"])
    @given(cases)
    @settings(max_examples=10, deadline=None)
    def test_row_offsets_out_of_order_raise(self, name, damage, case):
        # The offsets must start at 0, never fall and end at nnz.
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = bytearray(_valid(name, V, seed, d))
            at = FORMATS[name][3](V)
            (nnz,) = struct.unpack_from("<Q", blob, at - 8)
            offsets = list(struct.unpack_from(f"<{V + 1}Q", blob, at))
            if damage == "first":
                offsets[0] = 1
            elif damage == "falling":
                assume(V >= 2)
                offsets[1] = nnz + 1  # above offsets[2] <= nnz
            else:
                offsets[-1] = nnz + 1
            struct.pack_into(f"<{V + 1}Q", blob, at, *offsets)
            path = Path(d) / f"damaged.{name}"
            path.write_bytes(bytes(blob))
            with pytest.raises(ArtifactError) as info:
                FORMATS[name][1](path)
            assert str(info.value) == (f"{path}: row offsets must go from 0 "
                                       f"to nnz={nnz} without falling")

    @each_format
    @given(cases, st.data())
    @settings(max_examples=30, deadline=None)
    def test_header_bit_flip_raises_or_reads(self, name, case, data):
        # A flipped header bit either makes the file unreadable with an
        # ArtifactError or yields another well-formed file (a new label,
        # window or token total), never another exception.
        V, seed = case
        offset, fmt = data.draw(st.sampled_from(HEADERS[name]))
        bit = data.draw(st.integers(0, 16))
        with tempfile.TemporaryDirectory() as d:
            blob = _flip(_valid(name, V, seed, d), offset, fmt, bit)
            path = Path(d) / f"flipped.{name}"
            path.write_bytes(blob)
            try:
                FORMATS[name][1](path)
            except ArtifactError as e:
                assert str(path) in str(e)

    @given(cases, st.integers(0, 26))
    @settings(max_examples=30, deadline=None)
    def test_ppmi_v_flip_caught_before_the_matrix_is_built(self, case, bit):
        # The V+1 row offsets are sized by V, so another V never matches the
        # file's length: a larger one fails as truncated before anything
        # V-sized is allocated.
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = _flip(_valid("tvpm", V, seed, d), 8, "<Q", bit)
            path = Path(d) / "flipped.tvpm"
            path.write_bytes(blob)
            tracemalloc.start()
            try:
                with pytest.raises(ArtifactError) as info:
                    read_ppmi(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value).startswith(f"{path}: ")
            if V ^ 1 << bit > V:
                assert str(info.value).startswith(f"{path}: truncated: ")
            assert peak < 2**20


class TestMappedRead:
    """Artifacts are mapped, not read: arrays are read-only views into the
    file. TestDamagedArtifacts checks that the whole file is still
    length-checked."""

    @staticmethod
    def _tvem(path, T=4, V=5, d=3):
        rng = np.random.default_rng(7)
        mats = [rng.standard_normal((V, d)) for _ in range(T)]
        labels = list(range(1990, 1990 + T))
        write_embeddings_binary(mats, labels, path)
        return mats, labels

    @pytest.mark.parametrize("name", ["tvco", "tvpm", "tvem"])
    def test_empty_file_is_an_artifact_error(self, tmp_path, name):
        path = tmp_path / f"empty.{name}"
        path.write_bytes(b"")
        with pytest.raises(ArtifactError) as info:
            FORMATS[name][1](path)
        assert str(info.value) == (
            f"{path}: bad magic b'', expected {FORMATS[name][2]!r}")

    def test_arrays_are_read_only_views(self, tmp_path):
        path = tmp_path / "e.tvem"
        self._tvem(path)
        mats, _ = read_embeddings_binary(path)
        assert not any(m.flags.writeable for m in mats)
        with pytest.raises(ValueError, match="read-only"):
            mats[0][0, 0] = 1.0

    def test_atomic_replace_leaves_a_mapped_read_intact(self, tmp_path):
        path = tmp_path / "e.tvem"
        mats, labels = self._tvem(path)
        before, _ = read_embeddings_binary(path)
        write_embeddings_binary([-m for m in mats], labels, path)
        after, _ = read_embeddings_binary(path)
        for m, old, new in zip(mats, before, after):
            assert np.array_equal(old, m)
            assert np.array_equal(new, -m)


class TestRowNorms:
    """A .tvem stores each slice's row norms with the bits that
    `np.linalg.norm(view, axis=1)` gives on the read slice, wherever the
    slice starts in the file."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 30),
           st.integers(1, 60), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_the_norms_of_the_read_slices(self, seed, T, V, d,
                                                       zero_frac):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(T):
            m = rng.standard_normal((V, d)) * 10.0 ** rng.integers(-3, 4)
            m[rng.random(V) < zero_frac] = 0.0
            mats.append(m)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.tvem"
            write_embeddings_binary(mats, list(range(T)), path)
            read, _, norms = read_embeddings_binary(path, with_norms=True)
            for m, view, stored in zip(mats, read, norms):
                assert stored.shape == (V,)
                assert (stored.tobytes()
                        == np.linalg.norm(view, axis=1).tobytes()
                        == np.linalg.norm(m, axis=1).tobytes())

    @pytest.mark.parametrize("T", range(1, 9))
    def test_slices_at_every_offset_of_a_cache_line(self, tmp_path, T):
        # Slice t starts at byte 32 + 8 T + 14800 t of the page-aligned
        # mapping, so over T = 1..8 slices start at every multiple of 8
        # modulo 64, as pipeline-sized slices (d = 50) do.
        rng = np.random.default_rng(T)
        mats = [rng.standard_normal((37, 50)) for _ in range(T)]
        mats[0][3] = 0.0
        write_embeddings_binary(mats, list(range(T)), tmp_path / "e.tvem")
        read, _, norms = read_embeddings_binary(tmp_path / "e.tvem",
                                                with_norms=True)
        starts = [view.__array_interface__["data"][0] % 64 for view in read]
        assert starts == [(32 + 8 * T + 14800 * t) % 64 for t in range(T)]
        for view, stored in zip(read, norms):
            assert (stored.tobytes()
                    == np.linalg.norm(view, axis=1).tobytes())


class TestCsrBlock:
    """A CSR block's columns strictly increase within each row. A canonical
    symmetric matrix reads back as the CSR arrays it was written from, as
    writable copies with int32 indices. A matrix with unsorted columns or
    holding duplicates is refused by both writers, and a file that holds
    one anyway by both readers."""

    @given(seed=st.integers(0, 2**32 - 1), V=st.integers(0, 12),
           nnz=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_canonical_blocks_round_trip(self, seed, V, nnz):
        rng = np.random.default_rng(seed)
        if V == 0:
            nnz = 0
        # Few distinct positions, so duplicates are common before summing.
        row = rng.integers(0, max(V, 1), size=nnz)
        col = rng.integers(0, max(V, 1), size=nnz)
        half = sp.csr_matrix((rng.integers(1, 9, size=nnz), (row, col)),
                             shape=(V, V))
        matrix = sp.csr_matrix(half + half.T)
        assert sp.csr_matrix(matrix).has_canonical_format
        with tempfile.TemporaryDirectory() as d:
            write_stats(SliceStats(matrix, np.ones(V, np.int64), V, 2),
                        Path(d) / "s.tvco")
            write_ppmi(PpmiMatrix(matrix * 0.5, slice_label=1),
                       Path(d) / "m.tvpm")
            back = [read_stats(Path(d) / "s.tvco").cooc,
                    read_ppmi(Path(d) / "m.tvpm").values]
        for got, want in zip(back, [matrix, matrix * 0.5]):
            assert got.shape == (V, V)
            for array, expected, dtype in [
                    (got.indptr, want.indptr, np.int32),
                    (got.indices, want.indices, np.int32),
                    (got.data, want.data, want.data.dtype)]:
                assert array.dtype == dtype and array.flags.writeable
                assert np.array_equal(array, expected)

    @given(seed=st.integers(0, 2**32 - 1), V=st.integers(1, 12),
           nnz=st.integers(1, 60),
           kind=st.sampled_from(["unsorted", "duplicate"]))
    @settings(max_examples=100, deadline=None)
    def test_other_blocks_are_rejected(self, seed, V, nnz, kind):
        rng = np.random.default_rng(seed)
        half = sp.csr_matrix((rng.integers(1, 9, size=nnz),
                              (rng.integers(0, V, size=nnz),
                               rng.integers(0, V, size=nnz))), shape=(V, V))
        arrays = damaged_csr(sp.csr_matrix(half + half.T), kind, rng)
        assume(arrays is not None)
        indptr, indices, data = arrays
        matrix = sp.csr_matrix((data, indices, indptr), shape=(V, V))
        unigram = np.ones(V, np.int64)
        block = [("<Q", len(data)), indptr.astype("<u8"),
                 indices.astype("<u4")]
        with tempfile.TemporaryDirectory() as d:
            tvco, tvpm = Path(d) / "s.tvco", Path(d) / "m.tvpm"
            with pytest.raises(ValueError, match="strictly increase"):
                write_stats(SliceStats(matrix, unigram, V, 2), tvco)
            with pytest.raises(ValueError, match="strictly increase"):
                write_ppmi(PpmiMatrix(matrix * 0.5, slice_label=1), tvpm)
            assert list(Path(d).iterdir()) == []
            write_artifact(tvco, STATS_MAGIC, STATS_VERSION, [
                ("<QIQ", V, 2, V), unigram.astype("<u8"), *block,
                data.astype("<u8")])
            write_artifact(tvpm, PPMI_MAGIC, PPMI_VERSION, [
                ("<Qq", V, 1), *block, (data * 0.5).astype("<f8")])
            for path, read in [(tvco, read_stats), (tvpm, read_ppmi)]:
                with pytest.raises(ArtifactError, match=(
                        f"{path}: column indices must strictly increase "
                        "within each row")):
                    read(path)


class TestReadText:
    def test_keeps_line_endings(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes("a\r\nb\rc\u2028\n".encode("utf-8"))
        assert read_text(p) == "a\r\nb\rc\u2028\n"

    def test_non_utf8_is_an_artifact_error(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"ok\ncaf\xe9\n")
        with pytest.raises(ArtifactError) as info:
            read_text(p)
        assert str(info.value) == f"{p}: not valid UTF-8"

    def test_directory_is_an_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError) as info:
            read_text(tmp_path)
        assert str(info.value) == f"{tmp_path}: {os.strerror(errno.EISDIR)}"

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_text(tmp_path / "nope.txt")

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_directory_as_artifact(self, tmp_path, name):
        with pytest.raises(ArtifactError) as info:
            FORMATS[name][1](tmp_path)
        assert str(info.value) == f"{tmp_path}: {os.strerror(errno.EISDIR)}"


class TestAtomicWrite:
    def test_failed_replace_leaves_target_and_no_temp(self, tmp_path,
                                                     monkeypatch):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "missing" / "a.bin"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_bytes(target, b"new")
        assert info.value.filename == str(target)
        assert str(target) + "." not in str(info.value)

    def test_chunks_raising_partway_leave_target_and_no_temp(self, tmp_path):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            atomic_write(target, chunks())
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_failed_replace_of_chunks_names_the_target(self, tmp_path,
                                                      monkeypatch):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(src))

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError) as info:
            atomic_write(target, iter([b"n", b"e", b"w"]))
        assert info.value.filename == str(target)
        assert target.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_text_embeddings_are_written_without_holding_the_file(self,
                                                                 tmp_path):
        rng = np.random.default_rng(16)
        V, T, d = 4200, 8, 50
        mats = [rng.standard_normal((V, d)) for _ in range(T)]
        words = [f"w{i}" for i in range(V)]
        p = tmp_path / "e.txt"
        tracemalloc.start()
        try:
            write_embeddings_text(mats, list(range(T)), words, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = p.stat().st_size
        assert size >= 20e6
        assert peak < size / 4

    def test_permissions_match_a_plain_write(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"x")
        atomic_write_bytes(tmp_path / "atomic", b"x")
        assert (tmp_path / "atomic").stat().st_mode == (
            tmp_path / "plain"
        ).stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]

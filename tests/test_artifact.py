"""The artifact container: a damaged file of any of the three binary formats
raises ArtifactError naming its path, and writes are atomic."""

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

from tvembed.artifact import ArtifactError, atomic_write_bytes, read_text
from tvembed.corpus import SliceStats, read_stats, write_stats
from tvembed.ppmi import PpmiMatrix, read_ppmi, write_ppmi
from tvembed.solver import read_embeddings_binary, write_embeddings_binary


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


# name -> (writer, reader, magic, offset of the row array in a triplet
# block as a function of V, or None)
FORMATS = {
    "tvco": (_write_tvco, read_stats, b"TVCO", lambda V: 36 + 8 * V),
    "tvpm": (_write_tvpm, read_ppmi, b"TVPM", lambda V: 32),
    "tvem": (_write_tvem, read_embeddings_binary, b"TVEM", None),
}

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
    @given(cases, st.integers(0, 2**32 - 1).filter(lambda v: v != 1))
    @settings(max_examples=15, deadline=None)
    def test_wrong_version_raises(self, name, case, version):
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = _valid(name, V, seed, d)
            blob = blob[:4] + struct.pack("<I", version) + blob[8:]
            _raises_naming(name, blob, d)

    @pytest.mark.parametrize("name", ["tvco", "tvpm"])
    @given(cases, st.data())
    @settings(max_examples=15, deadline=None)
    def test_triplet_index_out_of_range_raises(self, name, case, data):
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = bytearray(_valid(name, V, seed, d))
            rows_at = FORMATS[name][3](V)
            (nnz,) = struct.unpack_from("<Q", blob, rows_at - 8)
            assume(nnz > 0)
            i = data.draw(st.integers(0, 2 * nnz - 1))
            struct.pack_into("<I", blob, rows_at + 4 * i,
                             data.draw(st.integers(V, 2**32 - 1)))
            _raises_naming(name, bytes(blob), d)

    @each_format
    @given(cases, st.data())
    @settings(max_examples=30, deadline=None)
    def test_header_bit_flip_raises_or_reads(self, name, case, data):
        # A flipped header bit either makes the file unreadable with an
        # ArtifactError or yields another well-formed file (a new label, a
        # larger V with the same triplets), never another exception. Bits
        # stay low so a larger V allocates little.
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
        V, seed = case
        with tempfile.TemporaryDirectory() as d:
            blob = _flip(_valid("tvpm", V, seed, d), 8, "<Q", bit)
            path = Path(d) / "flipped.tvpm"
            path.write_bytes(blob)

            def check(found, label):
                if found != V:
                    raise ArtifactError(path, f"V={found}, expected {V}")

            tracemalloc.start()
            try:
                with pytest.raises(ArtifactError, match=f"V={V ^ 1 << bit},"):
                    read_ppmi(path, check=check)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


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

    def test_permissions_match_a_plain_write(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"x")
        atomic_write_bytes(tmp_path / "atomic", b"x")
        assert (tmp_path / "atomic").stat().st_mode == (
            tmp_path / "plain"
        ).stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]

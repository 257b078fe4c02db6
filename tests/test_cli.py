import contextlib
import errno
import hashlib
import io
import json
import os
import shlex
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    damaged_csr,
    loop_local_linear_map,
    loop_nearest_neighbors,
    write_jsonl,
    write_planted_jsonl,
    write_slice_dirs,
)
from tvembed.cli import (
    COMMANDS,
    RunConfig,
    derive_seed,
    main,
    make_parser,
    parse_config_file,
)
from tvembed import baselines, cli, evaluation, solver
from tvembed.evaluation import nearest_neighbors
from tvembed.corpus import (SliceStats, TimeSlicedCorpus, read_stats,
                            write_stats)
from tvembed.ppmi import read_ppmi, write_ppmi
from tvembed.solver import read_embeddings_binary, write_embeddings_binary
from tvembed.synthetic import planted_shift_corpus


# The environment of a `python -m tvembed.cli` child: this checkout's
# package first on its path.
_SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]),
                  os.environ.get("PYTHONPATH")])))


@pytest.fixture
def toy_corpus(tmp_path):
    """Three-slice corpus: two stable topics, plus a word that migrates."""
    rng = np.random.default_rng(123)
    pets = [f"pet{i}" for i in range(8)]
    tech = [f"tech{i}" for i in range(8)]
    corpus_dir = tmp_path / "corpus"
    for year in (1990, 1995, 2000):
        d = corpus_dir / str(year)
        d.mkdir(parents=True)
        for doc_id in range(30):
            pool = pets if doc_id % 2 == 0 else tech
            words = [pool[i] for i in rng.integers(8, size=15)]
            if year >= 1995 and doc_id % 2 == 1:
                words.append("shifty")
            elif year < 1995 and doc_id % 2 == 0:
                words.append("shifty")
            (d / f"doc{doc_id}.txt").write_text(" ".join(words))
    return corpus_dir


@pytest.fixture
def run_dir(tmp_path, toy_corpus):
    out = tmp_path / "run"
    code = main(
        [
            "build",
            "--corpus",
            str(toy_corpus),
            "--out",
            str(out),
            "--window",
            "3",
            "--min-count",
            "2",
        ]
    )
    assert code == 0
    return out


# (query label, target label) pairs of `_write_ring_testset`: first slice to
# last, back, within one slice, and first to a middle one.
_RING_PAIRS = ((0, 3), (3, 0), (1, 1), (0, 2))


def _write_ring_testset(path, community_size, pairs):
    """Write a testset for a planted-shift run to `path`: for every third
    ring word i, from each label to its partner in `pairs`, alpha i answered
    by itself and beta i by beta i+1, then probeword answered by alpha i."""
    rows = ["query_word,query_label,target_label,answer_word"]
    for i in range(0, community_size, 3):
        for a, b in pairs:
            rows.append(f"alpha{i:03d},{a},{b},alpha{i:03d}")
            rows.append(f"beta{i:03d},{a},{b},"
                        f"beta{(i + 1) % community_size:03d}")
        rows.append(f"probeword,0,3,alpha{i:03d}")
    Path(path).write_text("\n".join(rows) + "\n")


def _build_planted(tmp_path, **params):
    """The run directory tmp_path / "run" built with window 3 from the
    planted-shift corpus of `params`."""
    path = tmp_path / "corpus.jsonl"
    write_planted_jsonl(path, planted_shift_corpus(**params))
    out = tmp_path / "run"
    assert main(["build", "--corpus", str(path), "--out", str(out),
                 "--window", "3"]) == 0
    return out


def train_args(out, method="dw2v", **extra):
    args = [
        "train",
        "--out",
        str(out),
        "--method",
        method,
        "--dim",
        "5",
        "--epochs",
        "3",
        "--ridge",
        "1",
        "--smoothing",
        "5",
        "--coupling",
        "5",
    ]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


class TestBuild:
    def test_artifact_files(self, run_dir):
        assert (run_dir / "vocab.txt").exists()
        for year in (1990, 1995, 2000):
            assert (run_dir / f"stats_{year}.tvco").exists()
            assert (run_dir / f"ppmi_{year}.tvpm").exists()

    def test_rerun_bit_identical(self, toy_corpus, tmp_path, run_dir):
        other = tmp_path / "run2"
        main(
            [
                "build",
                "--corpus",
                str(toy_corpus),
                "--out",
                str(other),
                "--window",
                "3",
                "--min-count",
                "2",
            ]
        )
        for name in ("vocab.txt", "stats_1990.tvco", "ppmi_2000.tvpm"):
            assert (run_dir / name).read_bytes() == (other / name).read_bytes()

    def test_missing_corpus_dir(self, tmp_path, capsys):
        code = main(
            ["build", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus_key = 1\n")
        code = main(["build", "--config", str(cfg)])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_non_integer_slice_directory(self, toy_corpus, tmp_path, capsys):
        (toy_corpus / "misc").mkdir()
        code = main(["build", "--corpus", str(toy_corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {toy_corpus / 'misc'}")

    @pytest.mark.parametrize("line", [
        "{not json",
        '{"text": "no label"}',
        '{"label": "soon", "text": "label not an integer"}',
        '["label", 1990]',
        '{"label": 1991, "text": 5}',
    ])
    def test_malformed_jsonl_line(self, tmp_path, capsys, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"label": 1990, "text": "a b c"}\n' + line + "\n")
        code = main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {corpus}:2:")

    @pytest.mark.parametrize("label", ["2.7", "true", '"3"', "2e0", "null"])
    def test_non_integer_jsonl_label(self, tmp_path, capsys, label):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"label": 1, "text": "a b c"}\n'
                          f'{{"label": {label}, "text": "d e f"}}\n')
        code = main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f'error: {corpus}:2: expected a JSON object with an integer '
            '"label" and a string "text"']

    @pytest.mark.parametrize("names", [("1", "01"), ("1000", "1_000")])
    def test_directories_with_one_label(self, tmp_path, capsys, names):
        corpus = tmp_path / "corpus"
        for name in names:
            (corpus / name).mkdir(parents=True)
            (corpus / name / "d.txt").write_text("a b c")
        code = main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        named = [str(corpus / name) for name in names]
        assert all(f"{path}:" in err[0] or err[0].endswith(path)
                   for path in named)
        assert not (tmp_path / "run").exists()

    def test_slice_directory_without_files(self, toy_corpus, tmp_path):
        (toy_corpus / "1997").mkdir()
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(toy_corpus), "--out", str(out),
                     "--window", "3", "--min-count", "2"]) == 0
        assert json.loads((out / "labels.json").read_text()) == [
            1990, 1995, 1997, 2000]
        assert read_stats(out / "stats_1997.tvco").total_tokens == 0
        ppmi = read_ppmi(out / "ppmi_1997.tvpm")
        assert ppmi.slice_label == 1997 and ppmi.values.nnz == 0

    @pytest.mark.parametrize("text", ["", "\n  \n\r\n"],
                             ids=["empty", "blank-lines"])
    def test_jsonl_without_records(self, tmp_path, capsys, text):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(text.encode())
        code = main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}: no record"]
        assert not (tmp_path / "run").exists()

    def test_all_slice_directories_without_files(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for year in (1990, 1995):
            (corpus / str(year)).mkdir(parents=True)
        code = main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


    # SHA-256 of the integer and text artifacts of one fixed build, recorded
    # with the per-document counting loop. These files hold no floats, so the
    # digests do not depend on the CPU or the BLAS library. The .tvco
    # digests were recorded again for format version 2 (a CSR block), whose
    # decoded arrays and headers equal version 1's.
    GOLDEN_DIGESTS = {
        "vocab.txt":
            "edadf460dce929f1815abe2b3c485255a5cb874cb319dd0ea1915eb5e84508e1",
        "labels.json":
            "02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780",
        "stats_0.tvco":
            "847621818b06c018bb503c34533ee24a2435598d7ee972f084437789025f26df",
        "stats_1.tvco":
            "4f3392834755cb08492e163edac2582123b4e6f9c5b636edf0822f0d00d106e3",
        "stats_2.tvco":
            "4c660f9a2a03f011f58478fd1873353b248caa210c8d64b4cb65fb8692ea77de",
        "stats_3.tvco":
            "2eed2e8cb0a5e693704fe2aade4f387f8c98da1399a02628f12eabd78b158769",
    }

    def test_golden_digests(self, tmp_path):
        corpus = planted_shift_corpus(n_slices=4, community_size=30,
                                      docs_per_slice=60, doc_len=12, halo=3,
                                      seed=7)
        records = []
        for label, ids in zip(corpus.slice_labels, corpus.slices):
            docs = ids.documents()
            # A hapax below --min-count (out-of-vocabulary positions) and an
            # empty document ride along in every slice.
            extra = [docs[0][:5] + [f"hapax{label}"] + docs[1][:5], []]
            records += [(label, " ".join(doc)) for doc in docs + extra]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records)
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(path), "--out", str(out),
                     "--window", "3", "--min-count", "2"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN_DIGESTS}
        assert digests == self.GOLDEN_DIGESTS

    # SHA-256 of every file one fixed directory-layout build writes, recorded
    # with the per-token string tokenizer and vocabulary; the .tvco and .tvpm
    # digests again for format version 2, as in GOLDEN_DIGESTS. The corpus
    # has a stopword file, numeric tokens, underscores, an empty file and
    # documents that only the regex tokenizer splits correctly.
    DIRECTORY_GOLDEN_DIGESTS = {
        "vocab.txt":
            "7d439913edadbe7cfe5e07b6775d9a61613ec6725ca7a664a62e82a72fbb57f3",
        "labels.json":
            "e1b8a126e0a2aa1fe76286a7f79cc02886fa3304cade0dc550b66e830e999b93",
        "stats_1990.tvco":
            "97771355866ddb1e96640fd2d41be7cb7967ef7b2763b860e9d572ee36d9b0cf",
        "stats_1995.tvco":
            "e4d5eb96abecba2b976324aab8b3e614662466d8d4664203d4d33d4c38dd6206",
        "stats_2000.tvco":
            "99299235627a83d52410147e19475948823f7f6db5581d7eba6809a193816196",
        "ppmi_1990.tvpm":
            "6aed7752fcc77a1341150dd958ba79d2d96d6dfa46dc76bbd44490b6e9818a81",
        "ppmi_1995.tvpm":
            "13e13076b3def514f653353a0b37c6ad13288dadbc657a8f9ddeb3a8b13a7445",
        "ppmi_2000.tvpm":
            "f98259dcadd5d3d02c127071305460e66e46bac7e85ed761c73465ef16702580",
    }

    def test_directory_golden_digests(self, tmp_path):
        rng = np.random.default_rng(17)
        pool = ([f"w{i}" for i in range(12)]
                + ["The", "and", "AND", "1991", "3", "snake_case", "_x_",
                   "Stra\u00dfe", "\u0130stanbul", "\u00bd", "\u00b2",
                   "\u0663", "na\u00efve", "cafe\u0301",
                   "\u03a3\u038a\u03a3\u03a5\u03a6\u039f\u03a3",
                   "x\u00a0y", "a\u2028b", "don't"])
        corpus = tmp_path / "corpus"
        for year in (1990, 1995, 2000):
            (corpus / str(year)).mkdir(parents=True)
            for doc_id in range(12):
                words = [pool[i] for i in rng.integers(len(pool), size=14)]
                if doc_id % 3 == 0:
                    # Only plain words: the whitespace-split case.
                    words = [w for w in words if w.startswith("w")]
                (corpus / str(year) / f"d{doc_id:02d}.txt").write_text(
                    " ".join(words), encoding="utf-8")
            (corpus / str(year) / "empty.txt").write_text("")
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nAND\nw3\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out),
                     "--window", "2", "--min-count", "2",
                     "--stopwords", str(stop)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.DIRECTORY_GOLDEN_DIGESTS}
        assert sorted(p.name for p in out.iterdir()) == sorted(digests)
        assert digests == self.DIRECTORY_GOLDEN_DIGESTS

    def test_stopwords_dropped_from_vocab_and_counts(self, toy_corpus,
                                                     tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("pet0\n\ntech1\n")
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(toy_corpus), "--out", str(out),
                     "--window", "3", "--stopwords", str(stop)]) == 0
        words = (out / "vocab.txt").read_text().split()
        assert "pet0" not in words and "tech1" not in words
        assert "pet1" in words and "tech0" in words
        # The counts equal those of the corpus with the stopwords cut out of
        # its text, so windows close over the removed tokens.
        stripped = tmp_path / "stripped"
        for doc in toy_corpus.glob("*/*.txt"):
            dest = stripped / doc.parent.name / doc.name
            dest.parent.mkdir(parents=True, exist_ok=True)
            kept = [w for w in doc.read_text().split()
                    if w not in ("pet0", "tech1")]
            dest.write_text(" ".join(kept))
        ref = tmp_path / "ref"
        assert main(["build", "--corpus", str(stripped), "--out", str(ref),
                     "--window", "3"]) == 0
        for name in ("vocab.txt", "stats_1990.tvco", "stats_1995.tvco",
                     "stats_2000.tvco"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_missing_stopword_file(self, toy_corpus, tmp_path, capsys):
        stop = tmp_path / "nope.txt"
        code = main(["build", "--corpus", str(toy_corpus),
                     "--out", str(tmp_path / "run"), "--stopwords", str(stop)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(stop) in err[0]

    def test_non_utf8_slice_file(self, toy_corpus, tmp_path, capsys):
        bad = toy_corpus / "1995" / "latin1.txt"
        bad.write_bytes("caf\u00e9 au lait".encode("latin-1"))
        code = main(["build", "--corpus", str(toy_corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: not valid UTF-8"]

    def test_non_utf8_jsonl_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(
            b'{"label": 1990, "text": "a b c"}\n'
            b'{"label": 1990, "text": "d e f"}\n'
            b'{"label": 1991, "text": "caf\xe9"}\n'
        )
        code = main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {corpus}:3: not valid UTF-8"]

    def test_jsonl_byte_order_mark(self, tmp_path, capsys):
        # Some editors start a UTF-8 file with a byte-order mark.
        records = (b'{"label": 1990, "text": "cat dog fish cat"}\n'
                   b'{"label": 1991, "text": "dog cat bird"}\n')
        runs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            corpus = tmp_path / f"{name}.jsonl"
            corpus.write_bytes(prefix + records)
            runs.append(tmp_path / name)
            assert main(["build", "--corpus", str(corpus),
                         "--out", str(runs[-1])]) == 0
        plain, bom = runs
        assert sorted(p.name for p in bom.iterdir()) == sorted(
            p.name for p in plain.iterdir())
        for path in plain.iterdir():
            assert (bom / path.name).read_bytes() == path.read_bytes()
        # Only a leading mark is dropped; one that starts line 2 is part of
        # the record.
        corpus = tmp_path / "late.jsonl"
        corpus.write_bytes(records.replace(b"\n{", b"\n\xef\xbb\xbf{"))
        capsys.readouterr()
        assert main(["build", "--corpus", str(corpus),
                     "--out", str(tmp_path / "late")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}:2: expected a JSON object with an integer "
            '"label" and a string "text"']

    @pytest.mark.parametrize("label", [2**63, -2**63 - 1,
                                       99999999999999999999])
    def test_slice_label_outside_int64(self, tmp_path, capsys, label):
        # Artifacts store slice labels as signed 64-bit integers.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"label": 1990, "text": "a b c"}\n'
                          f'{{"label": {label}, "text": "d e f"}}\n')
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {corpus}:2: slice label {label} is outside the signed "
            "64-bit range"]
        assert not out.exists()

    def test_slice_label_int64_extremes(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            f'{{"label": {label}, "text": "a b c"}}\n'
            for label in (-2**63, 2**63 - 1)))
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert json.loads((out / "labels.json").read_text()) == [
            -2**63, 2**63 - 1]
        assert read_ppmi(out / f"ppmi_{-2**63}.tvpm").slice_label == -2**63

    @pytest.mark.parametrize("name", ["99999999999999999999",
                                      "9223372036854775808",
                                      "-9223372036854775809"])
    def test_slice_directory_outside_int64(self, toy_corpus, tmp_path,
                                           capsys, name):
        (toy_corpus / name).mkdir()
        (toy_corpus / name / "d.txt").write_text("pet0 pet1")
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(toy_corpus),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {toy_corpus / name}: slice label {int(name)} is outside "
            "the signed 64-bit range"]
        assert not out.exists()


    def test_rebuild_removes_every_method_embeddings(self, tmp_path,
                                                      capsys):
        # Embeddings trained on an earlier corpus with the same V and slice
        # labels must not answer for the new vocabulary.
        def build(text, out):
            corpus = tmp_path / "corpus.jsonl"
            write_jsonl(corpus, [(0, text), (1, text)])
            assert main(["build", "--corpus", str(corpus), "--out",
                         str(out)]) == 0

        out = tmp_path / "run"
        build("cat dog fish bird", out)
        for method in ("dw2v", "sw2v", "tw2v", "aw2v"):
            assert main(["train", "--out", str(out), "--method", method,
                         "--dim", "2", "--epochs", "1"]) == 0
        (out / "notes.txt").write_text("kept")
        build("ant cow fish bird", out)
        assert sorted(p.name for p in out.iterdir()) == [
            "labels.json", "notes.txt", "ppmi_0.tvpm", "ppmi_1.tvpm",
            "stats_0.tvco", "stats_1.tvco", "vocab.txt"]
        capsys.readouterr()
        assert main(["query", "ant", "--out", str(out), "--label", "0"]) == 2
        assert capsys.readouterr() == ("", f"error: {out}/embeddings_dw2v."
                                       "tvem: missing; run train first\n")


class TestTrain:
    def test_dw2v_epoch_log_non_increasing(self, run_dir, capsys):
        assert main(train_args(run_dir)) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("epoch")
        ]
        objs = [float(line.split()[-1]) for line in lines]
        assert len(objs) == 3
        assert objs == sorted(objs, reverse=True)
        assert (run_dir / "embeddings_dw2v.tvem").exists()
        assert (run_dir / "embeddings_dw2v.txt").exists()

    def test_dw2v_peak_memory(self, tmp_path):
        # Training holds the PPMI, U and W, plus an update's V x d
        # temporaries: Y(t) F, B and the solved factor before it replaces
        # the old one. Averaging U and W and writing the embeddings add no
        # model copy. SLACK covers what is not V x d: the vocabulary, the
        # parser, the d x d systems and the writers' blocks.
        TEMPORARIES, SLACK = 3, 2**20
        path = tmp_path / "corpus.jsonl"
        write_planted_jsonl(path)
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(path), "--out", str(out)]) == 0
        labels = json.loads((out / "labels.json").read_text())
        ppmi = (read_ppmi(out / f"ppmi_{label}.tvpm").values
                for label in labels)
        ppmi_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                         for m in ppmi)
        V, T, d = len(cli.read_vocab(out / "vocab.txt")), len(labels), 50
        tracemalloc.start()
        try:
            code = main(["train", "--out", str(out), "--dim", str(d),
                         "--epochs", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        model = T * V * d * 8
        assert peak <= (ppmi_bytes + 2 * model + TEMPORARIES * V * d * 8
                        + SLACK)

    # The epoch lines of two fixed runs, recorded when `train` called
    # objective() once per epoch. Users and scripts parse this format.
    RECORDED_EPOCH_LINES = {
        "toy": ["epoch 1: objective 9.866454e+02",
                "epoch 2: objective 3.286887e+02",
                "epoch 3: objective 1.697596e+02"],
        "planted": ["epoch 1: objective 1.025853e+04",
                    "epoch 2: objective 9.405775e+03",
                    "epoch 3: objective 9.260675e+03",
                    "epoch 4: objective 9.188993e+03",
                    "epoch 5: objective 9.104806e+03",
                    "epoch 6: objective 8.980812e+03",
                    "epoch 7: objective 8.792301e+03",
                    "epoch 8: objective 8.519150e+03"],
    }

    def test_epoch_lines_match_recorded(self, run_dir, tmp_path, capsys):
        path = tmp_path / "planted.jsonl"
        write_planted_jsonl(path, planted_shift_corpus(
            n_slices=5, community_size=20, docs_per_slice=80, doc_len=12,
            halo=3, seed=11))
        planted = tmp_path / "planted"
        assert main(["build", "--corpus", str(path), "--out", str(planted),
                     "--window", "3"]) == 0
        runs = {"toy": train_args(run_dir),
                "planted": ["train", "--out", str(planted), "--dim", "6",
                            "--epochs", "8", "--seed", "4"]}
        for name, argv in runs.items():
            capsys.readouterr()
            assert main(argv) == 0
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("epoch")]
            assert lines == self.RECORDED_EPOCH_LINES[name]

    def test_aw2v_writes_aligned_only(self, run_dir):
        assert main(train_args(run_dir, method="aw2v")) == 0
        assert (run_dir / "embeddings_aw2v.tvem").exists()
        assert not (run_dir / "embeddings_aw2v_perslice.tvem").exists()
        assert not (run_dir / "embeddings_aw2v_perslice.txt").exists()

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # A BLAS product of two V x d slices sums in an order set by the
        # thread count: at V >= 500 and d = 50, such a product in the
        # Procrustes map gave aw2v other bits under 1 and 2 OpenBLAS
        # threads. Each thread count trains every method and evaluates it
        # in one process.
        path = tmp_path / "corpus.jsonl"
        write_planted_jsonl(path, planted_shift_corpus(
            n_slices=4, community_size=300, docs_per_slice=400, doc_len=15,
            halo=3, seed=7))
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(path), "--out", str(out)]) == 0
        assert len(cli.read_vocab(out / "vocab.txt")) == 601
        testset = tmp_path / "t.csv"
        _write_ring_testset(testset, 300, _RING_PAIRS)
        commands = [argv for m in ("dw2v", "sw2v", "aw2v", "tw2v")
                    for argv in (["train", "--out", str(out), "--method", m,
                                  "--dim", "50", "--epochs", "2"],
                                 ["evaluate", "--out", str(out), "--method", m,
                                  "--testset", str(testset), "--json-out",
                                  str(out / f"report_{m}.json")])]
        script = ("import json, sys\nfrom tvembed.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert main(argv) == 0, argv\n")
        runs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(commands)],
                capture_output=True, text=True,
                env=dict(_SUBPROCESS_ENV, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            runs.append({f.name: f.read_bytes() for f in out.iterdir()
                         if f.name.startswith(("embeddings_", "report_"))})
        assert len(runs[0]) == 12
        assert runs[0] == runs[1]

    def test_sw2v_static_replicated(self, run_dir):
        assert main(train_args(run_dir, method="sw2v")) == 0
        mats, labels = read_embeddings_binary(run_dir / "embeddings_sw2v.tvem")
        assert labels == [1990, 1995, 2000]
        assert np.array_equal(mats[0], mats[1])

    # SHA-256 of the sw2v embeddings of one fixed planted-shift run, recorded
    # while `train --method sw2v` still read every .tvpm. It trains on the
    # counts alone, so the same bytes come back with no .tvpm in --out. The
    # files hold trained floats, so another BLAS library may change them.
    # The .tvem digest was recorded again for format version 2, whose bytes
    # up to the end of the matrices equal version 1's but for the version.
    SW2V_GOLDEN = {
        "embeddings_sw2v.tvem":
            "c3ddfb9e55cff04ce90e68cabf75adcd51844126abebbfc300e0d2c8a3a49376",
        "embeddings_sw2v.txt":
            "8b8e0157daad6956241f2a404e29f1bc5b38e72eca9ebff4b29ca759ef1b3b3a",
    }

    def test_sw2v_golden_digests_without_ppmi(self, tmp_path):
        out = _build_planted(
            tmp_path, n_slices=4, community_size=40, docs_per_slice=150,
            doc_len=12, halo=3, seed=31)
        for ppmi in out.glob("ppmi_*.tvpm"):
            ppmi.unlink()
        assert main(["train", "--out", str(out), "--method", "sw2v",
                     "--dim", "8", "--epochs", "2", "--seed", "5"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.SW2V_GOLDEN}
        assert digests == self.SW2V_GOLDEN

    def test_unknown_method(self, run_dir, capsys):
        code = main(train_args(run_dir, method="w2v"))
        assert code == 2
        assert "method" in capsys.readouterr().err

    def test_rerun_byte_identical(self, run_dir, tmp_path):
        main(train_args(run_dir))
        first = (run_dir / "embeddings_dw2v.tvem").read_bytes()
        main(train_args(run_dir))
        assert (run_dir / "embeddings_dw2v.tvem").read_bytes() == first

    def test_vocab_one_word_short(self, run_dir, capsys):
        vocab = run_dir / "vocab.txt"
        words = vocab.read_text().splitlines()
        vocab.write_text("\n".join(words[:-1]) + "\n")
        assert main(train_args(run_dir)) == 2
        ppmi = run_dir / "ppmi_1990.tvpm"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ppmi}: V={len(words)} but vocab.txt has "
            f"{len(words) - 1} words; rerun build"
        ]
        assert not (run_dir / "embeddings_dw2v.txt").exists()

    def test_vocab_word_listed_twice(self, run_dir, capsys):
        vocab = run_dir / "vocab.txt"
        words = vocab.read_text().splitlines()
        vocab.write_text("\n".join(words + words[:1]) + "\n")
        assert main(train_args(run_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {vocab}: duplicate words in vocabulary; rerun build"
        ]

    def test_truncated_ppmi(self, run_dir, capsys):
        ppmi = run_dir / "ppmi_1995.tvpm"
        ppmi.write_bytes(ppmi.read_bytes()[:-5])
        assert main(train_args(run_dir)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {ppmi}: truncated")

    def test_ppmi_of_another_slice(self, run_dir, capsys):
        ppmi = run_dir / "ppmi_1995.tvpm"
        ppmi.write_bytes((run_dir / "ppmi_2000.tvpm").read_bytes())
        assert main(train_args(run_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ppmi}: slice labels [2000] but labels.json expects "
            "[1995]; rerun build"
        ]

    def test_flipped_ppmi_v_fails_before_allocating(self, run_dir, capsys):
        # Bit 24 of V asks for a 16.8M-row matrix, whose V+1 row offsets the
        # file is too short to hold; nothing V-sized is allocated.
        ppmi = run_dir / "ppmi_1995.tvpm"
        blob = bytearray(ppmi.read_bytes())
        (V,) = struct.unpack_from("<Q", blob, 8)
        struct.pack_into("<Q", blob, 8, V ^ 1 << 24)
        ppmi.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            code = main(train_args(run_dir))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ppmi}: truncated: needs {8 * ((V ^ 1 << 24) + 1)} "
            f"bytes, has {len(blob) - 32}"
        ]
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("text", ["[1995, 1990, 2000]", "[1990, 1995.5]",
                                      "[]", '{"labels": [1990]}', "[1990,"])
    def test_malformed_labels_json(self, run_dir, capsys, text):
        (run_dir / "labels.json").write_text(text)
        assert main(train_args(run_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {run_dir / 'labels.json'}: expected a JSON list of "
            "strictly increasing integer labels"
        ]


class TestQuery:
    def test_all_years_has_t_rows(self, run_dir, capsys):
        main(train_args(run_dir))
        code = main(
            [
                "query",
                "shifty",
                "--out",
                str(run_dir),
                "--label",
                "1995",
                "--all-years",
            ]
        )
        assert code == 0
        rows = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("shifty@")
        ]
        assert len(rows) == 3

    def test_target_label_zero_is_honoured(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        docs = ["cat dog bird cat", "dog bird fish dog", "fish cat bird"]
        write_jsonl(corpus, [(label, text) for label in (0, 1)
                             for text in docs])
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out),
                     "--window", "2"]) == 0
        assert main(train_args(out, dim=2)) == 0
        capsys.readouterr()
        code = main(["query", "cat", "--out", str(out), "--label", "1",
                     "--target-label", "0", "-k", "2"])
        assert code == 0
        assert capsys.readouterr().out.startswith("cat@1 -> 0: ")

    def test_unknown_target_label(self, run_dir, capsys):
        main(train_args(run_dir))
        code = main(["query", "shifty", "--out", str(run_dir), "--label",
                     "1990", "--target-label", "1991"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: --target-label: unknown slice label 1991\n")

    def test_embeddings_of_a_run_with_other_labels(self, run_dir, toy_corpus,
                                                   tmp_path, capsys):
        main(train_args(run_dir))
        for f in (toy_corpus / "2000").iterdir():
            f.unlink()
        (toy_corpus / "2000").rmdir()
        other = tmp_path / "other"
        assert main(["build", "--corpus", str(toy_corpus), "--out",
                     str(other), "--window", "3", "--min-count", "2"]) == 0
        assert main(train_args(other)) == 0
        emb = run_dir / "embeddings_dw2v.tvem"
        emb.write_bytes((other / "embeddings_dw2v.tvem").read_bytes())
        capsys.readouterr()
        code = main(["query", "shifty", "--out", str(run_dir), "--label",
                     "1990"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {emb}: slice labels [1990, 1995] but labels.json "
            "expects [1990, 1995, 2000]; rerun train"
        ]

    def test_zero_query_vector_exit_3(self, run_dir, capsys):
        main(train_args(run_dir))
        path = run_dir / "embeddings_dw2v.tvem"
        mats, labels = read_embeddings_binary(path)
        mats = [m.copy() for m in mats]
        w = (run_dir / "vocab.txt").read_text().splitlines().index("shifty")
        mats[1][w] = 0
        write_embeddings_binary(mats, labels, path)
        capsys.readouterr()
        code = main(["query", "shifty", "--out", str(run_dir), "--label",
                     "1995", "--target-label", "2000"])
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: word 'shifty' has a zero vector in slice 1995\n")

    def test_oov_word_suggestions(self, run_dir, capsys):
        main(train_args(run_dir))
        code = main(
            ["query", "shiftee", "--out", str(run_dir), "--label", "1990"]
        )
        assert code == 3
        assert "shifty" in capsys.readouterr().err

    def test_stale_artifact_before_unknown_label(self, run_dir, capsys):
        main(train_args(run_dir))
        vocab = run_dir / "vocab.txt"
        n = len(vocab.read_text().splitlines())
        vocab.write_text(vocab.read_text() + "zebra\n")
        capsys.readouterr()
        code = main(["query", "shifty", "--out", str(run_dir), "--label",
                     "1991"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {run_dir / 'embeddings_dw2v.tvem'}: V={n} but vocab.txt "
            f"has {n + 1} words; rerun train"
        ]

    def test_second_query_sees_a_replaced_artifact(self, run_dir, capsys):
        # Nothing read by one main() call survives into the next.
        main(train_args(run_dir))
        argv = ["query", "shifty", "--out", str(run_dir), "--label", "1995",
                "-k", "4"]
        capsys.readouterr()
        assert main(argv) == 0
        first = capsys.readouterr().out
        path = run_dir / "embeddings_dw2v.tvem"
        mats, labels = read_embeddings_binary(path)
        rng = np.random.default_rng(5)
        new = [rng.standard_normal(m.shape) for m in mats]
        write_embeddings_binary(new, labels, path)  # atomic_write_bytes
        words = (run_dir / "vocab.txt").read_text().splitlines()
        w = words.index("shifty")
        top = nearest_neighbors(new[1][w], new[1], 4, drop=w)
        expected = "shifty@1995 -> 1995: " + ", ".join(
            f"{words[i]}:{s:.4f}" for i, s in top) + "\n"
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second == expected
        assert second != first

    def test_tw2v_cross_slice_query_is_mapped(self, tmp_path, capsys):
        out = _build_planted(
            tmp_path, n_slices=3, community_size=20, docs_per_slice=80,
            doc_len=12, halo=3, seed=13)
        assert main(["train", "--out", str(out), "--method", "tw2v",
                     "--dim", "5", "--epochs", "2"]) == 0
        capsys.readouterr()
        assert main(["query", "alpha005", "--out", str(out), "--label", "1",
                     "--all-years", "-k", "5", "--method", "tw2v"]) == 0
        mats, labels = read_embeddings_binary(
            out / "embeddings_tw2v_perslice.tvem")
        words = (out / "vocab.txt").read_text().splitlines()
        w = words.index("alpha005")
        expected = []
        for t, target in enumerate(labels):
            if target == 1:
                top = loop_nearest_neighbors(mats[1][w], mats[1], 5,
                                             exclude={w})
            else:
                mapped = loop_local_linear_map(w, mats[1], mats[t])
                top = loop_nearest_neighbors(mapped, mats[t], 5)
            expected.append(f"alpha005@1 -> {target}: " + ", ".join(
                f"{words[i]}:{s:.4f}" for i, s in top))
        assert capsys.readouterr().out.splitlines() == expected

    def test_all_years_with_target_label_exit_2(self, run_dir, capsys):
        main(train_args(run_dir))
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["query", "shifty", "--out", str(run_dir), "--label", "1990",
                  "--all-years", "--target-label", "1995"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "tvembed query: error: argument --target-label: not allowed with "
            "argument --all-years")

    # Recorded before .tvem files stored their row norms and before a
    # ranking over every row of a slice stopped copying them; the lines
    # must come back byte for byte. The toy run holds trained floats, so
    # another BLAS library may change them.
    RECORDED_QUERIES = {
        ("shifty", "--label", "1995", "--all-years", "-k", "3"): [
            "shifty@1995 -> 1990: tech3:0.9899, tech0:0.9890, tech1:0.9847",
            "shifty@1995 -> 1995: tech4:0.9737, tech0:0.9715, tech5:0.9679",
            "shifty@1995 -> 2000: shifty:0.9683, tech4:0.9521, tech0:0.9474",
        ],
        ("pet0", "--label", "2000", "--target-label", "1990", "-k", "5"): [
            "pet0@2000 -> 1990: pet1:0.8300, pet7:0.8293, pet2:0.8290, "
            "pet5:0.8186, pet0:0.8116",
        ],
    }

    def test_stdout_as_recorded(self, run_dir, capsys):
        assert main(train_args(run_dir)) == 0
        for argv, lines in self.RECORDED_QUERIES.items():
            capsys.readouterr()
            assert main(["query", *argv, "--out", str(run_dir)]) == 0
            assert capsys.readouterr() == ("\n".join(lines) + "\n", "")

    def test_tw2v_query_without_map_exit_3(self, run_dir, capsys):
        # The toy run has fewer than k=30 words besides the query, so no
        # slice pair has a local map; the same slice needs none.
        assert main(train_args(run_dir, "tw2v")) == 0
        capsys.readouterr()
        assert main(["query", "shifty", "--out", str(run_dir), "--label",
                     "1990", "--method", "tw2v"]) == 0
        assert capsys.readouterr().out.startswith("shifty@1990 -> 1990: ")
        assert main(["query", "shifty", "--out", str(run_dir), "--label",
                     "1990", "--all-years", "--method", "tw2v"]) == 3
        assert capsys.readouterr() == (
            "", "error: word 'shifty' has no local map from slice 1990 into "
            "slice 1995: too few words are nonzero in both\n")


def _parse_outcome(parse, argv):
    """The stdout, stderr and result (the parsed flags or the exit code) of
    `parse(argv)`, which returns the parsed flags as a dict."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as e:
            result = e.code
    return out.getvalue(), err.getvalue(), result


def _parse(argv):
    return vars(make_parser().parse_args(argv))


# The RunConfig settings each command reads besides `out`, so the config
# flags it takes besides --out and --config.
READS = {
    "build": {"corpus", "stopwords", "min_count", "window"},
    "train": {"method", "dim", "ridge", "smoothing", "coupling", "epochs",
              "seed"},
    "query": {"method"},
    "evaluate": {"method", "seed"},
    "robustness": {"dim", "ridge", "smoothing", "coupling", "epochs", "seed"},
    "export-norms": {"method"},
}

# The operands and required flags of each command.
OPERANDS = {"query": ["w", "--label", "1990"],
            "robustness": ["--testset", "t.csv"],
            "export-norms": ["--words", "a"]}

_HELP = [["-h"], ["--help"], *([name, "-h"] for name in COMMANDS)]

_REJECTED = [
    [], ["nope"], ["quer", "w", "--label", "1"], ["query", "w"],
    ["query", "w", "--label", "1990", "-k", "x"],
    ["query", "w", "--label", "1990", "--bogus"], ["train", "--bogus"],
    ["evaluate", "--testset"], ["robustness", "--out", "r"],
    ["query", "w", "--label", "1990", "--epochs", "3"],
    ["query", "w", "--label", "1990", "--all-years", "--target-label", "1995"],
]

# command line -> the flags it parses to
_ACCEPTED = {
    ("query", "w", "--label", "1990", "--all-years", "-k", "3"):
        {"command": "query", "config": None, "method": None, "out": None,
         "word": "w", "label": 1990, "k": 3, "target_label": None,
         "all_years": True},
    ("build", "--out", "r", "--window", "3", "--config", "c.cfg"):
        {"command": "build", "config": "c.cfg", "corpus": None,
         "stopwords": None, "min_count": None, "window": "3", "out": "r"},
    ("export-norms", "--words", "a,b", "--csv-out", "n.csv"):
        {"command": "export-norms", "config": None, "method": None,
         "out": None, "words": "a,b", "csv_out": "n.csv"},
}


def _argv_id(argv):
    return " ".join(argv) or "no-arguments"


class TestParser:
    """Each command takes --config, --out and a flag for each other setting
    it reads; argparse rejects any other flag with exit 2."""

    @pytest.mark.parametrize(
        "argv", _HELP + _REJECTED + [list(argv) for argv in _ACCEPTED],
        ids=_argv_id)
    def test_same_as_the_full_parser(self, argv, tmp_path, monkeypatch):
        # `main` parses every command line as make_parser() does: the same
        # help, usage errors and flags reach the command.
        def parse_in_main(argv):
            parsed = []
            for name in COMMANDS:
                monkeypatch.setattr(
                    cli, f"cmd_{name.replace('-', '_')}",
                    lambda args, cfg, run: parsed.append(vars(args)) or 0)
            assert main(argv) == 0
            return parsed[0]

        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("")
        outcome = _parse_outcome(parse_in_main, argv)
        assert outcome == _parse_outcome(_parse, argv)
        if argv[-1:] in (["-h"], ["--help"]):
            assert outcome[2] == 0 and outcome[1] == ""
            assert outcome[0].startswith("usage: tvembed")

    @pytest.mark.parametrize("argv", _REJECTED, ids=_argv_id)
    def test_rejected_command_line_exits_2(self, argv):
        out, err, code = _parse_outcome(_parse, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: tvembed")
        assert ": error: " in err.splitlines()[-1]

    @pytest.mark.parametrize("command,operands,extra", [
        ("query", ["w", "--label", "1990"], ["--epochs", "3"]),
        ("export-norms", ["--words", "a"], ["--dim", "4", "--seed", "1"]),
        ("query", ["w", "--label", "1990"], ["--keep-self"]),
    ])
    def test_unknown_flag_shows_the_command_usage(self, command, operands,
                                                  extra):
        # argparse hands a subcommand's unknown flags up to the top-level
        # parser, whose usage lists only the commands.
        out, err, code = _parse_outcome(main, [command, *operands, *extra])
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert lines[0].startswith(f"usage: tvembed {command} [-h] ")
        assert lines[-1] == (f"tvembed {command}: error: unrecognized "
                             f"arguments: {' '.join(extra)}")

    @pytest.mark.parametrize("argv", _ACCEPTED, ids=_argv_id)
    def test_parsed_flags(self, argv):
        assert _parse(list(argv)) == _ACCEPTED[argv]

    @pytest.mark.parametrize("command,setting", [
        (command, f.name) for command in COMMANDS for f in fields(RunConfig)
    ])
    def test_config_flag_iff_read(self, command, setting):
        flag = f"--{setting.replace('_', '-')}"
        argv = [command, *OPERANDS.get(command, []), flag, "1"]
        out, err, result = _parse_outcome(_parse, argv)
        if setting in READS[command] or setting == "out":
            assert result[setting] == "1"
        else:
            assert result == 2
            assert err.endswith(f"unrecognized arguments: {flag} 1\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_calls_the_module_attribute(self, tmp_path, monkeypatch,
                                             command):
        # Looked up when `main` runs, so a wrapper set on the module (a
        # tracer's, a test's) is the one called.
        calls = []

        def spy(args, cfg, run):
            calls.append((args.command, cfg.out, run.out))
            return 7

        monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", spy)
        argv = [command, *OPERANDS.get(command, []), "--out", str(tmp_path)]
        assert main(argv) == 7
        assert calls == [(command, str(tmp_path), tmp_path)]

    def test_console_script_reads_sys_argv(self, run_dir, capsys,
                                           monkeypatch):
        main(train_args(run_dir))
        argv = ["query", "shifty", "--out", str(run_dir), "--label", "1990"]
        capsys.readouterr()
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["tvembed"] + argv)
        assert main() == 0
        assert capsys.readouterr() == expected
        for argv in (["--help"], ["query", "--help"]):
            monkeypatch.setattr(sys, "argv", ["tvembed"] + argv)
            with pytest.raises(SystemExit) as info:
                main()
            assert info.value.code == 0
            assert capsys.readouterr().out == _parse_outcome(_parse, argv)[0]


class TestEvaluate:
    def make_testset(self, run_dir):
        p = run_dir / "testset.csv"
        rows = ["query_word,query_label,target_label,answer_word"]
        for w in ("pet0", "pet3", "tech1", "tech5"):
            rows.append(f"{w},1990,2000,{w}")
            rows.append(f"{w},2000,1990,{w}")
        p.write_text("\n".join(rows) + "\n")
        return p

    def make_triplets(self, run_dir):
        p = run_dir / "triplets.csv"
        rows = ["word,label,section,strength"]
        for i in range(6):
            rows.append(f"pet{i},1990,Pets,0.9")
            rows.append(f"tech{i},1990,Tech,0.9")
        p.write_text("\n".join(rows) + "\n")
        return p

    def test_testset_byte_order_mark(self, run_dir, capsys):
        # Spreadsheet exports often start the file with a byte-order mark.
        main(train_args(run_dir))
        ts = self.make_testset(run_dir)
        bom = run_dir / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + ts.read_bytes())
        reports = []
        for path in (ts, bom):
            capsys.readouterr()
            assert main(["evaluate", "--out", str(run_dir), "--testset",
                         str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "mrr" in reports[0]

    def test_report_schema_and_determinism(self, run_dir, capsys):
        main(train_args(run_dir))
        ts = self.make_testset(run_dir)
        tp = self.make_triplets(run_dir)
        out1 = run_dir / "r1.json"
        out2 = run_dir / "r2.json"
        for out in (out1, out2):
            with pytest.warns(UserWarning):  # K=15,20 exceed 12 triplet items
                code = main(
                    [
                        "evaluate",
                        "--out",
                        str(run_dir),
                        "--testset",
                        str(ts),
                        "--triplets",
                        str(tp),
                        "--json-out",
                        str(out),
                    ]
                )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert set(report) == {"nmi", "f_beta", "mrr", "mp"}
        assert set(report["mp"]) == {"1", "3", "5", "10"}
        assert set(report["nmi"]) == {"10"}

    def test_aligned_identity_testset_retrieves_self(self, run_dir):
        main(train_args(run_dir, epochs=5))
        ts = self.make_testset(run_dir)
        out = run_dir / "r.json"
        main(
            [
                "evaluate",
                "--out",
                str(run_dir),
                "--testset",
                str(ts),
                "--json-out",
                str(out),
            ]
        )
        report = json.loads(out.read_text())
        # Words within a topic are interchangeable by construction, so the
        # exact self word need not rank first, but it must land in the top 10.
        assert report["mp"]["10"] == 1.0
        assert report["mrr"] > 0.5

    def test_nothing_to_evaluate(self, run_dir, capsys):
        main(train_args(run_dir))
        capsys.readouterr()
        assert main(["evaluate", "--out", str(run_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: nothing to evaluate: give --testset or --triplets"
        ]

    def test_empty_testset_exit_4(self, run_dir, capsys):
        main(train_args(run_dir))
        p = run_dir / "empty.csv"
        p.write_text(
            "query_word,query_label,target_label,answer_word\n"
            "unicorn,1990,2000,dragon\n"
        )
        with pytest.warns(UserWarning):
            code = main(
                ["evaluate", "--out", str(run_dir), "--testset", str(p)]
            )
        assert code == 4

    def test_no_rankable_record_exit_4(self, tmp_path, capsys):
        # With 8 words no query has tw2v's k=30 source neighbours, so no
        # record gets a local map and none can be ranked.
        words = [f"w{i}" for i in range(8)]
        corpus = tmp_path / "corpus"
        for year in (1990, 1991):
            (corpus / str(year)).mkdir(parents=True)
            for doc_id in range(4):
                (corpus / str(year) / f"d{doc_id}.txt").write_text(
                    " ".join(words[doc_id:] + words[:doc_id]))
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert main(["train", "--out", str(out), "--method", "tw2v",
                     "--dim", "3"]) == 0
        ts = tmp_path / "t.csv"
        ts.write_text("query_word,query_label,target_label,answer_word\n"
                      "w0,1990,1991,w0\n")
        capsys.readouterr()
        with pytest.warns(UserWarning,
                          match="skipped 1 records: 1 with no local map"):
            code = main(["evaluate", "--out", str(out), "--method", "tw2v",
                         "--testset", str(ts)])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("method", ["dw2v", "tw2v"])
    def test_unknown_slice_label_exit_3(self, run_dir, capsys, method):
        main(train_args(run_dir, method=method))
        ts = self.make_testset(run_dir)
        with ts.open("a") as fh:
            fh.write("pet0,1990,2050,pet0\n")
        capsys.readouterr()
        code = main(["evaluate", "--out", str(run_dir), "--method", method,
                     "--testset", str(ts)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ts}: unknown slice label 2050"
        ]

    def test_tw2v_triplets_exit_2(self, run_dir, capsys, monkeypatch):
        # tw2v's slices are trained apart, so clustering their vectors
        # together would score unrelated coordinate systems.
        assert main(train_args(run_dir, "tw2v")) == 0
        monkeypatch.setattr(evaluation, "clustering_report", None)
        report = run_dir / "report.json"
        capsys.readouterr()
        code = main(["evaluate", "--out", str(run_dir), "--method", "tw2v",
                     "--testset", str(self.make_testset(run_dir)),
                     "--triplets", str(self.make_triplets(run_dir)),
                     "--json-out", str(report)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --triplets cannot be scored for tw2v: its slices are "
            "trained separately and not aligned, so their vectors cannot be "
            "clustered together"]
        assert not report.exists()

    def test_unknown_triplet_label_exit_3(self, run_dir, capsys):
        main(train_args(run_dir))
        tp = self.make_triplets(run_dir)
        with tp.open("a") as fh:
            fh.write("shifty,2050,Pets,0.9\n")
        capsys.readouterr()
        code = main(["evaluate", "--out", str(run_dir), "--triplets",
                     str(tp)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tp}: unknown slice label 2050"
        ]

    def rotated_run(self, tmp_path, n_words):
        """A 2-slice dw2v run on the words w00, w01, ...: four documents a
        slice, the word list rotated by 0 to 3. Returns (run, words)."""
        words = [f"w{i:02d}" for i in range(n_words)]
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [(label, " ".join(words[i:] + words[:i]))
                             for label in (0, 1) for i in range(4)])
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert main(["train", "--out", str(out), "--dim", "3",
                     "--epochs", "1"]) == 0
        return out, words

    def zeroed_triplet_run(self, tmp_path, n_zero):
        """A 2-slice, 14-word dw2v run whose first n_zero of 12 labeled
        (word, slice 0) vectors are zeroed, and its triplet file."""
        out, words = self.rotated_run(tmp_path, 14)
        path = out / "embeddings_dw2v.tvem"
        mats, labels = read_embeddings_binary(path)
        mats = [np.array(m) for m in mats]
        vocab = cli.read_vocab(out / "vocab.txt")
        mats[0][[vocab.index[w] for w in words[:n_zero]]] = 0.0
        write_embeddings_binary(mats, labels, path)
        triplets = tmp_path / "triplets.csv"
        triplets.write_text("word,label,section,strength\n" + "".join(
            f"{w},0,{'AB'[i % 2]},0.9\n" for i, w in enumerate(words[:12])))
        return out, triplets

    def test_zero_triplet_vector_skipped(self, tmp_path):
        # 11 items are left: K=10 is scored, K=15 and K=20 are skipped.
        out, triplets = self.zeroed_triplet_run(tmp_path, 1)
        report = tmp_path / "report.json"
        with pytest.warns(UserWarning) as caught:
            code = main(["evaluate", "--out", str(out), "--triplets",
                         str(triplets), "--json-out", str(report)])
        assert code == 0
        assert [str(w.message) for w in caught
                if "zero vector" in str(w.message)] == [
            "skipped 1 labeled items with a zero vector"]
        assert set(json.loads(report.read_text())["nmi"]) == {"10"}

    def test_every_triplet_vector_zero_exit_4(self, tmp_path, capsys):
        out, triplets = self.zeroed_triplet_run(tmp_path, 12)
        capsys.readouterr()
        with pytest.warns(UserWarning, match="skipped 12 labeled items"):
            code = main(["evaluate", "--out", str(out), "--triplets",
                         str(triplets)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no labeled item has a nonzero vector"]

    def test_no_cluster_size_fits_exit_4(self, tmp_path, capsys):
        # Two labeled items: every K in CLUSTER_SIZES exceeds them, so
        # nothing is scored.
        out, _ = self.rotated_run(tmp_path, 40)
        triplets = tmp_path / "triplets.csv"
        triplets.write_text("word,label,section,strength\n"
                            "w00,0,A,0.9\nw01,1,B,0.9\n")
        report = tmp_path / "report.json"
        capsys.readouterr()
        with pytest.warns(UserWarning) as caught:
            code = main(["evaluate", "--out", str(out), "--triplets",
                         str(triplets), "--json-out", str(report)])
        assert code == 4
        assert [str(w.message) for w in caught] == [
            f"skipping K={K}: exceeds number of labeled items 2"
            for K in evaluation.CLUSTER_SIZES]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no cluster size in 10, 15, 20 fits 2 labeled items"]
        assert not report.exists()

    @pytest.mark.parametrize("kind,text,reason", [
        ("triplets", "word,label,section,strength\npet0,1990,Pets,0.9\n"
         "pet1,abc,Pets,0.9\n", "3: label 'abc' is not an integer"),
        ("triplets", "word,label,section,strength\npet0,1990,Pets,high\n",
         "2: strength 'high' is not a number"),
        # NaN would pass the strength filter and order before any number.
        ("triplets", "word,label,section,strength\npet0,1990,Pets,nan\n",
         "2: strength 'nan' is not a number"),
        ("triplets", "word,label,section,strength\npet0,1990,Pets\n",
         "2: missing column 'strength'"),
        ("triplets", "word,label,strength\npet0,1990,0.9\n",
         "1: no 'section' column in the header"),
        # Rows of out-of-vocabulary words are checked too.
        ("testset", "query_word,query_label,target_label,answer_word\n"
         "unicorn,1990,2000.5,pet0\n", "2: target_label '2000.5' is not an "
         "integer"),
        ("testset", "query_word,query_label,target_label,answer_word\n"
         "pet0,1990,2000,pet0\npet1,1990\n",
         "3: missing column 'target_label'"),
        ("testset", "query_word,query_label,target_label,answer_word\n"
         "caf\xe9,1990,2000,pet0\n", " not valid UTF-8"),
        # A blank first line is a header that names no column.
        ("triplets", "\nword,label,section,strength\npet0,1990,Pets,0.9\n",
         "1: no 'word' column in the header"),
        ("testset", "\nquery_word,query_label,target_label,answer_word\n"
         "pet0,1990,2000,pet0\n", "1: no 'query_word' column in the header"),
    ], ids=["triplet-label", "triplet-strength", "triplet-nan-strength",
            "triplet-short-row",
            "triplet-header", "testset-label", "testset-short-row",
            "testset-latin-1", "triplet-blank-header", "testset-blank-header"])
    def test_malformed_csv_exit_2(self, run_dir, capsys, kind, text, reason):
        main(train_args(run_dir))
        path = run_dir / f"{kind}.csv"
        path.write_bytes(text.encode("latin-1"))
        capsys.readouterr()
        code = main(["evaluate", "--out", str(run_dir), f"--{kind}",
                     str(path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:{reason}"
        ]

    @pytest.mark.parametrize("kind", ["testset", "triplets"])
    def test_empty_csv_exit_4(self, run_dir, capsys, kind):
        # A file with no line has no header to check and no row to score.
        main(train_args(run_dir))
        path = run_dir / f"{kind}.csv"
        path.write_text("")
        assert main(["evaluate", "--out", str(run_dir), f"--{kind}",
                     str(path)]) == 4

    def test_warning_is_one_stderr_line(self, run_dir, capsys):
        main(train_args(run_dir))
        ts = self.make_testset(run_dir)
        with ts.open("a") as fh:
            fh.write("unicorn,1990,2000,pet0\n")
        capsys.readouterr()
        before = warnings.formatwarning
        with pytest.warns(UserWarning, match="dropped 1 out-of-vocabulary"):
            assert main(["evaluate", "--out", str(run_dir), "--testset",
                         str(ts)]) == 0
        assert warnings.formatwarning is before
        proc = subprocess.run(
            [sys.executable, "-m", "tvembed.cli", "evaluate", "--out",
             str(run_dir), "--testset", str(ts)],
            capture_output=True, text=True, env=_SUBPROCESS_ENV)
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            f"warning: {ts}: dropped 1 out-of-vocabulary records"]
        assert proc.stdout == capsys.readouterr().out

    def test_each_command_in_a_process_prints_its_warnings(self, run_dir):
        # Python shows a warning once per place it is issued from until the
        # filters change; `main` starts that record afresh, so each of two
        # commands in one process prints its warning.
        ts = self.make_testset(run_dir)
        with ts.open("a") as fh:
            fh.write("unicorn,1990,2000,pet0\n")
        assert main(train_args(run_dir)) == 0
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom tvembed.cli import main\n"
             "for _ in range(2):\n    assert main(sys.argv[1:]) == 0\n",
             "evaluate", "--out", str(run_dir), "--testset", str(ts)],
            capture_output=True, text=True, env=_SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"warning: {ts}: dropped 1 out-of-vocabulary records"] * 2

    def test_tw2v_same_slice_scores_what_query_ranks(self, tmp_path,
                                                     capsys):
        # At d=40 > k=30 a local map from a slice into itself is a rank-30
        # projection, not the identity, so a same-slice record must rank the
        # word's own vector, as `query` does. The answers of each word's
        # records are the ten neighbours `query` prints, so rank n is scored
        # for the n-th.
        words = [f"w{i:03d}" for i in range(100)]
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [(0, " ".join(words)), (1, " ".join(words))])
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(corpus), "--out", str(out)]) == 0
        rng = np.random.default_rng(5)
        write_embeddings_binary([rng.standard_normal((100, 40))
                                 for _ in range(2)], [0, 1],
                                out / "embeddings_tw2v_perslice.tvem")
        rows = ["query_word,query_label,target_label,answer_word"]
        for word in words:
            capsys.readouterr()
            assert main(["query", word, "--out", str(out), "--label", "1",
                         "--method", "tw2v"]) == 0
            row = capsys.readouterr().out.split(": ", 1)[1]
            rows += [f"{word},1,1,{hit.split(':')[0]}"
                     for hit in row.split(", ")]
        testset = tmp_path / "t.csv"
        testset.write_text("\n".join(rows) + "\n")
        report = tmp_path / "report.json"
        assert main(["evaluate", "--out", str(out), "--method", "tw2v",
                     "--testset", str(testset), "--json-out",
                     str(report)]) == 0
        scores = json.loads(report.read_text())
        assert scores["mrr"] == pytest.approx(sum(1 / n for n in range(1, 11))
                                              / 10)
        assert scores["mp"] == {"1": 0.1, "3": 0.3, "5": 0.5, "10": 1.0}

    # SHA-256 of the --json-out report of `evaluate --method tw2v` on one
    # fixed planted-shift run, recorded with the per-call local map (the
    # loop kept as `conftest.loop_local_linear_map`). d=8 fits each map by
    # least squares (k=30 >= d), d=40 by the ridge form (k < d). The report
    # holds MRR and MP@K, fractions of integer rank counts, but the ranks
    # come from trained floats, so another BLAS library may change them.
    TW2V_GOLDEN = {
        8: "66003f522481a19dee52c3fd6231c0102f47f8cbe8fc51730ce9be359637e678",
        40: "3e7f91f8c198aaafbf540cddc69c6c4c09c55fddcb7945350648397e246d449a",
    }

    def test_tw2v_golden_digests(self, tmp_path, capsys):
        out = _build_planted(
            tmp_path, n_slices=4, community_size=40, docs_per_slice=150,
            doc_len=12, halo=3, seed=29)
        testset = tmp_path / "t.csv"
        _write_ring_testset(testset, 40, _RING_PAIRS + ((2, 1),))
        digests = {}
        for dim in self.TW2V_GOLDEN:
            assert main(["train", "--out", str(out), "--method", "tw2v",
                         "--dim", str(dim), "--epochs", "2", "--seed", "5"]) == 0
            report = tmp_path / f"report{dim}.json"
            assert main(["evaluate", "--out", str(out), "--method", "tw2v",
                         "--testset", str(testset), "--json-out",
                         str(report)]) == 0
            digests[dim] = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digests == self.TW2V_GOLDEN

    # SHA-256 of the --json-out report of `evaluate --testset --triplets`
    # for dw2v, sw2v and aw2v, and of the stdout of `robustness --rates
    # 1,0.1`, on one fixed planted-shift run. The reports hold NMI, F-beta,
    # MRR and MP@K computed from trained floats, so another BLAS library may
    # change them.
    METHOD_GOLDEN = {
        "dw2v":
            "03bae3f499ed3b20aa97782ebc31b9bab922ba9ed6eaa4e5353f11ed12b7fd89",
        "sw2v":
            "0f8407848e5b61417fafb93a92d3e33d1ab860587fc411042eeb42944f274622",
        "aw2v":
            "6fee8f7bb72a013b82402805e213977040516915aa33f011817b40338bccdb5c",
        "robustness":
            "2a1db98088ef88fc007e6738c8a3b59f03294d0aed8cc8d40218ae001967d965",
    }

    def test_method_golden_digests(self, tmp_path, capsys):
        out = _build_planted(
            tmp_path, n_slices=4, community_size=40, docs_per_slice=150,
            doc_len=12, halo=3, seed=31)
        testset = tmp_path / "t.csv"
        _write_ring_testset(testset, 40, _RING_PAIRS)
        # Eight sections, one per ten-word arc of each ring.
        rows = ["word,label,section,strength"]
        for i in range(40):
            for side in ("alpha", "beta"):
                rows.append(f"{side}{i:03d},{i % 4},{side}{i // 10},0.9")
        triplets = tmp_path / "triplets.csv"
        triplets.write_text("\n".join(rows) + "\n")
        common = ["--out", str(out), "--seed", "5"]
        solver = ["--dim", "8", "--epochs", "2"]
        digests = {}
        for method in ("dw2v", "sw2v", "aw2v"):
            assert main(["train", "--method", method] + common + solver) == 0
            report = tmp_path / f"report_{method}.json"
            assert main(["evaluate", "--method", method, "--testset",
                         str(testset), "--triplets", str(triplets),
                         "--json-out", str(report)] + common) == 0
            digests[method] = hashlib.sha256(report.read_bytes()).hexdigest()
        capsys.readouterr()
        assert main(["robustness", "--testset", str(testset), "--rates",
                     "1,0.1"] + common + solver) == 0
        digests["robustness"] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
        assert digests == self.METHOD_GOLDEN


class TestRobustness:
    @pytest.mark.parametrize("flag,value,code,message", [
        ("--rates", "x", 2, "--rates: 'x' is not a number"),
        ("--rates", "0.5,", 2, "--rates: '' is not a number"),
        ("--rates", "0", 2, "--rates: rate 0 is not in (0, 1]"),
        ("--rates", "5", 2, "--rates: rate 5 is not in (0, 1]"),
        ("--slices", "a,b", 2, "--slices: expected 'alternate', 'all' or "
         "comma-separated integer labels, got 'a,b'"),
        ("--slices", "99", 3, "--slices: unknown slice label 99"),
    ], ids=["rates-not-a-number", "rates-empty", "rates-zero",
            "rates-above-one", "slices-not-integers", "slices-unknown"])
    def test_bad_argument(self, run_dir, capsys, flag, value, code, message):
        ts = TestEvaluate().make_testset(run_dir)
        argv = ["robustness", "--out", str(run_dir), "--testset", str(ts),
                "--rates", "0.5", "--dim", "3", "--epochs", "1"]
        capsys.readouterr()
        assert main(argv + [flag, value]) == code
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_unknown_slice_label_exit_3(self, run_dir, capsys):
        ts = TestEvaluate().make_testset(run_dir)
        with ts.open("a") as fh:
            fh.write("tech1,2050,1990,tech1\n")
        code = main(["robustness", "--out", str(run_dir), "--testset",
                     str(ts), "--rates", "0.5", "--dim", "3", "--epochs", "1"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ts}: unknown slice label 2050"
        ]

    def test_blank_testset_header_line_exit_2(self, run_dir, capsys):
        ts = TestEvaluate().make_testset(run_dir)
        ts.write_text("\n" + ts.read_text())
        code = main(["robustness", "--out", str(run_dir), "--testset",
                     str(ts), "--rates", "0.5", "--dim", "3", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ts}:1: no 'query_word' column in the header"]

    def test_table_shape_and_r1_matches_clean(self, run_dir, capsys):
        main(train_args(run_dir))
        capsys.readouterr()
        ts = TestEvaluate().make_testset(run_dir)
        code = main(
            [
                "robustness",
                "--out",
                str(run_dir),
                "--testset",
                str(ts),
                "--rates",
                "1,0.5",
                "--dim",
                "5",
                "--epochs",
                "3",
                "--ridge",
                "1",
                "--smoothing",
                "5",
                "--coupling",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = json.loads(out[: out.index("]") + 1])
        assert len(rows) == 4  # (dw2v, aw2v) x (1, 0.5)
        clean_dw2v = next(
            r for r in rows if r["method"] == "dw2v" and r["rate"] == 1.0
        )
        # r=1 equals the unsubsampled run: compare against evaluate output
        main(train_args(run_dir))
        outj = run_dir / "clean.json"
        main(
            [
                "evaluate",
                "--out",
                str(run_dir),
                "--testset",
                str(ts),
                "--json-out",
                str(outj),
            ]
        )
        clean = json.loads(outj.read_text())
        assert clean_dw2v["mrr"] == pytest.approx(clean["mrr"], abs=1e-12)

    def test_whole_slices_trained_once(self, run_dir, monkeypatch):
        # A slice that is not subsampled at a rate (every slice at rate 1,
        # the slices --slices leaves out at 0.5) has the same PPMI and seed
        # at each rate, so its aw2v slice model is trained once.
        inputs = []
        factorize = baselines.factorize_single

        def spy(Y, config):
            m = Y.values
            inputs.append((config.seed, m.data.tobytes(),
                           m.indices.tobytes(), m.indptr.tobytes()))
            return factorize(Y, config)

        monkeypatch.setattr(baselines, "factorize_single", spy)
        ts = TestEvaluate().make_testset(run_dir)
        assert main(["robustness", "--out", str(run_dir), "--testset",
                     str(ts), "--rates", "1,0.5", "--dim", "3", "--epochs",
                     "1"]) == 0
        # The 3 slices at rate 1, then 1990 and 2000 subsampled at 0.5.
        assert len(inputs) == len(set(inputs)) == 5


class TestConsoleScript:
    def test_ci_step_passes(self, tmp_path):
        # The CI workflow's console-script step runs tests/console_script.sh;
        # here it runs through a `tvembed` shim for `python -m tvembed.cli`,
        # and its library rewrite runs on this interpreter.
        here = Path(__file__).parent
        workflow = here.parent / ".github" / "workflows" / "tests.yml"
        assert "bash tests/console_script.sh" in workflow.read_text()
        bin_dir, work = tmp_path / "bin", tmp_path / "work"
        bin_dir.mkdir()
        work.mkdir()
        shim = bin_dir / "tvembed"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m tvembed.cli '
                        '"$@"\n')
        shim.chmod(0o755)
        env = dict(_SUBPROCESS_ENV, PYTHON=sys.executable,
                   PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
        proc = subprocess.run(
            ["bash", str(here / "console_script.sh"), str(work)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestReadmeCommandLine:
    def test_every_line_runs(self, tmp_path, monkeypatch, capsys):
        # README's "Command line" block, each line as written, on a corpus
        # holding what the lines name: a 1995 slice, and apple and amazon
        # (two planted words renamed) counted at least 200 times.
        readme = Path(__file__).parent.parent / "README.md"
        block = readme.read_text().split("## Command line\n\n```sh\n",
                                         1)[1].split("```", 1)[0]
        lines = block.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["tvembed", command] for command in
            ("build", "train", "query", "evaluate", "robustness",
             "export-norms")]
        corpus = planted_shift_corpus(n_slices=6, community_size=30,
                                      docs_per_slice=300, doc_len=12, halo=3,
                                      seed=2)
        rename = {"alpha000": "apple", "beta000": "amazon"}
        write_slice_dirs(tmp_path / "corpus", TimeSlicedCorpus(
            slices=[[[rename.get(w, w) for w in doc] for doc in s.documents()]
                    for s in corpus.slices],
            slice_labels=[1993 + label for label in corpus.slice_labels]))
        (tmp_path / "equivalences.csv").write_text(
            "query_word,query_label,target_label,answer_word\n"
            "apple,1993,1995,apple\namazon,1998,1995,amazon\n"
            "alpha010,1994,1997,alpha010\n")
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line
        assert "apple@1995 -> 1995: " in capsys.readouterr().out
        assert json.loads(Path("report.json").read_text())["mrr"] > 0
        assert Path("norms.csv").read_text().count("\n") > 1


class TestExportNorms:
    def test_csv_output(self, run_dir, tmp_path):
        main(train_args(run_dir))
        out = tmp_path / "norms.csv"
        code = main(
            [
                "export-norms",
                "--out",
                str(run_dir),
                "--words",
                "pet0,shifty",
                "--csv-out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "word,label,norm"
        assert len(lines) == 1 + 2 * 3

    def test_unknown_word(self, run_dir, capsys):
        main(train_args(run_dir))
        code = main(
            ["export-norms", "--out", str(run_dir), "--words", "unicorn"]
        )
        assert code == 3


class TestConfigPlumbing:
    @pytest.mark.parametrize("key,value", [("combine", "U"),
                                           ("init_scale", "0.5")])
    def test_removed_keys_rejected(self, run_dir, capsys, key, value):
        cfg = run_dir / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out",
                     str(run_dir)]) == 2
        assert (f"unknown config key {key!r}"
                in capsys.readouterr().err)

    def test_one_config_file_serves_every_command(self, toy_corpus,
                                                  tmp_path, capsys):
        # A file naming every key runs each command as the flags of the
        # settings it reads do, and a flag still wins over the file.
        stop = tmp_path / "stop.txt"
        stop.write_text("pet7\n")
        settings = {"corpus": toy_corpus, "stopwords": stop, "min_count": 2,
                    "window": 3, "dim": 4, "ridge": 1, "smoothing": 5,
                    "coupling": 5, "epochs": 2, "seed": 3, "method": "dw2v"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            f"{key} = {val}\n" for key, val in
            {**settings, "out": tmp_path / "by-config"}.items()))
        ts = TestEvaluate().make_testset(tmp_path)
        runs = [("build", [], {}), ("train", [], {"epochs": 1}),
                ("query", ["shifty", "--label", "1990"], {}),
                ("evaluate", ["--testset", str(ts)], {}),
                ("robustness", ["--testset", str(ts), "--rates", "0.5"],
                 {"epochs": 1}),
                ("export-norms", ["--words", "pet1,shifty"], {})]
        stdout = {}
        for how in ("by-config", "by-flags"):
            out = tmp_path / how
            for command, operands, wins in runs:
                if how == "by-config":
                    given = {**wins, "config": cfg}
                else:
                    given = {key: wins.get(key, settings[key])
                             for key in READS[command]} | {"out": out}
                argv = [command, *operands] + [
                    arg for key, val in given.items()
                    for arg in (f"--{key.replace('_', '-')}", str(val))]
                capsys.readouterr()
                assert main(argv) == 0
                stdout[how, command] = capsys.readouterr().out.replace(
                    str(out), "OUT")
        for command, _, _ in runs:
            assert stdout["by-config", command] == stdout["by-flags", command]
        assert stdout["by-config", "train"].count("epoch ") == 1
        by_config, by_flags = tmp_path / "by-config", tmp_path / "by-flags"
        names = sorted(p.name for p in by_config.iterdir())
        assert names == sorted(p.name for p in by_flags.iterdir())
        for name in names:
            assert ((by_config / name).read_bytes()
                    == (by_flags / name).read_bytes())

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dim = 7\nseed = 3  # comment\n")
        values = parse_config_file(cfg)
        assert values == {"dim": "7", "seed": "3"}

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(42, "dw2v")
        assert a == derive_seed(42, "dw2v")
        assert a != derive_seed(42, "aw2v")
        assert a != derive_seed(43, "dw2v")


class TestErrorLine:
    """Each failure prints one `error:` line and exits with its code."""

    @pytest.mark.parametrize("argv,message", [
        (["build", "--window", "0"], "window and min_count must be >= 1"),
        (["build", "--min-count", "0"], "window and min_count must be >= 1"),
        # The .tvco header stores the window as u32.
        (["build", "--window", str(2**32)], "window must be < 2**32"),
        (["train", "--dim", "0"], "dim and epochs must be >= 1"),
        (["train", "--epochs", "0"], "dim and epochs must be >= 1"),
        (["train", "--ridge", "-1"], "ridge must be finite and >= 0"),
        (["train", "--ridge", "nan"], "ridge must be finite and >= 0"),
        (["train", "--smoothing", "-1"], "smoothing must be finite and >= 0"),
        (["train", "--coupling", "nan"], "coupling must be finite and >= 0"),
        # Each is finite; the diagonal they add to A is not.
        (["train", "--ridge", "1e308", "--coupling", "1e308"],
         "coupling + ridge + 2*smoothing must be finite"),
        (["robustness", "--ridge", "-1"], "ridge must be finite and >= 0"),
        (["query", "-k", "0"], "-k must be >= 1"),
        (["query", "-k", "-3"], "-k must be >= 1"),
        (["export-norms", "--words", "pet0,,shifty"],
         "--words: word 2 of 'pet0,,shifty' is empty"),
    ], ids=["window-0", "min-count-0", "window-2**32", "dim-0", "epochs-0",
            "ridge-negative", "ridge-nan", "smoothing-negative", "coupling-nan",
            "diagonal-overflow", "robustness-ridge", "k-0", "k-negative",
            "words-empty"])
    def test_out_of_range_setting(self, run_dir, capsys, argv, message):
        assert main(train_args(run_dir)) == 0
        ts = TestEvaluate().make_testset(run_dir)
        operands = {
            "build": ["--corpus", str(run_dir.parent / "corpus")],
            "query": ["shifty", "--label", "1990"],
            "robustness": ["--testset", str(ts), "--rates", "0.5"],
        }
        capsys.readouterr()
        code = main(argv[:1] + operands.get(argv[0], [])
                    + ["--out", str(run_dir)] + argv[1:])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 37.3 GiB for an array with shape "
                     "(5001, 1000000000) and data type float64"),
         "Unable to allocate 37.3 GiB for an array with shape "
         "(5001, 1000000000) and data type float64"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_allocation_failure(self, run_dir, capsys, monkeypatch, error,
                                line):
        # As `train --dim 1000000000` fails, without asking for the memory.
        def fail(*args):
            raise error

        monkeypatch.setattr(solver, "init_embeddings", fail)
        capsys.readouterr()
        assert main(train_args(run_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    @pytest.mark.parametrize("name", ["vocab.txt", "labels.json", "run.cfg",
                                      "stopwords.txt"])
    def test_non_utf8_text_input(self, run_dir, capsys, name):
        path = run_dir / name
        path.write_bytes(b"caf\xe9\n")
        argv = {
            "run.cfg": train_args(run_dir) + ["--config", str(path)],
            "stopwords.txt": ["build", "--corpus", str(run_dir.parent / "corpus"),
                              "--out", str(run_dir), "--stopwords", str(path)],
        }.get(name, train_args(run_dir))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not valid UTF-8"
        ]

    @pytest.mark.parametrize("flag", ["--config", "--stopwords", "--testset",
                                      "--triplets"])
    def test_directory_as_text_input(self, run_dir, capsys, flag):
        folder = run_dir.parent
        argv = {
            "--config": train_args(run_dir),
            "--stopwords": ["build", "--corpus", str(folder / "corpus"),
                            "--out", str(run_dir)],
        }.get(flag, ["evaluate", "--out", str(run_dir)])
        assert main(train_args(run_dir)) == 0
        capsys.readouterr()
        assert main(argv + [flag, str(folder)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {folder}: {os.strerror(errno.EISDIR)}"
        ]

    @pytest.mark.parametrize("command", ["evaluate", "export-norms"])
    def test_output_in_missing_directory(self, run_dir, capsys, command):
        target = run_dir / "missing" / "out.txt"
        argv = {
            "evaluate": ["evaluate", "--testset",
                         str(TestEvaluate().make_testset(run_dir)),
                         "--json-out", str(target)],
            "export-norms": ["export-norms", "--words", "pet0",
                             "--csv-out", str(target)],
        }[command]
        assert main(train_args(run_dir)) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(run_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
            f"'{target}'"
        ]

    @pytest.mark.parametrize("argv,message", [
        (["query", "unicorn", "--label", "1990"],
         "word 'unicorn' not in vocabulary; closest: "),
        (["query", "shifty", "--label", "1991"],
         "--label: unknown slice label 1991"),
        (["export-norms", "--words", "pet0,unicorn,dragon"],
         "words not in vocabulary: unicorn, dragon"),
    ], ids=["query-word", "query-label", "export-norms-words"])
    def test_lookup_failure(self, run_dir, capsys, argv, message):
        main(train_args(run_dir))
        capsys.readouterr()
        assert main(argv + ["--out", str(run_dir)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]


def _damage(run, fault):
    """Apply one named fault to a trained run directory of the toy corpus
    (labels 1990, 1995 and 2000; dw2v embeddings trained)."""
    if fault == "vocab-short":
        vocab = run / "vocab.txt"
        vocab.write_text("\n".join(vocab.read_text().splitlines()[:-1]) + "\n")
    elif fault == "vocab-twice":
        vocab = run / "vocab.txt"
        vocab.write_text(vocab.read_text() * 2)
    elif fault == "labels-malformed":
        (run / "labels.json").write_text("[1990,")
    elif fault == "tvpm-stale":
        (run / "ppmi_1995.tvpm").write_bytes(
            (run / "ppmi_2000.tvpm").read_bytes())
    elif fault == "tvco-stale":
        # The counts of a vocabulary one word longer.
        st = read_stats(run / "stats_1995.tvco")
        cooc = st.cooc.copy()
        cooc.resize((cooc.shape[0] + 1,) * 2)
        write_stats(SliceStats(cooc=cooc, unigram=np.append(st.unigram, 0),
                               total_tokens=st.total_tokens,
                               window=st.window), run / "stats_1995.tvco")
    elif fault == "tvem-stale":
        path = run / "embeddings_dw2v.tvem"
        mats, labels = read_embeddings_binary(path)
        write_embeddings_binary([np.vstack([m, m[:1]]) for m in mats],
                                labels, path)
    elif fault == "tvem-truncated":
        path = run / "embeddings_dw2v.tvem"
        path.write_bytes(path.read_bytes()[:-8])
    else:
        name = {"vocab": "vocab.txt", "labels": "labels.json",
                "tvpm": "ppmi_1995.tvpm", "tvco": "stats_1995.tvco",
                "tvem": "embeddings_dw2v.tvem"}[fault.removeprefix("missing-")]
        (run / name).unlink()


_READERS = ("train-dw2v", "train-sw2v", "query", "evaluate", "robustness",
            "export-norms")


def _reader_argv(run, command):
    """The command line of `command`, one of _READERS, on the toy run
    directory `run`."""
    testset = str(TestEvaluate().make_testset(run))
    return {
        "train-dw2v": train_args(run, "dw2v"),
        "train-sw2v": train_args(run, "sw2v"),
        "query": ["query", "shifty", "--label", "1990"],
        "evaluate": ["evaluate", "--testset", testset],
        "robustness": ["robustness", "--testset", testset, "--rates", "0.5",
                       "--dim", "3", "--epochs", "1"],
        "export-norms": ["export-norms", "--words", "pet0"],
    }[command] + ["--out", str(run)]

_LABELS_ERROR = (2, "{run}/labels.json: expected a JSON list of strictly "
                    "increasing integer labels")
_TVPM_SHORT = (2, "{run}/ppmi_1990.tvpm: V=17 but vocab.txt has 16 words; "
                  "rerun build")
_TVPM_STALE = (2, "{run}/ppmi_1995.tvpm: slice labels [2000] but labels.json "
                  "expects [1995]; rerun build")
_TVCO_SHORT = (2, "{run}/stats_1990.tvco: V=17 but vocab.txt has 16 words; "
                  "rerun build")
_TVCO_STALE = (2, "{run}/stats_1995.tvco: V=18 but vocab.txt has 17 words; "
                  "rerun build")
_TVEM_SHORT = (2, "{run}/embeddings_dw2v.tvem: V=17 but vocab.txt has 16 "
                  "words; rerun train")
_TVEM_STALE = (2, "{run}/embeddings_dw2v.tvem: V=18 but vocab.txt has 17 "
                  "words; rerun train")
_TVEM_TRUNCATED = (2, "{run}/embeddings_dw2v.tvem: truncated: needs 408 "
                      "bytes, has 400")
_VOCAB_TWICE = (2, "{run}/vocab.txt: duplicate words in vocabulary; rerun "
                   "build")
_MISSING_TVPM = (2, "{run}/ppmi_1995.tvpm: missing; run build first")
_MISSING_TVCO = (2, "{run}/stats_1995.tvco: missing; run build first")
_MISSING_TVEM = (2, "{run}/embeddings_dw2v.tvem: missing; run train first")

# fault(s) -> (exit code, stderr line after "error: ") of each command in
# _READERS order; None is exit 0 with nothing on stderr. Recorded before
# the run directory got one owner (`cli.RunDir`), so that every command
# still reads vocab.txt, its artifact and labels.json in the same order;
# only the missing-file lines have changed since, to one form.
RUN_DIR_ERRORS = {
    "vocab-short": [_TVPM_SHORT, _TVCO_SHORT, _TVEM_SHORT, _TVEM_SHORT,
                    _TVCO_SHORT, _TVEM_SHORT],
    "labels-malformed": [_LABELS_ERROR] * 6,
    "tvpm-stale": [_TVPM_STALE, None, None, None, None, None],
    "tvco-stale": [None, _TVCO_STALE, None, None, _TVCO_STALE, None],
    "tvem-stale": [None, None, _TVEM_STALE, _TVEM_STALE, None, _TVEM_STALE],
    "vocab-short+labels-malformed": [_LABELS_ERROR] * 6,
    "vocab-twice+labels-malformed": [_VOCAB_TWICE] * 6,
    "tvem-truncated+labels-malformed": [
        _LABELS_ERROR, _LABELS_ERROR, _TVEM_TRUNCATED, _TVEM_TRUNCATED,
        _LABELS_ERROR, _TVEM_TRUNCATED],
    "tvpm-stale+tvco-stale": [_TVPM_STALE, _TVCO_STALE, None, None,
                              _TVCO_STALE, None],
    "missing-vocab": [(2, "{run}/vocab.txt: missing; run build first")] * 6,
    "missing-labels": [
        (2, "{run}/labels.json: missing; run build first")] * 6,
    "missing-tvpm": [_MISSING_TVPM, None, None, None, None, None],
    "missing-tvco": [None, _MISSING_TVCO, None, None, _MISSING_TVCO, None],
    "missing-tvem": [None, None, _MISSING_TVEM, _MISSING_TVEM, None,
                     _MISSING_TVEM],
}


class TestRunDirErrors:
    """Each reading command on a damaged run directory: the first fault it
    meets decides the one error line and the exit code."""

    @pytest.mark.parametrize("faults,command,expected", [
        pytest.param(faults, command, expected, id=f"{faults}-{command}")
        for faults, row in RUN_DIR_ERRORS.items()
        for command, expected in zip(_READERS, row, strict=True)
    ])
    def test_first_error(self, run_dir, capsys, faults, command, expected):
        assert main(train_args(run_dir)) == 0
        argv = _reader_argv(run_dir, command)
        for fault in faults.split("+"):
            _damage(run_dir, fault)
        capsys.readouterr()
        code, line = expected or (0, None)
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert err == ([] if line is None
                       else ["error: " + line.format(run=run_dir)])

    @pytest.mark.parametrize("kind", ["tvpm", "tvco"])
    def test_version_1_counts_and_ppmi(self, run_dir, capsys, kind):
        # A file of a build whose sparse block held (row, col, value)
        # triplets: format version 1.
        if kind == "tvpm":
            path, method = run_dir / "ppmi_1995.tvpm", "dw2v"
            m, value_dtype = read_ppmi(path).values.tocoo(), "<f8"
        else:
            path, method = run_dir / "stats_1995.tvco", "sw2v"
            m, value_dtype = read_stats(path).cooc.tocoo(), "<u8"
        blob = path.read_bytes()
        block = len(blob) - 8 * (m.shape[0] + 2) - 12 * m.nnz
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:block]
                         + struct.pack("<Q", m.nnz)
                         + m.row.astype("<u4").tobytes()
                         + m.col.astype("<u4").tobytes()
                         + m.data.astype(value_dtype).tobytes())
        capsys.readouterr()
        assert main(train_args(run_dir, method)) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: version 1, expected 2; rerun build\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.5])
    def test_ppmi_value_not_positive_and_finite(self, run_dir, capsys, value):
        path = run_dir / "ppmi_1995.tvpm"
        ppmi = read_ppmi(path)
        ppmi.values.data[3] = value
        write_ppmi(ppmi, path)
        assert main(train_args(run_dir)) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: PPMI value {value} is not positive and "
            "finite\n")

    @pytest.mark.parametrize("method", ["dw2v", "aw2v"])
    def test_ppmi_too_large_to_train_on(self, run_dir, capsys, method):
        # Positive, finite and symmetric, the values pass every read check;
        # the ridge system overflows in the first update that squares them.
        for path in run_dir.glob("ppmi_*.tvpm"):
            ppmi = read_ppmi(path)
            ppmi.values.data[:] = 1e300
            write_ppmi(ppmi, path)
        assert main(train_args(run_dir, method)) == 2
        assert capsys.readouterr() == (
            "", "error: epoch 0: non-finite ridge system for W(0); input data "
            "or factors contain NaN/inf\n")

    @pytest.mark.parametrize("what", ["co-occurrence", "unigram"])
    def test_count_beyond_int64(self, run_dir, capsys, what):
        # Read as int64, a u64 count >= 2**63 would wrap negative.
        path = run_dir / "stats_1995.tvco"
        st = read_stats(path)
        cooc, unigram = st.cooc.astype(np.uint64), st.unigram.astype(np.uint64)
        (cooc.data if what == "co-occurrence" else unigram)[0] = 2**63
        write_stats(SliceStats(cooc=cooc, unigram=unigram,
                               total_tokens=st.total_tokens,
                               window=st.window), path)
        assert main(train_args(run_dir, "sw2v")) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: {what} count {2**63} is >= 2**63\n")

    @pytest.mark.parametrize("command", ["train-sw2v", "robustness"])
    @pytest.mark.parametrize("fault", ["unigram", "total"])
    def test_counts_that_contradict(self, run_dir, capsys, command, fault):
        # `build` never writes either file. A zero unigram count for a word
        # with co-occurrence counts gives its pairs +inf PPMI; a total_tokens
        # off the unigram sum shifts every PPMI value.
        assert main(train_args(run_dir)) == 0
        path = run_dir / "stats_1995.tvco"
        st = read_stats(path)
        word = int(st.cooc.indices[0])
        if fault == "unigram":
            st.unigram[word] = 0
            st.total_tokens = int(st.unigram.sum())
            line = (f"word {word} has co-occurrence counts but a unigram "
                    "count of 0")
        else:
            line = (f"total_tokens {st.total_tokens + 1} is not the sum of "
                    f"the unigram counts, {st.total_tokens}")
            st.total_tokens += 1
        write_stats(st, path)
        capsys.readouterr()
        assert main(_reader_argv(run_dir, command)) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {line}\n")

    @pytest.mark.parametrize("command,fault", [
        (command, fault)
        for command in ["train-sw2v", "robustness", "train-dw2v"]
        for fault in ["duplicate", "unsorted", "asymmetric"]])
    def test_damaged_csr_block(self, run_dir, capsys, command, fault):
        # `build` never writes such a file. Duplicate parts of one count
        # each get their own log in PPMI; counts that are not symmetric
        # make a Y that is not, and the solver takes Y symmetric.
        assert main(train_args(run_dir)) == 0
        if command == "train-dw2v":
            path, value_dtype = run_dir / "ppmi_1995.tvpm", "<f8"
            m = read_ppmi(path).values
            asymmetric = "PPMI values are not symmetric"
        else:
            path, value_dtype = run_dir / "stats_1995.tvco", "<u8"
            m = read_stats(path).cooc
            asymmetric = "co-occurrence counts are not symmetric"
        if fault == "asymmetric":
            indptr, indices, data = m.indptr, m.indices, m.data
            data[np.argmax(indices != np.repeat(np.arange(m.shape[0]),
                                                np.diff(indptr)))] += 1
            line = asymmetric
        else:
            indptr, indices, data = damaged_csr(m, fault,
                                                np.random.default_rng(0))
            line = "column indices must strictly increase within each row"
        blob = path.read_bytes()
        block = len(blob) - 8 * (m.shape[0] + 2) - 12 * m.nnz
        path.write_bytes(blob[:block] + struct.pack("<Q", len(data))
                         + indptr.astype("<u8").tobytes()
                         + indices.astype("<u4").tobytes()
                         + data.astype(value_dtype).tobytes())
        capsys.readouterr()
        assert main(_reader_argv(run_dir, command)) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {line}\n")

    @pytest.mark.parametrize("command", ["query", "evaluate", "export-norms"])
    def test_version_1_embeddings(self, run_dir, capsys, command):
        # A .tvem of a run trained before the file stored its row norms:
        # format version 1, the same bytes without the norms block.
        assert main(train_args(run_dir)) == 0
        path = run_dir / "embeddings_dw2v.tvem"
        blob = path.read_bytes()
        V, T, _ = struct.unpack_from("<QQQ", blob, 8)
        path.write_bytes(blob[:4] + struct.pack("<I", 1)
                         + blob[8:-8 * T * V])
        capsys.readouterr()
        assert main(_reader_argv(run_dir, command)) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: version 1, expected 2; rerun train\n")

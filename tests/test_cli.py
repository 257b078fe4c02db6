import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from tvembed.cli import derive_seed, main, parse_config_file
from tvembed.corpus import read_stats
from tvembed.ppmi import read_ppmi
from tvembed.solver import read_embeddings_binary
from tvembed.synthetic import planted_shift_corpus


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
    # digests do not depend on the CPU or the BLAS library.
    GOLDEN_DIGESTS = {
        "vocab.txt":
            "edadf460dce929f1815abe2b3c485255a5cb874cb319dd0ea1915eb5e84508e1",
        "labels.json":
            "02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780",
        "stats_0.tvco":
            "a7d4b9fc66d46402ae1c1035ad57a40cf42b71fadef832f1b4cab4d66005d808",
        "stats_1.tvco":
            "2898d5f200806781893f48bed15e288b2a8324e7afe3421a104528f70290a0ae",
        "stats_2.tvco":
            "1630b889ef7dfa99ff26feaa416d71fcb2238c39078c836c5b4d4b1b613748a1",
        "stats_3.tvco":
            "441acaf9f6c13fa3cbc593e6c773b207c80726ae2a8e6473f29cfb62fa8cf0ad",
    }

    def test_golden_digests(self, tmp_path):
        corpus = planted_shift_corpus(n_slices=4, community_size=30,
                                      docs_per_slice=60, doc_len=12, halo=3,
                                      seed=7)
        lines = []
        for label, ids in zip(corpus.slice_labels, corpus.slices):
            docs = ids.documents()
            # A hapax below --min-count (out-of-vocabulary positions) and an
            # empty document ride along in every slice.
            extra = [docs[0][:5] + [f"hapax{label}"] + docs[1][:5], []]
            for doc in docs + extra:
                lines.append(json.dumps({"label": label, "text": " ".join(doc)}))
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(path), "--out", str(out),
                     "--window", "3", "--min-count", "2"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN_DIGESTS}
        assert digests == self.GOLDEN_DIGESTS

    # SHA-256 of every file one fixed directory-layout build writes, recorded
    # with the per-token string tokenizer and vocabulary. The corpus has a
    # stopword file, numeric tokens, underscores, an empty file and documents
    # that only the regex tokenizer splits correctly.
    DIRECTORY_GOLDEN_DIGESTS = {
        "vocab.txt":
            "7d439913edadbe7cfe5e07b6775d9a61613ec6725ca7a664a62e82a72fbb57f3",
        "labels.json":
            "e1b8a126e0a2aa1fe76286a7f79cc02886fa3304cade0dc550b66e830e999b93",
        "stats_1990.tvco":
            "f63c424528f7efdc46b0d154a32b7a231e04843381bbfdb57850fffe8b840971",
        "stats_1995.tvco":
            "621483b8d783b490186f45324931687c014b2188bca5df4ed728bceba1bad266",
        "stats_2000.tvco":
            "0c2c00ad6f7b7cdd60de7da8dd727d25a7c1aa99595b75563c92a82b5f46d554",
        "ppmi_1990.tvpm":
            "20b1befe8437837ca50fa67e3d441c0b1276a5c585a62f909c63b95da959ea44",
        "ppmi_1995.tvpm":
            "a84936fdee73e2a18f3699a862721d71afcab9fdb1071c01240521668e11bf57",
        "ppmi_2000.tvpm":
            "912d3f3245aee4bcd870e020d48b232ea4e97450f19dc460380cc68a129fa16e",
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

    def test_aw2v_writes_aligned_only(self, run_dir):
        assert main(train_args(run_dir, method="aw2v")) == 0
        assert (run_dir / "embeddings_aw2v.tvem").exists()
        assert not (run_dir / "embeddings_aw2v_perslice.tvem").exists()
        assert not (run_dir / "embeddings_aw2v_perslice.txt").exists()

    def test_sw2v_static_replicated(self, run_dir):
        assert main(train_args(run_dir, method="sw2v")) == 0
        mats, labels = read_embeddings_binary(run_dir / "embeddings_sw2v.tvem")
        assert labels == [1990, 1995, 2000]
        assert np.array_equal(mats[0], mats[1])

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
        # Bit 24 of V asks for a 16.8M-row matrix; the header is compared
        # with vocab.txt before the triplet block becomes one.
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
            f"error: {ppmi}: V={V ^ 1 << 24} but vocab.txt has {V} words; "
            "rerun build"
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
    def test_self_query_with_keep_self(self, run_dir, capsys):
        main(train_args(run_dir))
        code = main(
            [
                "query",
                "shifty",
                "--out",
                str(run_dir),
                "--label",
                "1990",
                "-k",
                "1",
                "--keep-self",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shifty:1.0000" in out

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
        corpus.write_text("".join(
            json.dumps({"label": label, "text": text}) + "\n"
            for label in (0, 1) for text in docs
        ))
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

    def test_oov_word_suggestions(self, run_dir, capsys):
        main(train_args(run_dir))
        code = main(
            ["query", "shiftee", "--out", str(run_dir), "--label", "1990"]
        )
        assert code == 3
        assert "shifty" in capsys.readouterr().err


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
                        "--dim",
                        "5",
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

    @pytest.mark.parametrize("kind,text,reason", [
        ("triplets", "word,label,section,strength\npet0,1990,Pets,0.9\n"
         "pet1,abc,Pets,0.9\n", "3: label 'abc' is not an integer"),
        ("triplets", "word,label,section,strength\npet0,1990,Pets,high\n",
         "2: strength 'high' is not a number"),
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
    ], ids=["triplet-label", "triplet-strength", "triplet-short-row",
            "triplet-header", "testset-label", "testset-short-row",
            "testset-latin-1"])
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
        corpus = planted_shift_corpus(n_slices=4, community_size=40,
                                      docs_per_slice=150, doc_len=12, halo=3,
                                      seed=29)
        lines = [json.dumps({"label": label, "text": " ".join(doc)})
                 for label, docs in zip(corpus.slice_labels, corpus.slices)
                 for doc in docs.documents()]
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(path), "--out", str(out),
                     "--window", "3"]) == 0
        # Identity, shifted-answer, same-slice and probe-word records.
        rows = ["query_word,query_label,target_label,answer_word"]
        for i in range(0, 40, 3):
            for a, b in ((0, 3), (3, 0), (1, 1), (0, 2), (2, 1)):
                rows.append(f"alpha{i:03d},{a},{b},alpha{i:03d}")
                rows.append(f"beta{i:03d},{a},{b},beta{(i + 1) % 40:03d}")
            rows.append(f"probeword,0,3,alpha{i:03d}")
        testset = tmp_path / "t.csv"
        testset.write_text("\n".join(rows) + "\n")
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
        corpus = planted_shift_corpus(n_slices=4, community_size=40,
                                      docs_per_slice=150, doc_len=12, halo=3,
                                      seed=31)
        lines = [json.dumps({"label": label, "text": " ".join(doc)})
                 for label, docs in zip(corpus.slice_labels, corpus.slices)
                 for doc in docs.documents()]
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["build", "--corpus", str(path), "--out", str(out),
                     "--window", "3"]) == 0
        rows = ["query_word,query_label,target_label,answer_word"]
        for i in range(0, 40, 3):
            for a, b in ((0, 3), (3, 0), (1, 1), (0, 2)):
                rows.append(f"alpha{i:03d},{a},{b},alpha{i:03d}")
                rows.append(f"beta{i:03d},{a},{b},beta{(i + 1) % 40:03d}")
            rows.append(f"probeword,0,3,alpha{i:03d}")
        testset = tmp_path / "t.csv"
        testset.write_text("\n".join(rows) + "\n")
        # Eight sections, one per ten-word arc of each ring.
        rows = ["word,label,section,strength"]
        for i in range(40):
            for side in ("alpha", "beta"):
                rows.append(f"{side}{i:03d},{i % 4},{side}{i // 10},0.9")
        triplets = tmp_path / "triplets.csv"
        triplets.write_text("\n".join(rows) + "\n")
        common = ["--out", str(out), "--dim", "8", "--epochs", "2",
                  "--seed", "5"]
        digests = {}
        for method in ("dw2v", "sw2v", "aw2v"):
            assert main(["train", "--method", method] + common) == 0
            report = tmp_path / f"report_{method}.json"
            assert main(["evaluate", "--method", method, "--testset",
                         str(testset), "--triplets", str(triplets),
                         "--json-out", str(report)] + common) == 0
            digests[method] = hashlib.sha256(report.read_bytes()).hexdigest()
        capsys.readouterr()
        assert main(["robustness", "--testset", str(testset), "--rates",
                     "1,0.1"] + common) == 0
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
        (["train", "--dim", "0"], "dim and epochs must be >= 1"),
        (["train", "--epochs", "0"], "dim and epochs must be >= 1"),
        (["train", "--ridge", "-1"], "ridge must be finite and >= 0"),
        (["train", "--ridge", "nan"], "ridge must be finite and >= 0"),
        (["train", "--smoothing", "-1"], "smoothing must be finite and >= 0"),
        (["train", "--coupling", "nan"], "coupling must be finite and >= 0"),
        (["robustness", "--ridge", "-1"], "ridge must be finite and >= 0"),
        (["query", "-k", "0"], "-k must be >= 1"),
        (["query", "-k", "-3"], "-k must be >= 1"),
    ], ids=["window-0", "min-count-0", "dim-0", "epochs-0", "ridge-negative",
            "ridge-nan", "smoothing-negative", "coupling-nan",
            "robustness-ridge", "k-0", "k-negative"])
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

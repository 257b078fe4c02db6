"""Generated inputs against the CLI's exit-code contract.

README promises that a failure prints exactly one `error: <reason>` line
and exits with the code of its kind, which for every `build` failure is 2;
that exit 1 (an exception escaping `main`) never happens; and that a build
that fails writes nothing into a fresh `--out`. That holds for generated
corpora, stopword files and config files. The same documents built from a
JSONL file and from slice directories give the same artifacts, and a
stopword file drops exactly its entries from the vocabulary.

`query`, `evaluate` and `robustness` keep the same contract (exit 0, 2, 3
or 4, and one `error:` line after any `warning:` lines) for generated
testset and triplet CSV files and flag values, against one tiny run
directory that no command changes.

The examples are derandomized, so the module is deterministic and takes a
few seconds.
"""

import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_corpus
from conftest import write_jsonl
from tvembed.cli import main

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

# The characters on which tokenizing is delicate, NUL, and a few words, so
# that most corpora have a vocabulary and some documents batch together.
PIECES = test_corpus.TestTokenize.ALPHABET + [
    "\x00", "Σ", " cat ", " Dog ", " 1990 ", " été "]
TEXTS = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


def record_lines(labels):
    """JSONL records with a label drawn from `labels`, with and without
    non-ASCII escaped."""
    return st.builds(
        lambda label, text, ascii: json.dumps(
            {"label": label, "text": text}, ensure_ascii=ascii).encode(),
        labels, TEXTS, st.booleans())


# A line that is not a record, or a record whose label does not fit in
# int64.
BAD_LINES = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([
        b"\xef\xbb\xbf", b"\xff", b"null", b'[1, "a"]',
        b'{"label": 1.5, "text": "a"}', b'{"label": true, "text": "a"}',
        b'{"label": "1", "text": "a"}', b'{"label": 1, "text": 2}',
        b'{"text": "a"}', b'{"label": 1}', b'{"label": 1, "text": "a"} {}',
        b'{"label": 1e400, "text": ""}',
    ]),
    record_lines(st.sampled_from([2**63, -2**63 - 1])))
# Records (small labels drawn twice as often), blank lines and lines the
# decoder must accept, then maybe one bad line at any position.
GOOD_LINES = st.one_of(
    record_lines(st.integers(-3, 3)),
    record_lines(st.integers(-3, 3)),
    record_lines(st.sampled_from([2**63 - 1, -2**63])),
    st.sampled_from([b"", b"  \t", b'{"label": 1, "text": "a\\ud800"}',
                     b'{"label": 1, "text": "\xc3\xa9"}']))
JSONL = st.builds(
    lambda bom, lines, bad, eol: bom + eol.join(
        lines if bad is None else lines[:bad[0]] + [bad[1]] + lines[bad[0]:]),
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(GOOD_LINES, max_size=10),
    st.none() | st.tuples(st.integers(0, 10), BAD_LINES),
    st.sampled_from([b"\n", b"\r\n", b"\r"]))


def mostly(good, other, one_in=5):
    """`good`, or `other` once in `one_in` draws."""
    return st.tuples(st.integers(1, one_in), good, other).map(
        lambda t: t[1] if t[0] > 1 else t[2])


# Slice directories and their files, most of them well formed. The other
# names name one label twice ("1", "01", "+1"), are out of range, or are
# not integers; the other files are any bytes.
DIR_NAMES = mostly(st.integers(-3, 3).map(str), st.sampled_from(
    ["01", "+1", "-0", "1_0", " 2", "x", "1.0", str(2**63), str(-2**63)]))
FILE_BYTES = mostly(TEXTS.map(str.encode), st.binary(max_size=8), 10)
DIRECTORIES = st.dictionaries(DIR_NAMES, st.lists(FILE_BYTES, max_size=3),
                              max_size=4)


# Corpus texts of whole words, so that stopwords hit some of them and
# leave others; "a\u03a3" ends in a final sigma.
WORD_TEXTS = st.lists(st.sampled_from(
    ["cat", "Dog", "été", "a\u03a3", "b", "snake_case", "1990", "x\x00y"]),
    max_size=8).map(" ".join)
# Stopword files: words of WORD_TEXTS in their token form and in others,
# with the whitespace `strip` removes, digits, NULs, byte-order marks,
# blank lines and, once in ten lines, bytes that may not be UTF-8; each
# line is ended by any line ending, or none.
STOPWORD_LINES = mostly(st.sampled_from([
    "cat", "dog", "Dog", " cat\t", "été", "a\u03c2", "a\u03c3", "b",
    "snake", "case", "x", "1990", "", "  ", "x\x00y", "\x00", "\ufeffcat",
    "cat\x85dog", "\u00a0b\u2028"]).map(str.encode), st.binary(max_size=4),
    10)
STOPWORD_FILES = st.builds(
    lambda bom, lines: bom + b"".join(line + eol for line, eol in lines),
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(st.tuples(STOPWORD_LINES,
                       st.sampled_from([b"\n", b"\r\n", b"\r", b""])),
             max_size=6))

# Config files: the settings `build` checks and others, keys that no
# setting has, values that parse and values that do not, comments, and
# lines without "=" or with two; any bytes once in ten files. The
# `--corpus` and `--out` flags win over the file's `corpus` and `out`.
CONFIG_KEYS = st.sampled_from([
    "min_count", "window", "dim", "ridge", "smoothing", "coupling", "epochs",
    "seed", "method", "corpus", "out", "min-count", "Window", "", "stop"])
CONFIG_VALUES = st.sampled_from([
    "1", "2", "0", "-1", "1.5", "1e3", "1e400", "nan", "inf", "-0.0", "x",
    "", "1_0", "\u0663", "0x10", "99999999999999999999", "dw2v", "tw2v",
    "DW2V"])
CONFIG_LINES = st.one_of(
    st.builds(lambda key, value, tail: f"{key} = {value}{tail}",
              CONFIG_KEYS, CONFIG_VALUES,
              st.sampled_from(["", " # note", "#", " = 2", "\t"])),
    st.sampled_from(["", "  ", "# window = 0", "window 2", "= 2", "#=",
                     "window == 2"]))
CONFIG_FILES = mostly(st.builds(
    lambda bom, lines, eol: bom + eol.join(lines).encode(),
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(CONFIG_LINES, max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"])), st.binary(max_size=8), 10)


def run(*argv):
    """Run `tvembed` with `argv`; return its exit code (argparse's, when it
    rejects the command line) and stdout and stderr lines."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as e:
            code = e.code
    return code, stdout.getvalue().splitlines(), stderr.getvalue().splitlines()


def build(corpus, out, *flags):
    """Run `tvembed build`; return its exit code and stdout and stderr
    lines."""
    return run("build", "--corpus", corpus, "--out", out, *flags)


def assert_contract(corpus, out, *flags):
    """Build with `flags`; return the exit code."""
    code, stdout, stderr = build(corpus, out, *flags)
    if code == 0:
        assert stderr == []
        assert len(stdout) == 1 and stdout[0].startswith("V=")
        assert (out / "vocab.txt").is_file()
    else:
        assert code == 2
        assert stdout == []
        assert len(stderr) == 1 and stderr[0].startswith("error: ")
        assert not out.exists()
    return code


def stopword_set(data):
    """The entries of a stopword file: its stripped, non-blank lines."""
    lines = re.split(r"\r\n|\r|\n", data.decode("utf-8-sig"))
    return {line.strip() for line in lines if line.strip()}


def vocab_words(out):
    return (out / "vocab.txt").read_text(encoding="utf-8").split("\n")[:-1]


def write_directories(root, slices):
    root.mkdir()
    for name, files in slices.items():
        (root / name).mkdir()
        for i, data in enumerate(files):
            (root / name / f"{i:03d}.txt").write_bytes(data)


def run_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestBuildContract:
    @given(data=JSONL, min_count=st.integers(1, 3))
    @example(data=b"", min_count=1)
    @example(data=b'{"label": 1, "text": ' + b"[" * 100_000, min_count=1)
    @example(data=b'{"label": 1, "text": "a\x00b \xce\xa3 c"}', min_count=1)
    @FUZZ
    def test_jsonl(self, data, min_count):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.jsonl"
            corpus.write_bytes(data)
            assert_contract(corpus, Path(tmp) / "run", "--min-count",
                            str(min_count), "--window", "2")

    @given(slices=DIRECTORIES, stray=st.booleans(),
           min_count=st.integers(1, 3))
    @example(slices={}, stray=True, min_count=1)
    @example(slices={"1": [], "01": [b"a"]}, stray=False, min_count=1)
    @FUZZ
    def test_directories(self, slices, stray, min_count):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus"
            write_directories(corpus, slices)
            if stray:
                (corpus / "README").write_bytes(b"not a slice")
            assert_contract(corpus, Path(tmp) / "run", "--min-count",
                            str(min_count), "--window", "2")

    @given(docs=st.lists(st.tuples(st.integers(-2, 3), TEXTS), min_size=1,
                         max_size=12))
    @example(docs=[(0, "aΣ"), (0, "Σb"), (1, "x\x00y")])
    @FUZZ
    def test_layouts_build_the_same_run(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            jsonl = tmp / "corpus.jsonl"
            write_jsonl(jsonl, docs)
            slices = {}
            for label, text in docs:
                slices.setdefault(str(label), []).append(text.encode())
            write_directories(tmp / "corpus", slices)
            code, _, err = build(jsonl, tmp / "a")
            code_b, _, err_b = build(tmp / "corpus", tmp / "b")
            assert (code_b, err_b) == (code, err)
            if code == 0:
                assert run_files(tmp / "a") == run_files(tmp / "b")

    @given(docs=st.lists(st.tuples(st.integers(-2, 3), WORD_TEXTS),
                         min_size=1, max_size=6),
           data=STOPWORD_FILES)
    @example(docs=[(0, "cat dog")], data=b"\xef\xbb\xbfcat\r\n")
    @example(docs=[(0, "cat")], data=b"cat\rdog")
    @example(docs=[(0, "a\x00b")], data=b"a\x00b\n\xff\n")
    @FUZZ
    def test_stopword_files(self, docs, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_jsonl(tmp / "corpus.jsonl", docs)
            (tmp / "stop.txt").write_bytes(data)
            code = assert_contract(tmp / "corpus.jsonl", tmp / "stopped",
                                   "--stopwords", str(tmp / "stop.txt"))
            try:
                stopwords = stopword_set(data)
            except UnicodeDecodeError:
                assert code == 2
                return
            if build(tmp / "corpus.jsonl", tmp / "all")[0] != 0:
                assert code == 2
                return
            want = [w for w in vocab_words(tmp / "all") if w not in stopwords]
            if want:
                assert code == 0
                assert vocab_words(tmp / "stopped") == want
            else:
                assert code == 2

    @given(data=CONFIG_FILES)
    @example(data=b"window = 0\n")
    @example(data=b"ridge = nan # no\nmethod = dw2v")
    @example(data=b"\xef\xbb\xbfmin_count = 1_0\r\nseed = -1")
    @FUZZ
    def test_config_files(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_jsonl(tmp / "corpus.jsonl",
                        [(1, "a cat and a dog"), (2, "the cat sat")])
            (tmp / "run.cfg").write_bytes(data)
            assert_contract(tmp / "corpus.jsonl", tmp / "run",
                            "--config", str(tmp / "run.cfg"))


# ---------------------------------------------------------------------------
# query, evaluate and robustness against one tiny run directory.

FUZZ_RUN = settings(max_examples=60, deadline=None, derandomize=True)

RUN_LABELS = (1990, 1991, 1992)
RUN_WORDS = [f"w{i:02d}" for i in range(40)] + ["été", "a\u03a3"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A run directory of 3 slices and 42 words, with dw2v and tw2v
    embeddings (enough words for tw2v's local maps)."""
    tmp = tmp_path_factory.mktemp("fuzz-run")
    rng = random.Random(4)
    write_jsonl(tmp / "corpus.jsonl", [
        (label, " ".join(rng.choices(RUN_WORDS, k=12)))
        for label in RUN_LABELS for _ in range(40)])
    out = tmp / "run"
    assert run("build", "--corpus", tmp / "corpus.jsonl", "--out", out,
               "--window", "2")[0] == 0
    for method in ("dw2v", "tw2v"):
        assert run("train", "--out", out, "--method", method, "--dim", "3",
                   "--epochs", "1")[0] == 0
    return out


def values(good, bad, one_in):
    """One of `good`, or of `bad` once in `one_in` draws."""
    return mostly(st.sampled_from(good), st.sampled_from(bad), one_in)


# CSV field values: words of the run and others (other forms of its words
# among them), labels of the run and others, and values that do not parse
# (rarely: one of them fails the whole file).
WORDS = values(["w00", "w01", "w17", "w39", "été", "a\u03c2"],
               ["a\u03c3", "W00", " w00", "unicorn", ""], 8)
LABELS = values(["1990", "1991", "1992"],
                ["1989", "-1", " 1991", "1991.0", "1e3", "x", "", str(2**64)],
                40)
STRENGTHS = values(["0.9", "1", "0.5", "0.1"],
                   ["0", "-1", "nan", "inf", "1e400", "x", ""], 40)
SECTIONS = values(["A", "B", "C"], ["", "a,b", "\u00e9"], 10)


def csv_files(columns):
    """CSV bytes: the header of `columns` (a name -> field values mapping)
    or a damaged one, then rows of one value a column, some quoted, and
    rows that are not; any line ending, and any bytes once in ten files."""
    names = list(columns)
    header = mostly(st.just(",".join(names)), st.sampled_from([
        ",".join(reversed(names)), ",".join(names[:-1]),
        ",".join(names) + ",extra", "\ufeff" + ",".join(names), "",
        ",".join(names).upper()]), 10)
    row = st.tuples(*(st.tuples(field, st.booleans()).map(
        lambda t: f'"{t[0]}"' if t[1] else t[0])
        for field in columns.values())).map(",".join)
    other = st.lists(WORDS, max_size=6).map(",".join) | st.sampled_from(
        ['"unterminated', "\x00", "x" * 200_000])
    rows = st.lists(mostly(row, other, 40), min_size=1, max_size=8)
    return mostly(st.builds(
        lambda head, rows, eol: eol.join([head, *rows, ""]).encode(),
        header, rows, st.sampled_from(["\n", "\r\n", "\r"])),
        st.binary(max_size=12), 10)


TESTSETS = csv_files({"query_word": WORDS, "query_label": LABELS,
                      "target_label": LABELS, "answer_word": WORDS})
TRIPLETS = csv_files({"word": WORDS, "label": LABELS, "section": SECTIONS,
                      "strength": STRENGTHS})


def flag(name, choices):
    """No `name` flag, or `name` with one of `choices`."""
    return st.sampled_from([[]] + [[name, v] for v in choices])


def fault(*flags):
    """No flags, or once in eight draws one of `flags` (lists of
    arguments), given after the others so that it wins."""
    return mostly(st.just([]), st.sampled_from(flags), 8)


# sw2v and aw2v are not trained in the run, so they fail as missing.
METHOD = flag("--method", ["dw2v", "tw2v"])
BAD_METHOD = [["--method", m] for m in ("aw2v", "sw2v", "x")]
SEED = flag("--seed", ["0", "7", "-1", str(2**64)])
BAD_SEED = [["--seed", v] for v in ("x", "1.5")]
SOLVER = st.tuples(
    flag("--dim", ["1", "2"]), flag("--epochs", ["1"]),
    *(flag(f"--{name}", ["0", "1", "0.5"])
      for name in ("ridge", "smoothing", "coupling")),
    SEED).map(lambda flags: sum(flags, []))
BAD_SOLVER = BAD_SEED + [
    ["--dim", v] for v in ("0", "-1", "2.0", "x")] + [["--epochs", "0"]] + [
    [f"--{name}", v] for name in ("ridge", "smoothing", "coupling")
    for v in ("-1", "nan", "inf", "1e400")]


def assert_run_contract(out, *argv):
    """Run `tvembed` with `argv` against the run directory `out`; check
    the exit-code contract and that `out` is unchanged."""
    before = run_files(out)
    code, stdout, stderr = run(*argv)
    assert run_files(out) == before
    errors = [line for line in stderr if not line.startswith("warning: ")]
    if code == 0:
        assert errors == [] and stdout
    elif errors and errors[0].startswith("usage: "):
        # argparse rejects the command line before any command runs.
        assert code == 2 and stdout == []
        assert errors[-1].startswith(f"tvembed {argv[0]}: error: ")
    else:
        assert code in (2, 3, 4)
        assert stdout == []
        assert len(errors) == 1 and stderr[-1].startswith("error: ")
    return code


class TestRunContract:
    @given(word=WORDS, label=LABELS,
           k=flag("-k", ["1", "3", "41", "100", "99999999999999999999"]),
           target=st.sampled_from([[], ["--all-years"]]) | st.builds(
               lambda label: ["--target-label", label], LABELS),
           method=METHOD,
           bad=fault(*BAD_METHOD, ["-k", "0"], ["-k", "-2"], ["-k", "x"],
                     ["--target-label", "1991", "--all-years"], ["--label"],
                     ["--", "w00"]))
    @example(word="w00", label="1990", k=["-k", "3"], target=["--all-years"],
             method=["--method", "tw2v"], bad=[])
    @FUZZ_RUN
    def test_query(self, tiny_run, word, label, k, target, method, bad):
        assert_run_contract(tiny_run, "query", word, "--out", tiny_run,
                            "--label", label, *k, *target, *method, *bad)

    @given(testset=mostly(TESTSETS, st.none()),
           triplets=mostly(st.none(), TRIPLETS, 3), method=METHOD, seed=SEED,
           json_out=mostly(st.sampled_from([None, "r.json"]),
                           st.sampled_from(["missing/r.json", "."])),
           bad=fault(*BAD_METHOD, *BAD_SEED))
    @example(testset=b"query_word,query_label,target_label,answer_word\n"
                     b"w00,1990,1992,w00\n", triplets=None, method=[],
             seed=[], json_out="r.json", bad=[])
    @example(testset=None, triplets=b"word,label,section,strength\nw00,"
                                     + b"1" * 200_000 + b",A,0.9\n",
             method=[], seed=[], json_out=None, bad=[])
    @FUZZ_RUN
    def test_evaluate(self, tiny_run, testset, triplets, method, seed,
                      json_out, bad):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            flags = []
            for name, data in (("testset", testset), ("triplets", triplets)):
                if data is not None:
                    (tmp / f"{name}.csv").write_bytes(data)
                    flags += [f"--{name}", tmp / f"{name}.csv"]
            if json_out is not None:
                flags += ["--json-out", tmp / json_out]
            code = assert_run_contract(tiny_run, "evaluate", "--out",
                                       tiny_run, *flags, *method, *seed, *bad)
            if json_out == "r.json":
                assert (tmp / json_out).exists() == (code == 0)

    @given(testset=mostly(TESTSETS, st.none(), 10),
           rates=flag("--rates", ["1", "0.5", "0.5,1", " 0.5", "1e-300"]),
           slices=flag("--slices", ["alternate", "all", "1991", "1990,1992"]),
           solver=SOLVER,
           bad=fault(*BAD_SOLVER, *(["--rates", v] for v in (
               "0", "1.5", "nan", "", "0.5,")), *(["--slices", v] for v in (
               "1989", "x", "", "1990,,1991"))))
    @example(testset=b"query_word,query_label,target_label,answer_word\n"
                     b"w00,1990,1992,w00\n", rates=["--rates", "0.5"],
             slices=[], solver=["--dim", "2", "--epochs", "1"], bad=[])
    @FUZZ_RUN
    def test_robustness(self, tiny_run, testset, rates, slices, solver, bad):
        with tempfile.TemporaryDirectory() as tmp:
            flags = []
            if testset is not None:
                (Path(tmp) / "testset.csv").write_bytes(testset)
                flags = ["--testset", Path(tmp) / "testset.csv"]
            assert_run_contract(tiny_run, "robustness", "--out", tiny_run,
                                *flags, *rates, *slices, *solver, *bad)

"""Command-line entry point: build, train, query, evaluate, robustness,
export-norms.

Runs are reproducible from a single config file (key = value lines) that
may name any setting, so one file serves every command. Each command takes
`--config`, `--out` and a flag only for each other setting it reads
(`COMMANDS`); those flags override file values. A master seed fans out to
the stochastic components through name-hashed subseeds. `main` resolves the
config and the run directory `--out` (`RunDir`) once; every command reads
and writes `--out` through it.

Every failure prints one line "error: <reason>" to stderr (after the usage,
when argparse rejects the command line) and exits with the code
`_EXIT_CODES` gives its exception, never with a traceback:

- 2: a bad flag (one the command does not take among them), setting or
  config file (`evaluate --method tw2v --triplets` among them), a missing
  input file, a file of the run directory that is missing ("error: <path>:
  missing; run <build|train> first"), an input that cannot be read (a
  directory, "error: <path>: <reason>") or an output that cannot be
  written, no word reaching min_count, or a malformed input file, such as
  a slice label outside the signed 64-bit range, a damaged or stale
  artifact ("error: <path>[:<line>]: <reason>"), a training whose ridge
  system overflows on such an artifact, or an allocation that fails, such
  as that of a `--dim` too large for memory;
- 3: an unknown word or slice label, a query word whose vector is zero in
  its slice, or a tw2v query word with no local map into a target slice;
- 4: an evaluation left with nothing to score.

A warning prints one line "warning: <message>" to stderr, each distinct one
once per command.
"""

import argparse
import difflib
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from pathlib import Path

from tvembed import baselines, evaluation
from tvembed.artifact import (ArtifactError, ArtifactVersionError,
                              atomic_write_bytes, read_text)
from tvembed.corpus import (
    EmptyVocabularyError,
    Vocabulary,
    build_vocabulary,
    count_cooccurrences,
    load_corpus,
    load_stopwords,
    read_stats,
    subsample_counts,
    write_stats,
)
from tvembed.ppmi import PpmiSequence, build_ppmi, read_ppmi, write_ppmi
from tvembed.solver import (
    SolverConfig,
    final_embedding,
    read_embeddings_binary,
    train,
    write_embeddings_binary,
    write_embeddings_text,
)

METHODS = ("dw2v", "sw2v", "tw2v", "aw2v")


class UsageError(Exception):
    pass


class LookupFailure(Exception):
    pass


_EXIT_CODES = {UsageError: 2, OSError: 2, EmptyVocabularyError: 2,
               ArtifactError: 2, MemoryError: 2, FloatingPointError: 2,
               LookupFailure: 3, evaluation.EmptyEvaluation: 4}


def derive_seed(master, component):
    """Stable per-component subseed: hash of the component name keyed by
    the master seed. Prevents accidental stream reuse across components."""
    digest = hashlib.sha256(f"{master}:{component}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**31)


@dataclass
class RunConfig:
    corpus: str = ""
    stopwords: str = ""
    min_count: int = 1
    window: int = 5
    dim: int = SolverConfig.dim
    ridge: float = SolverConfig.ridge
    smoothing: float = SolverConfig.smoothing
    coupling: float = SolverConfig.coupling
    epochs: int = SolverConfig.epochs
    seed: int = 0
    method: str = "dw2v"
    out: str = "run"

    def solver_config(self, component="train"):
        return SolverConfig(
            dim=self.dim,
            ridge=self.ridge,
            smoothing=self.smoothing,
            coupling=self.coupling,
            epochs=self.epochs,
            seed=derive_seed(self.seed, component),
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path):
    """Parse 'key = value' lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def build_run_config(args):
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    cfg = RunConfig()
    for key, val in values.items():
        try:
            val = _FIELD_TYPES[key](val)
        except ValueError as e:
            raise UsageError(f"config key {key!r}: {e}") from None
        cfg = replace(cfg, **{key: val})
    if cfg.method not in METHODS:
        raise UsageError(
            f"unknown method {cfg.method!r}, expected one of {'/'.join(METHODS)}"
        )
    if cfg.window < 1 or cfg.min_count < 1:
        raise UsageError("window and min_count must be >= 1")
    if cfg.window >= 2**32:
        raise UsageError("window must be < 2**32")
    try:
        cfg.solver_config()
    except ValueError as e:
        raise UsageError(str(e)) from None
    return cfg


# ---------------------------------------------------------------------------
# The run directory.


def write_vocab(words, path):
    atomic_write_bytes(path, ("\n".join(words) + "\n").encode("utf-8"))


def read_vocab(path):
    words = read_text(path).splitlines()
    try:
        return Vocabulary(words)
    except ValueError as e:
        raise ArtifactError(path, f"{e}; rerun build") from None


class RunDir:
    """The run directory `--out` of one command (README "Run directory").
    `vocab` and `labels` are read once each, on first use; a command reads
    vocab.txt before any other file, so a run with several faults reports
    the same one first. Each artifact reader checks the artifact against
    vocab.txt and labels.json; a missing file names its writer command."""

    def __init__(self, out):
        self.out = Path(out)

    def stats_path(self, label):
        return self.out / f"stats_{label}.tvco"

    def ppmi_path(self, label):
        return self.out / f"ppmi_{label}.tvpm"

    def _emb_path(self, method, suffix):
        tag = "_perslice" if method == "tw2v" else ""
        return self.out / f"embeddings_{method}{tag}.{suffix}"

    def _read(self, reader, path, writer, **kwargs):
        try:
            return reader(path, **kwargs)
        except FileNotFoundError:
            raise ArtifactError(path, f"missing; run {writer} first") from None
        except ArtifactVersionError as e:
            raise ArtifactError(path, f"version {e.found}, expected "
                                f"{e.expected}; rerun {writer}") from None

    @cached_property
    def vocab(self):
        return self._read(read_vocab, self.out / "vocab.txt", "build")

    @cached_property
    def labels(self):
        path = self.out / "labels.json"
        try:
            labels = json.loads(self._read(read_text, path, "build"))
        except json.JSONDecodeError:
            labels = None
        if not (isinstance(labels, list) and labels
                and all(type(lab) is int for lab in labels)
                and all(a < b for a, b in zip(labels, labels[1:]))):
            raise ArtifactError(
                path, "expected a JSON list of strictly increasing integer labels"
            )
        return labels

    def _check_fresh(self, path, V, writer, labels=None, run_labels=None):
        """Raise ArtifactError unless `labels` and V match the run's."""
        if labels != run_labels:
            raise ArtifactError(
                path, f"slice labels {labels} but labels.json expects "
                f"{run_labels}; rerun {writer}"
            )
        if V != len(self.vocab):
            raise ArtifactError(
                path, f"V={V} but vocab.txt has {len(self.vocab)} words; "
                f"rerun {writer}"
            )

    def create(self, words, labels):
        """Make the directory, remove every method's embeddings, which belong
        to the corpus of an earlier build, and write build's vocab.txt and
        labels.json."""
        self.out.mkdir(parents=True, exist_ok=True)
        for method in METHODS:
            for suffix in ("tvem", "txt"):
                self._emb_path(method, suffix).unlink(missing_ok=True)
        write_vocab(words, self.out / "vocab.txt")
        atomic_write_bytes(self.out / "labels.json",
                           json.dumps(labels, sort_keys=True).encode())

    def stats(self):
        """The count statistics of every slice, in label order."""
        self.vocab  # read before any other file
        stats = []
        for lab in self.labels:
            path = self.stats_path(lab)
            stats.append(self._read(read_stats, path, "build"))
            self._check_fresh(path, stats[-1].cooc.shape[0], "build")
        return stats

    def ppmi(self):
        """The PPMI sequence of every slice, in label order."""
        self.vocab  # read before any other file
        mats = []
        for lab in self.labels:
            path = self.ppmi_path(lab)
            mats.append(self._read(read_ppmi, path, "build"))
            self._check_fresh(path, mats[-1].shape[0], "build",
                              [mats[-1].slice_label], [lab])
        return PpmiSequence(matrices=mats, vocab_size=len(self.vocab))

    def embeddings(self, method):
        """The embedding matrix of each slice of `method` and its row norms,
        as the .tvem stores them: two mappings from slice label, in label
        order."""
        self.vocab  # read before any other file
        path = self._emb_path(method, "tvem")
        mats, labels, norms = self._read(read_embeddings_binary, path,
                                         "train", with_norms=True)
        self._check_fresh(path, mats[0].shape[0] if mats else 0, "train",
                          labels, self.labels)
        return dict(zip(labels, mats)), dict(zip(labels, norms))

    def write_embeddings(self, method, matrices, labels):
        write_embeddings_binary(matrices, labels,
                                self._emb_path(method, "tvem"))
        write_embeddings_text(matrices, labels, self.vocab.words,
                              self._emb_path(method, "txt"))


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_build(args, cfg, run):
    if not cfg.corpus:
        raise UsageError("no corpus path configured")
    stopwords = load_stopwords(cfg.stopwords) if cfg.stopwords else frozenset()
    corpus = load_corpus(cfg.corpus, stopwords)
    vocab = build_vocabulary(corpus, cfg.min_count)
    run.create(vocab.words, corpus.slice_labels)
    total_nnz = 0
    for docs, label in zip(corpus.slices, corpus.slice_labels):
        stats = count_cooccurrences(docs, vocab, cfg.window)
        write_stats(stats, run.stats_path(label))
        mat = build_ppmi(stats, slice_label=label)
        write_ppmi(mat, run.ppmi_path(label))
        total_nnz += mat.values.nnz
    print(
        f"V={len(vocab)} T={corpus.num_slices} ppmi_nnz={total_nnz} "
        f"out={run.out}"
    )
    return 0


def _fit(cfg, method, data, sink=None):
    """The per-slice embedding matrices of `method` trained on `data`: the
    count statistics of every slice for sw2v, the PpmiSequence otherwise.
    dw2v reports each update to `sink`."""
    config = cfg.solver_config(method)
    if method == "dw2v":
        return final_embedding(train(data, config, progress_sink=sink))
    if method == "sw2v":
        # One static matrix reused for every slice keeps the downstream
        # query/evaluate interface uniform.
        return [baselines.train_static(data, config)] * len(data)
    mats = baselines.train_per_slice(data, config)
    return baselines.align_sequence(mats) if method == "aw2v" else mats


def cmd_train(args, cfg, run):
    method = cfg.method

    def sink(event):
        # The solver streams the objective on each epoch's last update.
        if event.objective is not None:
            print(f"epoch {event.epoch + 1}: objective "
                  f"{event.objective.total:.6e}")

    data = run.stats() if method == "sw2v" else run.ppmi()
    mats = _fit(cfg, method, data, sink)
    run.write_embeddings(method, mats, run.labels)
    print(f"trained {method} on {len(run.labels)} slices, out={cfg.out}")
    return 0


def cmd_query(args, cfg, run):
    if args.k < 1:
        raise UsageError("-k must be >= 1")
    vocab = run.vocab
    slices, norms = run.embeddings(cfg.method)
    if args.word not in vocab:
        close = difflib.get_close_matches(args.word, vocab.words, n=5)
        raise LookupFailure(
            f"word {args.word!r} not in vocabulary; closest: {', '.join(close)}"
        )
    w = vocab.index[args.word]
    target = args.label if args.target_label is None else args.target_label
    for flag, label in (("--label", args.label), ("--target-label", target)):
        _check_slice_labels(flag, [label], slices)
    query = slices[args.label][w]
    if not query.any():
        raise LookupFailure(
            f"word {args.word!r} has a zero vector in slice {args.label}")
    targets = list(slices) if args.all_years else [target]
    queries = [query] * len(targets)
    if cfg.method == "tw2v":
        queries = _tw2v_queries([(w, args.label, t) for t in targets],
                                slices, norms)
        for t, q in zip(targets, queries):
            if q is None:
                raise LookupFailure(
                    f"word {args.word!r} has no local map from slice "
                    f"{args.label} into slice {t}: too few words are nonzero "
                    f"in both")
    for target, q in zip(targets, queries):
        drop = w if target == args.label else None
        top = evaluation.nearest_neighbors(q, slices[target], args.k, drop,
                                           norms[target])
        row = ", ".join(f"{vocab.words[i]}:{s:.4f}" for i, s in top)
        print(f"{args.word}@{args.label} -> {target}: {row}")
    return 0


def _evaluate_report(cfg, slices, norms, vocab, testset_path, triplet_path):
    report = {}
    if triplet_path:
        items = evaluation.load_labeled_triplets(triplet_path, vocab)
        if not items:
            raise evaluation.EmptyEvaluation(
                "no labeled triplets survive filtering")
        _check_slice_labels(triplet_path,
                            [it.slice_label for it in items], slices)
        clus = evaluation.clustering_report(
            items, slices, seed=derive_seed(cfg.seed, "clustering")
        )
        report.update(clus)
    if testset_path:
        ts = _load_testset(testset_path, vocab, slices)
        queries = None
        if cfg.method == "tw2v":
            # Records without a map are skipped.
            queries = _tw2v_queries([(w, a, b) for w, a, b, _ in ts.records],
                                    slices, norms)
        align = evaluation.alignment_report(ts, slices, queries=queries,
                                            norms=norms)
        report["mrr"] = align["mrr"]
        report["mp"] = align["mp"]
    return report


def _tw2v_queries(records, slices, norms):
    """The vector that ranks each (word, query label, target label) record
    for tw2v, whose slices are trained apart and not aligned: the word's own
    vector when the two slices are one, else its local linear map into the
    target slice, or None where it has no map."""
    mapped = iter(baselines.local_linear_maps(
        [(w, a, b) for w, a, b in records if a != b], slices, norms=norms))
    return [slices[a][w] if a == b else next(mapped) for w, a, b in records]


def _load_testset(path, vocab, labels):
    """The alignment testset at `path`; every record's query and target
    label must be a slice of the run."""
    ts = evaluation.load_testset(path, vocab)
    if not ts.records:
        raise evaluation.EmptyEvaluation(
            "testset is empty after vocabulary filtering")
    _check_slice_labels(
        path, [lab for _, a, b, _ in ts.records for lab in (a, b)], labels
    )
    return ts


def _check_slice_labels(source, used, labels):
    """Raise LookupFailure naming the first label in `used` (read from
    `source`) that is not a slice of the run."""
    known = set(labels)
    for label in used:
        if label not in known:
            raise LookupFailure(f"{source}: unknown slice label {label}")


def cmd_evaluate(args, cfg, run):
    if not (args.testset or args.triplets):
        raise UsageError("nothing to evaluate: give --testset or --triplets")
    if args.triplets and cfg.method == "tw2v":
        raise UsageError(
            "--triplets cannot be scored for tw2v: its slices are trained "
            "separately and not aligned, so their vectors cannot be "
            "clustered together")
    slices, norms = run.embeddings(cfg.method)
    report = _evaluate_report(cfg, slices, norms, run.vocab, args.testset,
                              args.triplets)
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.json_out:
        atomic_write_bytes(args.json_out, payload.encode())
    print(payload)
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            cols = "  ".join(f"{k}={v:.4f}" for k, v in sorted(val.items()))
            print(f"{key:8s} {cols}")
        else:
            print(f"{key:8s} {val:.4f}")
    return 0


def _parse_rates(text):
    """The comma-separated subsampling rates of --rates, each in (0, 1]."""
    rates = []
    for part in text.split(","):
        try:
            rate = float(part)
        except ValueError:
            raise UsageError(f"--rates: {part!r} is not a number") from None
        if not 0 < rate <= 1:
            raise UsageError(f"--rates: rate {part} is not in (0, 1]")
        rates.append(rate)
    return rates


def cmd_robustness(args, cfg, run):
    rates = _parse_rates(args.rates)
    vocab, labels = run.vocab, run.labels
    if args.slices == "alternate":
        selected = set(labels[::2])
    elif args.slices == "all":
        selected = set(labels)
    else:
        try:
            chosen = [int(s) for s in args.slices.split(",")]
        except ValueError:
            raise UsageError(
                f"--slices: expected 'alternate', 'all' or comma-separated "
                f"integer labels, got {args.slices!r}"
            ) from None
        _check_slice_labels("--slices", chosen, labels)
        selected = set(chosen)
    stats = run.stats()
    ts = _load_testset(args.testset, vocab, labels)
    config = cfg.solver_config("aw2v")

    def fit_slice(t, rate):
        """Slice t's PPMI with its counts subsampled at `rate`, and its aw2v
        slice model."""
        st = stats[t]
        if rate < 1.0:
            st = subsample_counts(
                st, rate, derive_seed(cfg.seed, f"subsample:{labels[t]}:{rate}")
            )
        Y_t = build_ppmi(st, slice_label=labels[t])
        return Y_t, baselines.train_slice(Y_t, t, config)

    # A slice left whole is the same at every rate: built and trained once.
    whole = cache(lambda t: fit_slice(t, 1.0))
    rows = []
    for rate in rates:
        fits = [fit_slice(t, rate) if lab in selected and rate < 1.0
                else whole(t) for t, lab in enumerate(labels)]
        Y = PpmiSequence(matrices=[Y_t for Y_t, _ in fits],
                         vocab_size=len(vocab))
        for method, mats in (
                ("dw2v", _fit(cfg, "dw2v", Y)),
                ("aw2v", baselines.align_sequence([m for _, m in fits]))):
            rep = evaluation.alignment_report(ts, dict(zip(labels, mats)))
            rows.append(
                {"method": method, "rate": rate, "mrr": rep["mrr"],
                 "mp": rep["mp"]}
            )
    print(json.dumps(rows, sort_keys=True, indent=2))
    print(f"{'method':6s} {'rate':>6s} {'MRR':>7s} "
          + " ".join(f"MP@{k:<2d}" for k in evaluation.PRECISIONS))
    for r in rows:
        mp = " ".join(f"{r['mp'][str(k)]:.3f}" for k in evaluation.PRECISIONS)
        print(f"{r['method']:6s} {r['rate']:6.3f} {r['mrr']:7.4f} {mp}")
    return 0


def cmd_export_norms(args, cfg, run):
    words = args.words.split(",")
    if "" in words:
        raise UsageError(f"--words: word {words.index('') + 1} of "
                         f"{args.words!r} is empty")
    vocab = run.vocab
    slices, _ = run.embeddings(cfg.method)
    missing = [w for w in words if w not in vocab]
    if missing:
        raise LookupFailure(f"words not in vocabulary: {', '.join(missing)}")
    lines = ["word,label,norm"]
    for w in words:
        for lab, norm in evaluation.norm_series(vocab.index[w], slices):
            lines.append(f"{w},{lab},{norm:.9g}")
    payload = "\n".join(lines) + "\n"
    if args.csv_out:
        atomic_write_bytes(args.csv_out, payload.encode())
    else:
        print(payload, end="")
    return 0


# ---------------------------------------------------------------------------


def _query_flags(p):
    p.add_argument("word")
    p.add_argument("--label", type=int, required=True)
    p.add_argument("-k", type=int, default=10)
    targets = p.add_mutually_exclusive_group()
    targets.add_argument("--target-label", type=int)
    targets.add_argument("--all-years", action="store_true")


def _evaluate_flags(p):
    p.add_argument("--testset", help="alignment testset CSV")
    p.add_argument("--triplets", help="labeled triplet CSV")
    p.add_argument("--json-out", help="write the JSON report here")


def _robustness_flags(p):
    p.add_argument("--testset", required=True)
    p.add_argument("--rates", default="1,0.1,0.01,0.001")
    p.add_argument("--slices", default="alternate",
                   help="'alternate', 'all', or comma-separated labels")


def _export_norms_flags(p):
    p.add_argument("--words", required=True, help="comma-separated word list")
    p.add_argument("--csv-out")


def _no_flags(p):
    pass


_SOLVER_SETTINGS = ("dim", "ridge", "smoothing", "coupling", "epochs", "seed")

# name -> (help, the RunConfig settings it reads besides `out`, adder of its
# flags beyond those settings' flags and --config); `main` runs cmd_<name>.
COMMANDS = {
    "build": ("corpus -> stats + PPMI artifacts",
              ("corpus", "stopwords", "min_count", "window"), _no_flags),
    "train": ("PPMI artifacts -> embeddings",
              ("method", *_SOLVER_SETTINGS), _no_flags),
    "query": ("nearest neighbors of a word-year pair", ("method",),
              _query_flags),
    "evaluate": ("clustering and alignment metrics", ("method", "seed"),
                 _evaluate_flags),
    "robustness": ("subsampled-rates comparison table", _SOLVER_SETTINGS,
                   _robustness_flags),
    "export-norms": ("per-word norm series CSV", ("method",),
                     _export_norms_flags),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that rejects a flag its subcommand does not take
    with that subcommand's usage and `<prog> <command>: error:` line, not
    the top-level ones argparse prints."""

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.commands[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
        return args


@cache
def make_parser():
    """The command-line parser. Each subcommand takes --config, --out, a
    flag for each other setting it reads, and its own flags. It is built
    once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="tvembed",
        description="Temporally aligned word embeddings from time-sliced corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, settings, add_flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file of key = value lines")
        for setting in (*settings, "out"):
            p.add_argument(f"--{setting.replace('_', '-')}", dest=setting)
        add_flags(p)
    parser.commands = sub.choices
    return parser


def _warning_line(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    args = make_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = (warnings.formatwarning,
                                             _warning_line)
    try:
        # Entering forgets which warnings were shown, so each command shows
        # its own; leaving restores the caller's filters.
        with warnings.catch_warnings():
            cfg = build_run_config(args)
            # Looked up when called, so a wrapper set on the module runs.
            handler = globals()[f"cmd_{args.command.replace('-', '_')}"]
            return handler(args, cfg, RunDir(cfg.out))
    except tuple(_EXIT_CODES) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(e, kind))
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

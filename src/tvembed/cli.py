"""Command-line entry point: build, train, query, evaluate, robustness,
export-norms.

Runs are reproducible from a single config file (key = value lines);
command-line flags override file values. A master seed fans out to the
stochastic components through name-hashed subseeds.

Every failure prints one line "error: <reason>" to stderr (after the usage,
when argparse rejects the command line) and exits with the code
`_EXIT_CODES` gives its exception, never with a traceback:

- 2: a bad flag, setting or config file, a missing file, no word reaching
  min_count, or a malformed input file or a damaged or stale artifact
  ("error: <path>[:<line>]: <reason>");
- 3: an unknown word or slice label;
- 4: an evaluation left with nothing to score.
"""

import argparse
import difflib
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from tvembed import baselines, evaluation
from tvembed.artifact import ArtifactError, atomic_write_bytes, read_text
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
    objective,
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


_EXIT_CODES = {UsageError: 2, FileNotFoundError: 2, EmptyVocabularyError: 2,
               ArtifactError: 2, LookupFailure: 3,
               evaluation.EmptyEvaluation: 4}


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
    dim: int = 50
    ridge: float = 10.0
    smoothing: float = 50.0
    coupling: float = 50.0
    epochs: int = 5
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
    if getattr(args, "config", None):
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
    try:
        cfg.solver_config()
    except ValueError as e:
        raise UsageError(str(e)) from None
    return cfg


# ---------------------------------------------------------------------------
# Artifact layout inside the output directory.


def _vocab_path(out):
    return Path(out) / "vocab.txt"


def _stats_path(out, label):
    return Path(out) / f"stats_{label}.tvco"


def _ppmi_path(out, label):
    return Path(out) / f"ppmi_{label}.tvpm"


def _emb_path(out, method, suffix):
    """The embeddings file of `method` with extension `suffix`; tw2v's are
    its unaligned per-slice matrices, tagged so."""
    tag = "_perslice" if method == "tw2v" else ""
    return Path(out) / f"embeddings_{method}{tag}.{suffix}"


def _labels_file(out):
    return Path(out) / "labels.json"


def write_vocab(words, path):
    atomic_write_bytes(path, ("\n".join(words) + "\n").encode("utf-8"))


def read_vocab(path):
    words = read_text(path).splitlines()
    try:
        return Vocabulary(words)
    except ValueError as e:
        raise ArtifactError(path, f"{e}; rerun build") from None


def read_labels(out):
    path = _labels_file(out)
    try:
        labels = json.loads(read_text(path))
    except json.JSONDecodeError:
        labels = None
    if not (isinstance(labels, list) and labels
            and all(type(lab) is int for lab in labels)
            and all(a < b for a, b in zip(labels, labels[1:]))):
        raise ArtifactError(
            path, "expected a JSON list of strictly increasing integer labels"
        )
    return labels


def _check_fresh(path, V, vocab, rerun, labels=None, run_labels=None):
    """Raise ArtifactError when an artifact read from `path` does not match
    the run's labels.json (its slice labels) or vocab.txt (its V)."""
    if labels != run_labels:
        raise ArtifactError(
            path, f"slice labels {labels} but labels.json expects "
            f"{run_labels}; rerun {rerun}"
        )
    if V != len(vocab):
        raise ArtifactError(
            path, f"V={V} but vocab.txt has {len(vocab)} words; rerun {rerun}"
        )


def _load_stats(cfg, vocab, labels):
    stats = []
    for lab in labels:
        path = _stats_path(cfg.out, lab)
        stats.append(read_stats(path))
        _check_fresh(path, stats[-1].cooc.shape[0], vocab, "build")
    return stats


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_build(args):
    cfg = build_run_config(args)
    if not cfg.corpus:
        raise UsageError("no corpus path configured")
    stopwords = load_stopwords(cfg.stopwords) if cfg.stopwords else frozenset()
    corpus = load_corpus(cfg.corpus, stopwords)
    vocab = build_vocabulary(corpus, cfg.min_count)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_vocab(vocab.words, _vocab_path(out))
    atomic_write_bytes(
        _labels_file(out),
        json.dumps(corpus.slice_labels, sort_keys=True).encode(),
    )
    total_nnz = 0
    for docs, label in zip(corpus.slices, corpus.slice_labels):
        stats = count_cooccurrences(docs, vocab, cfg.window)
        write_stats(stats, _stats_path(out, label))
        mat = build_ppmi(stats, slice_label=label)
        write_ppmi(mat, _ppmi_path(out, label))
        total_nnz += mat.values.nnz
    print(
        f"V={len(vocab)} T={corpus.num_slices} ppmi_nnz={total_nnz} "
        f"out={out}"
    )
    return 0


def _load_ppmi_sequence(cfg, vocab):
    labels = read_labels(cfg.out)
    mats = []
    for lab in labels:
        path = _ppmi_path(cfg.out, lab)
        mats.append(read_ppmi(path, check=lambda V, label: _check_fresh(
            path, V, vocab, "build", [label], [lab])))
    return PpmiSequence(matrices=mats, vocab_size=len(vocab))


def _write_embeddings(out, method, matrices, labels, words):
    write_embeddings_binary(matrices, labels, _emb_path(out, method, "tvem"))
    write_embeddings_text(matrices, labels, words,
                          _emb_path(out, method, "txt"))


def _fit(cfg, method, Y, stats=None, sink=None):
    """The per-slice embedding matrices of `method` trained on Y; sw2v trains
    on the count statistics `stats` instead, and dw2v reports each update to
    `sink`."""
    config = cfg.solver_config(method)
    if method == "dw2v":
        return final_embedding(train(Y, config, progress_sink=sink))
    if method == "sw2v":
        # One static matrix reused for every slice keeps the downstream
        # query/evaluate interface uniform.
        return [baselines.train_static(stats, config)] * len(Y.labels)
    mats = baselines.train_per_slice(Y, config)
    return baselines.align_sequence(mats) if method == "aw2v" else mats


def cmd_train(args):
    cfg = build_run_config(args)
    vocab = read_vocab(_vocab_path(cfg.out))
    Y = _load_ppmi_sequence(cfg, vocab)
    labels, method = Y.labels, cfg.method

    def sink(event):
        # Log the objective once per epoch, after the last update.
        if event.t == len(labels) - 1 and event.factor == "W":
            print(f"epoch {event.epoch + 1}: objective "
                  f"{objective(event.state, Y):.6e}")

    stats = _load_stats(cfg, vocab, labels) if method == "sw2v" else None
    mats = _fit(cfg, method, Y, stats, sink)
    _write_embeddings(cfg.out, method, mats, labels, vocab.words)
    print(f"trained {method} on {len(labels)} slices, out={cfg.out}")
    return 0


def _embeddings_for(cfg, vocab):
    path = _emb_path(cfg.out, cfg.method, "tvem")
    if not path.exists():
        raise UsageError(f"no embeddings found at {path}; run train first")
    mats, labels = read_embeddings_binary(path)
    _check_fresh(path, mats[0].shape[0] if mats else 0, vocab, "train",
                 labels, read_labels(cfg.out))
    return mats, labels


def cmd_query(args):
    cfg = build_run_config(args)
    if args.k < 1:
        raise UsageError("-k must be >= 1")
    vocab = read_vocab(_vocab_path(cfg.out))
    mats, labels = _embeddings_for(cfg, vocab)
    if args.word not in vocab:
        close = difflib.get_close_matches(args.word, vocab.words, n=5)
        raise LookupFailure(
            f"word {args.word!r} not in vocabulary; closest: {', '.join(close)}"
        )
    w = vocab.index[args.word]
    by_label = {lab: m for lab, m in zip(labels, mats)}
    target = args.label if args.target_label is None else args.target_label
    for flag, label in (("--label", args.label), ("--target-label", target)):
        _check_slice_labels(flag, [label], labels)
    targets = labels if args.all_years else [target]
    for target in targets:
        exclude = (
            {w} if (target == args.label and not args.keep_self) else set()
        )
        top = evaluation.nearest_neighbors(
            by_label[args.label][w], by_label[target], args.k, exclude=exclude
        )
        row = ", ".join(f"{vocab.words[i]}:{s:.4f}" for i, s in top)
        print(f"{args.word}@{args.label} -> {target}: {row}")
    return 0


def _evaluate_report(cfg, mats, labels, vocab, testset_path, triplet_path):
    report = {}
    if triplet_path:
        items = evaluation.load_labeled_triplets(triplet_path, vocab)
        if not items:
            raise evaluation.EmptyEvaluation(
                "no labeled triplets survive filtering")
        _check_slice_labels(triplet_path,
                            [it.slice_label for it in items], labels)
        clus = evaluation.clustering_report(
            items, mats, labels, seed=derive_seed(cfg.seed, "clustering")
        )
        report.update(clus)
    if testset_path:
        ts = _load_testset(testset_path, vocab, labels)
        queries = None
        if cfg.method == "tw2v":
            # Map each query into its target slice by its local linear
            # transform; records without a map are skipped.
            by_label = {lab: m for lab, m in zip(labels, mats)}
            queries = baselines.local_linear_maps(
                [(w, by_label[a], by_label[b]) for w, a, b, _ in ts.records]
            )
        align = evaluation.alignment_report(ts, mats, labels, queries=queries)
        report["mrr"] = align["mrr"]
        report["mp"] = align["mp"]
    return report


def _load_testset(path, vocab, labels):
    """The alignment testset at `path`; every record's query and target
    label must be a slice of the run."""
    ts, _ = evaluation.load_testset(path, vocab)
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


def cmd_evaluate(args):
    cfg = build_run_config(args)
    if not (args.testset or args.triplets):
        raise UsageError("nothing to evaluate: give --testset or --triplets")
    vocab = read_vocab(_vocab_path(cfg.out))
    mats, labels = _embeddings_for(cfg, vocab)
    report = _evaluate_report(cfg, mats, labels, vocab, args.testset,
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


def cmd_robustness(args):
    cfg = build_run_config(args)
    rates = _parse_rates(args.rates)
    vocab = read_vocab(_vocab_path(cfg.out))
    labels = read_labels(cfg.out)
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
    stats = _load_stats(cfg, vocab, labels)
    ts = _load_testset(args.testset, vocab, labels)
    rows = []
    for rate in rates:
        sub = []
        for lab, st in zip(labels, stats):
            if lab in selected and rate < 1.0:
                st = subsample_counts(
                    st, rate, derive_seed(cfg.seed, f"subsample:{lab}:{rate}")
                )
            sub.append(st)
        Y = PpmiSequence(
            matrices=[
                build_ppmi(st, slice_label=lab)
                for st, lab in zip(sub, labels)
            ],
            vocab_size=len(vocab),
        )
        for method in ("dw2v", "aw2v"):
            rep = evaluation.alignment_report(ts, _fit(cfg, method, Y), labels)
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


def cmd_export_norms(args):
    cfg = build_run_config(args)
    vocab = read_vocab(_vocab_path(cfg.out))
    mats, labels = _embeddings_for(cfg, vocab)
    words = args.words.split(",")
    missing = [w for w in words if w not in vocab]
    if missing:
        raise LookupFailure(f"words not in vocabulary: {', '.join(missing)}")
    lines = ["word,label,norm"]
    for w in words:
        for lab, norm in evaluation.norm_series(vocab.index[w], mats, labels):
            lines.append(f"{w},{lab},{norm:.9g}")
    payload = "\n".join(lines) + "\n"
    if args.csv_out:
        atomic_write_bytes(args.csv_out, payload.encode())
    else:
        print(payload, end="")
    return 0


# ---------------------------------------------------------------------------


def _add_config_flags(p):
    p.add_argument("--config", help="config file of key = value lines")
    for f in fields(RunConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                       default=None)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="tvembed",
        description="Temporally aligned word embeddings from time-sliced corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="corpus -> stats + PPMI artifacts")
    _add_config_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="PPMI artifacts -> embeddings")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("query", help="nearest neighbors of a word-year pair")
    _add_config_flags(p)
    p.add_argument("word")
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--target-label", type=int, default=None)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--all-years", action="store_true")
    p.add_argument("--keep-self", action="store_true",
                   help="do not exclude the query word in its own slice")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", help="clustering and alignment metrics")
    _add_config_flags(p)
    p.add_argument("--testset", help="alignment testset CSV")
    p.add_argument("--triplets", help="labeled triplet CSV")
    p.add_argument("--json-out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("robustness", help="subsampled-rates comparison table")
    _add_config_flags(p)
    p.add_argument("--testset", required=True)
    p.add_argument("--rates", default="1,0.1,0.01,0.001")
    p.add_argument("--slices", default="alternate",
                   help="'alternate', 'all', or comma-separated labels")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("export-norms", help="per-word norm series CSV")
    _add_config_flags(p)
    p.add_argument("--words", required=True, help="comma-separated word list")
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_export_norms)

    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())

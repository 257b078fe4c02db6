"""Spans around every call into the program's public functions, and the
per-layer metrics derived from them.

A span is (name, start, end, parent). `Tracer.install` replaces each public
function of the layer modules by a timing wrapper at every module attribute
that holds it, so a caller that imported the function by name (as `cli`
imports `train` and `count_cooccurrences`) resolves the wrapper too. Spans
stay in memory until the pass ends.

Self time is a span's duration minus the part of its interval covered by
its child spans; summed over the spans below one command, self times give
that command's span exactly, which `check_accounting` verifies.

README.md maps each per-layer metric to the end-to-end metric and the
workload it should move.
"""

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "corpus", "ppmi", "solver", "baselines", "evaluation")
COMMANDS = ("build", "train", "evaluate", "query", "robustness")
SINK = "cli.progress_sink"


class Tracer:
    """Records spans and counters at the boundaries of the layer modules."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = Counter()
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the layer modules wherever the
        package holds a reference to it."""
        import tvembed.cli  # noqa: F401  (imports every layer)

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"tvembed.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tvembed"
                                   or mod_name.startswith("tvembed.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))


# ---------------------------------------------------------------------------
# Counters taken at the boundary where the work happens.


def _wrap_sink(tracer, args, kwargs):
    if kwargs.get("progress_sink") is not None:
        kwargs = dict(kwargs, progress_sink=tracer.wrap(SINK,
                                                        kwargs["progress_sink"]))
    return args, kwargs


def _train_flops(counters, args, kwargs, result):
    # Per epoch and slice, each of the two factor updates computes the Gram
    # F^T F (2 V d^2), the sparse product Y F (2 nnz d) and the solve
    # (2 V d^2): computed flops, not measured ones.
    Y, config = args[0], args[1]
    d, V = config.dim, Y.vocab_size
    per_epoch = sum(2 * (2 * m.values.nnz * d + 4 * V * d * d)
                    for m in Y.matrices)
    counters["solver.flops"] += config.epochs * per_epoch


def _count_tokens(counters, args, kwargs, result):
    counters["corpus.tokens"] += result.total_tokens


def _build_ppmi(counters, args, kwargs, result):
    counters["ppmi.cooc_nnz"] += args[0].cooc.nnz
    counters["ppmi.built_nnz"] += result.values.nnz
    counters["ppmi.nnz"] += result.values.nnz


def _read_ppmi(counters, args, kwargs, result):
    counters["ppmi.nnz"] += result.values.nnz
    counters["ppmi.bytes"] += os.path.getsize(args[0])


def _write_ppmi(counters, args, kwargs, result):
    counters["ppmi.bytes"] += os.path.getsize(args[1])


def _alignment_records(counters, args, kwargs, result):
    counters["evaluation.records"] += len(args[0].records)


_HOOKS = {
    "solver.train": (_wrap_sink, _train_flops),
    "corpus.count_cooccurrences": (None, _count_tokens),
    "ppmi.build_ppmi": (None, _build_ppmi),
    "ppmi.read_ppmi": (None, _read_ppmi),
    "ppmi.write_ppmi": (None, _write_ppmi),
    "evaluation.run_alignment_test": (None, _alignment_records),
}


# ---------------------------------------------------------------------------
# Span arithmetic.


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def roots_of(spans):
    """Index of the top-level span above each span."""
    root = []
    for i, (_, _, _, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    return root


def check_accounting(spans, rel_tol=1e-9):
    """Per top-level span: (name, duration, sum of self times below it).

    Raises ValueError when the self times do not add up to the duration."""
    selfs = self_times(spans)
    total = defaultdict(float)
    for i, r in enumerate(roots_of(spans)):
        total[r] += selfs[i]
    rows = []
    for r, acc in sorted(total.items()):
        name, start, end, _ = spans[r]
        if abs(acc - (end - start)) > rel_tol * max(end - start, 1e-9):
            raise ValueError(f"self times of {name} add up to {acc}, "
                             f"span is {end - start}")
        rows.append((name, end - start, acc))
    return rows


def layer_metrics(spans, counters, op_kinds):
    """Per-layer metrics of one traced pass.

    `op_kinds` maps the index of each command's top-level span to the
    command name (build, train, ...)."""
    selfs = self_times(spans)
    roots = roots_of(spans)
    counters = Counter(counters)
    incl = Counter()
    calls = Counter()
    layer_self = Counter()
    cli_self = Counter()
    sink_in_train = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        incl[name] += end - start
        calls[name] += 1
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        if layer == "cli":
            cli_self[op_kinds.get(roots[i], "other")] += selfs[i]
        if name == SINK and parent >= 0 and spans[parent][0] == "solver.train":
            sink_in_train += end - start

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    train_self = incl["solver.train"] - sink_in_train
    m = {
        "corpus.load_s": incl["corpus.load_corpus"],
        "corpus.vocab_s": incl["corpus.build_vocabulary"],
        "corpus.count_s": incl["corpus.count_cooccurrences"],
        "corpus.tokens_per_s": ratio(counters["corpus.tokens"],
                                     incl["corpus.count_cooccurrences"]),
        "corpus.stats_io_s": incl["corpus.write_stats"]
        + incl["corpus.read_stats"],
        "corpus.subsample_s": incl["corpus.subsample_counts"],
        "ppmi.build_s": incl["ppmi.build_ppmi"],
        "ppmi.io_s": incl["ppmi.write_ppmi"] + incl["ppmi.read_ppmi"],
        "ppmi.nnz": counters["ppmi.nnz"],
        "ppmi.kept_frac": ratio(counters["ppmi.built_nnz"],
                                counters["ppmi.cooc_nnz"]),
        "ppmi.bytes": counters["ppmi.bytes"],
        "solver.train_self_s": train_self,
        "solver.gflops": ratio(counters["solver.flops"] / 1e9, train_self),
        "solver.sink_s": incl[SINK],
        "solver.objective_s": incl["solver.objective"],
        "solver.updates": calls[SINK],
        "solver.emb_text_write_s": incl["solver.write_embeddings_text"],
        "solver.emb_bin_io_s": incl["solver.write_embeddings_binary"]
        + incl["solver.read_embeddings_binary"],
        "baselines.per_slice_s": incl["baselines.train_per_slice"],
        "baselines.align_s": incl["baselines.align_sequence"],
        "baselines.local_map_s": incl["baselines.local_linear_map"],
        "baselines.local_map_calls": calls["baselines.local_linear_map"],
        "evaluation.nn_s": incl["evaluation.nearest_neighbors"],
        "evaluation.nn_calls": calls["evaluation.nearest_neighbors"],
        "evaluation.records_per_s": ratio(
            counters["evaluation.records"],
            incl["evaluation.run_alignment_test"]),
        "evaluation.cluster_s": incl["evaluation.clustering_report"],
        "cli.vocab_read_s": incl["cli.read_vocab"],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for cmd in COMMANDS:
        m[f"cli.self_s.{cmd}"] = cli_self[cmd]
    return m

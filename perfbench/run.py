"""End-to-end benchmark of the tvembed CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload pipeline-M --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each run:

1. sets the workload up from --seed (SETUP_REPEATS times; setup_s is the
   median), writing only generated input files under .perfbench_work/;
2. runs the workload's commands through `tvembed.cli.main` in one child
   process, so that set-up never sets the peak-RSS high-water mark. With
   --trace 1 a second child repeats the pass with spans around every
   public function of the program, and the difference of the two passes'
   totals is the tracing overhead;
3. checks every operation's output against a brute-force oracle
   (oracles.py) and prints one line of provenance and, last, one JSON
   object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones. See README.md for the metric definitions and
the layer -> end-to-end metric -> workload map.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import oracles
import spans as spanlib
import workloads

SETUP_REPEATS = 3
DEADLINE_S = 165  # a run must end within 180 s; leave time for the oracles
SAMPLE_ROWS = 5
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def provenance(seed):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                         "OMP_NUM_THREADS") if k in os.environ}
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "library default (one per core)",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_child(prep, seconds, trace, work, deadline):
    spec = {"src": str(ROOT / "src"), "ops": prep.ops, "seconds": seconds,
            "trace": bool(trace)}
    spec_path = work / f"spec_{int(trace)}.json"
    result_path = work / f"measured_{int(trace)}.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(spec_path),
         str(result_path)],
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measured phase failed:\n{proc.stderr}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------------
# Oracles per operation.


class Checker:
    """Runs the oracles over one workload's outputs and counts failures."""

    def __init__(self, prep, seed):
        self.prep = prep
        self.rng = np.random.default_rng([seed, 2])
        self._vocab = self._emb = self._bounds = None
        self.problems = []

    def vocab(self):
        """The vocabulary the program wrote, and its word -> row map."""
        if self._vocab is None:
            words = oracles.read_vocab_words(self.prep.out / "vocab.txt")
            self._vocab = (words, {w: i for i, w in enumerate(words)})
        return self._vocab

    def embeddings(self):
        if self._emb is None:
            from tvembed.solver import read_embeddings_binary

            tag = "_perslice" if self.prep.method == "tw2v" else ""
            base = self.prep.out / f"embeddings_{self.prep.method}{tag}"
            mats, labels = read_embeddings_binary(base.with_suffix(".tvem"))
            self._emb = (mats, labels, base.with_suffix(".txt"))
            self.norms = {lab: np.linalg.norm(m, axis=1)
                          for lab, m in zip(labels, mats)}
        return self._emb

    def artifacts(self):
        """Counts and PPMI on disk against the generated documents."""
        from tvembed.corpus import read_stats
        from tvembed.ppmi import read_ppmi

        data, out, problems = self.prep.data, self.prep.out, []
        words, index = self.vocab()
        if isinstance(data, workloads.PlantedCorpus):
            if sorted(words) != sorted(data.words):
                return ["vocabulary differs from the generated words"]
            gid_to_vid = np.array([index[w] for w in data.words])
            for label, docs in zip(data.labels, data.docs):
                sample = [len(data.words) - 1] + self.rng.choice(
                    len(data.words) - 1, SAMPLE_ROWS - 1, replace=False).tolist()
                stats = read_stats(out / f"stats_{label}.tvco")
                problems += oracles.check_counts(stats, docs, gid_to_vid,
                                                 sample, workloads.WINDOW)
                ppmi = read_ppmi(out / f"ppmi_{label}.tvpm").values
                problems += oracles.check_ppmi(
                    stats.cooc, stats.unigram, stats.total_tokens, ppmi,
                    gid_to_vid[sample])
        else:
            for label, cooc, unigram in zip(data.labels, data.cooc,
                                            data.unigram):
                rows = [0] + self.rng.choice(len(words), SAMPLE_ROWS - 1,
                                             replace=False).tolist()
                ppmi = read_ppmi(out / f"ppmi_{label}.tvpm").values
                problems += oracles.check_ppmi(cooc, unigram,
                                               int(unigram.sum()), ppmi, rows)
        return problems

    def records(self):
        _, index = self.vocab()
        return [(index[q], a, b, index[ans])
                for q, a, b, ans in self.prep.testset]

    def check(self, kind, argv, stdout):
        if kind == "build":
            return self.artifacts()
        if kind == "train":
            mats, labels, text = self.embeddings()
            T = len(self.prep.data.labels)
            problems = oracles.check_embeddings(mats, labels, T,
                                                len(self.vocab()[0]), 50, text)
            if self.prep.method == "dw2v":
                problems += oracles.check_objective(stdout, self.prep.epochs)
            return problems
        if kind == "evaluate":
            report = oracles.parse_report(stdout)
            if self._bounds is None:  # every pass ranks the same records
                mats, labels, _ = self.embeddings()
                self._bounds = oracles.alignment_bounds(
                    self.records(), mats, labels,
                    local=self.prep.method == "tw2v")
            problems = oracles.check_alignment(report, self._bounds)
            if "--triplets" in argv:
                problems += oracles.check_clustering(report)
            return problems
        if kind == "query":
            mats, labels, _ = self.embeddings()
            words, index = self.vocab()
            return oracles.check_query(stdout, argv, words, index, mats,
                                       labels, self.norms)
        if kind == "robustness":
            rates = [float(r) for r in argv[argv.index("--rates") + 1].split(",")]
            return oracles.check_robustness(oracles.parse_report(stdout), rates)
        raise ValueError(kind)

    def oracle_failed(self, label, check):
        """Run one oracle; True (and the problems recorded) if it fails."""
        try:
            found = check()
        except (ValueError, KeyError, IndexError, OSError) as e:
            found = [f"unreadable output: {e!r}"]
        self.problems += [f"{label}: {p}" for p in found]
        return bool(found)

    def op_failed(self, op):
        """True when the operation exited non-zero or failed its oracle."""
        if op["code"] != 0:
            self.problems.append(f"{op['kind']} exited {op['code']}: "
                                 f"{op['stderr'].strip()[-500:]}")
            return True
        return self.oracle_failed(op["kind"], lambda: self.check(
            op["kind"], op["argv"], op["stdout"]))


def percentile(samples, q):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def pass_seconds(ops, kind=None):
    return sum(op["seconds"] for op in ops if kind in (None, op["kind"]))


def end_to_end(passes, setup_s, peak_rss_mb, attempted, failed):
    return {
        "setup_s": setup_s,
        "total_s": statistics.median(pass_seconds(p) for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ok_ops_frac": 1.0 - failed / attempted,
    }


def untraced_extras(passes, attempted, failed):
    """End-to-end figures that not every workload has, from the untraced
    pass of a --trace 1 run; 0 where the workload does not produce them."""
    ops = passes[-1]
    queries = [op["seconds"] * 1e3 for p in passes for op in p
               if op["kind"] == "query"]
    train = [op for op in ops if op["kind"] == "train"]
    objective = oracles.objectives(train[0]["stdout"]) if train else []
    mrr = 0.0
    for op in ops:
        if op["kind"] == "evaluate" and op["code"] == 0:
            with contextlib.suppress(ValueError, KeyError):
                mrr = oracles.parse_report(op["stdout"])["mrr"]
    return {
        "build_s": pass_seconds(ops, "build"),
        "train_s": pass_seconds(ops, "train"),
        "evaluate_s": pass_seconds(ops, "evaluate"),
        "robustness_s": pass_seconds(ops, "robustness"),
        "query_p50_ms": percentile(queries, 50) if queries else 0.0,
        "query_p95_ms": percentile(queries, 95) if queries else 0.0,
        "query_samples": len(queries),
        "objective_final": objective[-1] if objective else 0.0,
        "alignment_mrr": mrr,
        "failed_ops_frac": failed / attempted,
    }


def declared_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tvembed" / "cli.py").is_file():
        print(f"error: no tvembed sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prep = workloads.setup(args.workload, args.seed, work / "inputs")
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)

    children = [run_child(prep, args.seconds, False, work, deadline)]
    if args.trace:
        children.append(run_child(prep, args.seconds, True, work, deadline))

    checker = Checker(prep, args.seed)
    attempted = failed = 0
    if not any(kind == "build" for kind, _ in prep.ops):
        # Set-up wrote the artifacts with the program's own writers.
        attempted += 1
        failed += checker.oracle_failed("setup", checker.artifacts)
    for child in children:
        for ops in child["passes"]:
            for op in ops:
                attempted += 1
                failed += checker.op_failed(op)

    untraced = children[0]
    if args.trace:
        traced = children[1]
        spans = [tuple(s) for s in traced["spans"]]
        kinds = {op["root_span"]: op["kind"] for op in traced["passes"][0]}
        spanlib.check_accounting(spans)
        metrics = spanlib.layer_metrics(spans, traced["counters"], kinds)
        metrics.update(untraced_extras(untraced["passes"], attempted, failed))
        metrics["trace.overhead_s"] = (pass_seconds(traced["passes"][0])
                                       - pass_seconds(untraced["passes"][0]))
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    else:
        metrics = end_to_end(untraced["passes"], setup_s,
                             untraced["peak_rss_mb"], attempted, failed)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    prov = provenance(args.seed)
    summary = {"workload": args.workload, "provenance": prov,
               "setup_times_s": setup_times, "problems": checker.problems,
               "metrics": metrics}
    (work / f"result_{args.trace}.json").write_text(
        json.dumps(summary, indent=2))
    shutil.rmtree(work / "inputs")
    for p in checker.problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

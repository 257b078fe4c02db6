"""Measured phase: run one workload's operations in this process through
`tvembed.cli.main`, the entry point users run.

    python3 perfbench/measure.py SPEC_JSON RESULT_JSON

SPEC_JSON holds {"src", "ops": [[kind, argv], ...], "seconds", "trace"}.
The set-up ran in the parent process, so this process's peak RSS is the
measured phase's own. Passes repeat while the next one is expected to end
within `seconds`; there is always at least one. With "trace" true, spans
are recorded around every public function of the program and written to
RESULT_JSON with the per-operation results.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_op(main, argv):
    """Run one command; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def measure(spec):
    sys.path.insert(0, spec["src"])
    import tvembed.cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = []
        for kind, argv in spec["ops"]:
            root = len(tracer.names) if tracer else -1
            code, out, err, elapsed = run_op(tvembed.cli.main, argv)
            results.append({"kind": kind, "argv": argv, "code": code,
                            "stdout": out,
                            "stderr": err, "seconds": elapsed,
                            "root_span": root})
        passes.append(results)
        last = time.perf_counter() - pass_start
        if tracer or time.perf_counter() - begin + last > spec["seconds"]:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"passes": passes, "peak_rss_mb": peak_kb / 1024.0}
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans()
        result["counters"] = dict(tracer.counters)
    return result


def main(argv):
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = measure(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

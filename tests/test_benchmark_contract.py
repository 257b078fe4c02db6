"""The names of the program that the benchmark in `perfbench/` reads.

`perfbench/spans.py` times each public function of the layer modules and
derives its per-layer metrics from the spans of named functions
(`incl["solver.train"]`, `calls[...]`, the `_HOOKS` keys). A name that no
longer exists does not fail a run: its metric silently reads 0. The
benchmark's set-up and oracles import functions from `tvembed` as well.
This test reads those names from the benchmark's source, without running
it, and checks that the program still has each one.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names the benchmark still reads that are gone from the program; their
# metrics read 0 until the benchmark itself is updated (ROADMAP item 1).
GONE = {
    "baselines.local_linear_map",  # now baselines.local_linear_maps
    "solver.objective",  # train streams the objective terms instead
}


def _trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path))


def span_names():
    """The "layer.fn" span names spans.py reads: string subscripts of
    `incl` and `calls`, and the keys of `_HOOKS`."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("incl", "calls")
                and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "_HOOKS"
                      for t in node.targets)):
            names.update(key.value for key in node.value.keys)
    return names


def imported_names():
    """(module, name) for each `from tvembed.X import Y` in perfbench/*.py
    and each `tvembed.X.Y` it reads after `import tvembed.X`."""
    found = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("tvembed.")):
                found.update((node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name)
                  and node.value.value.id == "tvembed"):
                found.add((f"tvembed.{node.value.attr}", node.attr))
    return found


def test_names_are_read():
    # Guards the parsing above: spans.py and the set-up do name these.
    assert {"solver.train", "corpus.load_corpus",
            "evaluation.run_alignment_test"} <= span_names()
    assert ("tvembed.cli", "main") in imported_names()
    assert ("tvembed.corpus", "write_stats") in imported_names()


def test_span_names_are_traced_functions():
    # The tracer wraps each public function of a layer module that the
    # module itself defines.
    missing = []
    for name in sorted(span_names() - GONE):
        layer, fn = name.split(".", 1)
        mod = importlib.import_module(f"tvembed.{layer}")
        obj = getattr(mod, fn, None)
        if not (not fn.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            missing.append(name)
    assert missing == []


def test_imported_names_are_public():
    missing = [f"{module}.{name}" for module, name in sorted(imported_names())
               if name.startswith("_")
               or not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_gone_names_are_gone():
    # A name listed as gone that exists again belongs back in the checks.
    assert GONE <= span_names()
    back = [name for name in sorted(GONE) if hasattr(
        importlib.import_module(f"tvembed.{name.split('.')[0]}"),
        name.split(".", 1)[1])]
    assert back == []

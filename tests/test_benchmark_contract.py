"""The names of the program that the benchmark in `perfbench/` reads.

`perfbench/spans.py` times each public function of the layer modules and
derives its per-layer metrics from the spans of named functions
(`incl["solver.train"]`, `calls[...]`, the `_HOOKS` keys). A name that no
longer exists does not fail a run: its metric silently reads 0. The
benchmark's set-up and oracles import functions from `tvembed` as well and
call them with keyword arguments, and its workloads pass flags to the
commands, where a renamed flag fails the run's operations. This test reads
those names, keywords and flags from the benchmark's source, without
running it, and checks that the program still has each one.
"""

import ast
import importlib
import inspect
from pathlib import Path

from tvembed.cli import make_parser

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


def _imports(tree):
    """{local name: (module, name)} for each `from tvembed.X import Y` of
    the file, wherever it stands."""
    return {a.asname or a.name: (node.module, a.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith("tvembed.")
            for a in node.names}


def _attribute(node):
    """(module, name) if `node` reads `tvembed.X.Y`, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "tvembed"):
        return f"tvembed.{node.value.attr}", node.attr
    return None


def imported_names():
    """(module, name) for each `from tvembed.X import Y` in perfbench/*.py
    and each `tvembed.X.Y` it reads after `import tvembed.X`."""
    found = set()
    for tree in _trees():
        found.update(_imports(tree).values())
        found.update(filter(None, map(_attribute, ast.walk(tree))))
    return found


def keyword_arguments():
    """(module, name, keyword) for each keyword argument that a call in
    perfbench/*.py passes to a name imported from `tvembed`."""
    found = set()
    for tree in _trees():
        imports = _imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                callee = imports.get(node.func.id)
            else:
                callee = _attribute(node.func)
            if callee:
                found.update((*callee, k.arg) for k in node.keywords if k.arg)
    return found


def _argv_command(node, commands):
    """The command an argv list literal starts with, or None."""
    if (isinstance(node, ast.List) and node.elts
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value in commands):
        return node.elts[0].value
    return None


def _flags(nodes):
    return [n.value for n in nodes if isinstance(n, ast.Constant)
            and str(n.value).startswith("--")]


def workload_flags(commands):
    """(command, flag) for each "--" string in a list literal of
    perfbench/workloads.py that starts with a command name, and for each
    such string appended to a variable bound to one (`argv.append(...)`)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    found, bound = set(), {}
    for node in ast.walk(tree):
        command = _argv_command(node, commands)
        if command:
            found.update((command, flag) for flag in _flags(node.elts))
        elif isinstance(node, ast.Assign):
            command = _argv_command(node.value, commands)
            bound.update((t.id, command) for t in node.targets
                         if command and isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in bound):
            command = bound[node.func.value.id]
            found.update((command, flag) for flag in _flags(node.args))
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


def test_keyword_arguments_are_parameters():
    # A dataclass's parameters are its fields.
    keywords = keyword_arguments()
    # Guards the parsing above: the set-up does pass these.
    assert {("tvembed.corpus", "SliceStats", "total_tokens"),
            ("tvembed.ppmi", "build_ppmi", "slice_label")} <= keywords
    unknown = []
    for module, name, keyword in sorted(keywords):
        params = inspect.signature(
            getattr(importlib.import_module(module), name)).parameters
        if keyword not in params and not any(
                p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown.append(f"{module}.{name}({keyword}=...)")
    assert unknown == []


def test_gone_names_are_gone():
    # A name listed as gone that exists again belongs back in the checks.
    assert GONE <= span_names()
    back = [name for name in sorted(GONE) if hasattr(
        importlib.import_module(f"tvembed.{name.split('.')[0]}"),
        name.split(".", 1)[1])]
    assert back == []


def test_workload_flags_are_accepted():
    commands = make_parser().commands
    flags = workload_flags(commands)
    # Guards the parsing above: the workloads do pass these.
    assert {("build", "--window"), ("train", "--method"),
            ("evaluate", "--triplets"), ("robustness", "--rates"),
            ("query", "--all-years")} <= flags
    rejected = [f"{command} {flag}" for command, flag in sorted(flags)
                if flag not in commands[command]._option_string_actions]
    assert rejected == []

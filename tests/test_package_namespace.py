"""The `tvembed` package namespace is README's library API.

The package itself holds only the names that README's library quick start
imports; everything else is imported from its module. The quick start runs
as written, and no `from tvembed import X` in the benchmark, the demos, the
tests or README names anything but a module or one of those names.
"""

import ast
import pkgutil
import types
from pathlib import Path

import numpy as np

import tvembed
from conftest import write_slice_dirs
from tvembed.synthetic import planted_shift_corpus

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_blocks(text):
    """The ```python fenced blocks of a Markdown text, in order."""
    return [part.split("```", 1)[0]
            for part in text.split("```python\n")[1:]]


def quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return python_blocks(section)[0]


def package_imports(source):
    """The names of each `from tvembed import ...` of the Python source."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "tvembed"
            for a in node.names}


def test_public_names_are_the_quick_start_imports():
    public = {name for name, value in vars(tvembed).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == package_imports(quick_start())
    assert tvembed.__version__


def test_package_imports_name_a_module_or_a_public_name():
    allowed = package_imports(quick_start()) | {
        m.name for m in pkgutil.iter_modules(tvembed.__path__)}
    sources = {str(README): "\n".join(python_blocks(README.read_text()))}
    for directory in ("perfbench", "demos", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            sources[str(path)] = path.read_text()
    unknown = sorted(f"{path}: {name}" for path, source in sources.items()
                     for name in package_imports(source) - allowed)
    assert unknown == []
    # Guards the parsing above: these files do import from the package.
    assert {"baselines", "evaluation"} <= package_imports(
        (ROOT / "tests" / "test_cli.py").read_text())


def test_quick_start_runs(tmp_path, monkeypatch):
    write_slice_dirs(tmp_path / "corpus", planted_shift_corpus(seed=1))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    emb, vocab = scope["emb"], scope["vocab"]
    assert len(vocab) > 0
    assert [m.shape for m in emb] == [(len(vocab), 50)] * 8
    assert all(np.isfinite(m).all() for m in emb)

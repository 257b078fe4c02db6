"""
Driving the whole pipeline from the command line
================================================

Writes a small time-sliced corpus to disk as one directory per slice, then
runs the `tvembed` console commands end to end: build the count and PPMI
artifacts, train the joint model, query nearest neighbors across time, and
export norm trajectories. Every command is deterministic: rerunning with
the same config reproduces the artifacts byte for byte.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from tvembed.synthetic import planted_shift_corpus


def run(*args):
    cmd = [sys.executable, "-m", "tvembed.cli", *args]
    print("$", " ".join(["tvembed", *args]), flush=True)
    subprocess.run(cmd, check=True)
    print(flush=True)


workdir = Path(tempfile.mkdtemp(prefix="tvembed-demo-"))
corpus_dir = workdir / "corpus"
out = workdir / "run"

# One subdirectory per time slice, one text file per document.
corpus = planted_shift_corpus(n_slices=4, community_size=40,
                              docs_per_slice=200, seed=2)
for label, docs in zip(corpus.slice_labels, corpus.slices):
    d = corpus_dir / str(label)
    d.mkdir(parents=True)
    for i, doc in enumerate(docs.documents()):
        (d / f"doc{i}.txt").write_text(" ".join(doc))

run("build", "--corpus", str(corpus_dir), "--out", str(out),
    "--window", "5", "--min-count", "1")

run("train", "--out", str(out), "--dim", "16", "--epochs", "10",
    "--ridge", "1", "--smoothing", "20", "--coupling", "20")

# The probe word keeps alpha company early and beta company late.
run("query", "probeword", "--out", str(out), "--label", "0", "-k", "5")
run("query", "probeword", "--out", str(out), "--label", "3", "-k", "5")

run("export-norms", "--out", str(out), "--words", "probeword,alpha000")

print(f"artifacts left in {out}")

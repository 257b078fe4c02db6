#!/usr/bin/env bash
# Runs the installed `tvembed` console script end to end; exits 0 when every
# check holds. Usage: tests/console_script.sh WORKDIR (an empty directory).
#
# `tvembed` reads sys.argv. Each subcommand takes a flag only for the
# settings it reads, so `query --help` must not list --epochs. A run
# directory that does not exist must fail with exit 2 and exactly one stderr
# line, "error: ...".
# Then a tiny end-to-end pass: build, train and query a 2-slice JSONL corpus
# (one output line); the same query given a flag it does not take
# (--epochs) must exit 2 and print query's usage, not the top-level one.
# A .tvco and a .tvpm of that build, read and written again through
# `tvembed.corpus`/`tvembed.ppmi` by $PYTHON (default python3), must equal
# the files `build` wrote byte for byte.
# `evaluate` scores a one-record testset (an `mrr` line), and the same
# testset behind a UTF-8 byte-order mark gives the same report; `robustness`
# runs at rates 1 and 0.5 and reports a row at 0.5, so the counts were
# subsampled before their PPMI was built. Then rebuild the same run directory from a copy with a
# word renamed, after which query must fail the same way, as the rebuild
# removed the embeddings of the earlier corpus. Then the same corpus is
# built into two fresh run directories, which must be byte-identical. Last,
# tw2v on a 2-slice corpus of 40 words, each in both slices, so every query
# has the k=30 neighbours its local map needs: `evaluate --method tw2v` maps
# and ranks a 2-record cross-slice testset (an `mrr` line).
set -euo pipefail

work="$1"
tvembed --help
tvembed query --help > "$work/help.txt"
cat "$work/help.txt"
if grep -q -- '--epochs' "$work/help.txt"; then exit 1; fi
code=0
tvembed train --out "$work/none" 2> "$work/err.txt" || code=$?
cat "$work/err.txt"
test "$code" -eq 2
test "$(wc -l < "$work/err.txt")" -eq 1
grep -q '^error: ' "$work/err.txt"
e2e="$work/e2e"
mkdir -p "$e2e"
for label in 0 1; do
  echo "{\"label\": $label, \"text\": \"cat dog fish bird cat fish\"}"
done > "$e2e/corpus.jsonl"
tvembed build --corpus "$e2e/corpus.jsonl" --out "$e2e/run"
"${PYTHON:-python3}" - "$e2e/run" "$e2e" <<'PY'
import sys
from pathlib import Path
from tvembed.corpus import read_stats, write_stats
from tvembed.ppmi import read_ppmi, write_ppmi
run, to = Path(sys.argv[1]), Path(sys.argv[2])
write_stats(read_stats(run / "stats_0.tvco"), to / "stats_0.tvco")
write_ppmi(read_ppmi(run / "ppmi_0.tvpm"), to / "ppmi_0.tvpm")
PY
cmp "$e2e/run/stats_0.tvco" "$e2e/stats_0.tvco"
cmp "$e2e/run/ppmi_0.tvpm" "$e2e/ppmi_0.tvpm"
tvembed train --out "$e2e/run" --dim 4 --epochs 1
tvembed query cat --out "$e2e/run" --label 0 > "$e2e/out.txt"
cat "$e2e/out.txt"
test "$(wc -l < "$e2e/out.txt")" -eq 1
code=0
tvembed query cat --out "$e2e/run" --label 0 --epochs 3 2> "$e2e/err.txt" || code=$?
cat "$e2e/err.txt"
test "$code" -eq 2
grep -q '^usage: tvembed query' "$e2e/err.txt"
printf 'query_word,query_label,target_label,answer_word\ncat,0,1,cat\n' > "$e2e/t.csv"
tvembed evaluate --out "$e2e/run" --testset "$e2e/t.csv" > "$e2e/eval.txt"
cat "$e2e/eval.txt"
grep -q '^mrr ' "$e2e/eval.txt"
printf '\xef\xbb\xbf' | cat - "$e2e/t.csv" > "$e2e/bom.csv"
tvembed evaluate --out "$e2e/run" --testset "$e2e/bom.csv" > "$e2e/eval_bom.txt"
diff "$e2e/eval.txt" "$e2e/eval_bom.txt"
tvembed robustness --out "$e2e/run" --testset "$e2e/t.csv" --rates 1,0.5 --dim 4 --epochs 1 > "$e2e/robust.txt"
cat "$e2e/robust.txt"
grep -q '"rate": 0.5' "$e2e/robust.txt"
sed 's/cat/ant/g' "$e2e/corpus.jsonl" > "$e2e/renamed.jsonl"
tvembed build --corpus "$e2e/renamed.jsonl" --out "$e2e/run"
code=0
tvembed query ant --out "$e2e/run" --label 0 2> "$e2e/err.txt" || code=$?
cat "$e2e/err.txt"
test "$code" -eq 2
test "$(wc -l < "$e2e/err.txt")" -eq 1
grep -q '^error: ' "$e2e/err.txt"
tvembed build --corpus "$e2e/corpus.jsonl" --out "$e2e/again1"
tvembed build --corpus "$e2e/corpus.jsonl" --out "$e2e/again2"
diff -r "$e2e/again1" "$e2e/again2"
tw="$work/tw2v"
mkdir -p "$tw"
words="$(seq -s ' ' -f 'w%02g' 0 39)"
for label in 0 1; do
  for doc in 1 2 3 4; do
    echo "{\"label\": $label, \"text\": \"$words\"}"
  done
done > "$tw/corpus.jsonl"
tvembed build --corpus "$tw/corpus.jsonl" --out "$tw/run"
tvembed train --out "$tw/run" --method tw2v --dim 4 --epochs 1
printf 'query_word,query_label,target_label,answer_word\nw00,0,1,w00\nw01,1,0,w01\n' > "$tw/t.csv"
tvembed evaluate --out "$tw/run" --method tw2v --testset "$tw/t.csv" > "$tw/eval.txt"
cat "$tw/eval.txt"
grep -q '^mrr ' "$tw/eval.txt"

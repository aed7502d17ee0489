#!/usr/bin/env bash
# End-to-end check of the serec command line, from generate through
# evaluate, friend-groups, exposure-curve and robustness.
#
# Usage: SEREC="serec" bash -eo pipefail tests/cli_e2e.sh WORK_DIR
#
# $SEREC is the command that runs serec (default: serec, the installed entry
# point; "python -m serec.cli" with src on PYTHONPATH runs it from a
# checkout).  WORK_DIR, absent or empty, receives every file the check
# writes, and its tmp directory is the private TMPDIR of every command.
#
# The checks: split writes split.npz and train writes model.npz, the files
# later commands read; a copy of the split that holds split.npz alone
# evaluates to the same report.json and draws the same exposure curve, since
# serec reads nothing else of a split directory (the edge lists, id maps and
# split-meta.json are readable copies that it writes and never reads back); a
# copy of the serec-boost model whose meta.json lacks k, n_users and n_items
# evaluates to the same report.json, since serec reads the shapes from
# model.npz (meta.json keeps them as readable copies); the input repeated 300
# times (some 15 of the reader's blocks of lines) and a CRLF copy of it split
# to the same bytes, since duplicates collapse and ids keep their first-seen
# order; evaluate on a split without split.npz exits 2 naming it;
# exposure-curve on a serec-regular and an expomf model rebuilds each
# provider from meta.json's config and reads its arrays from model.npz; wmf,
# the fixed-weight kind, trains, curves and evaluates the same way;
# robustness retrains at two keep probabilities and reports the decay_ratio
# row; serec-boost, and wmf, whose solves add each row's clicks to one shared
# Gram in chunks cut by click count, trained on 1 and on 4 threads over five
# item blocks write the same trace.tsv and model.npz byte for byte (this small
# a matrix is one chunk per solve; the tests run several chunks on a pool); no
# model directory holds a per-provider JSON file, and the spilled run must
# leave its private TMPDIR empty; only serec-boost's prior multiplies sparse
# matrices, so the wmf train's import log (PYTHONPROFILEIMPORTTIME) must name
# no scipy module, and the first serec-boost train's must name one, which
# shows that the log records the imports the check looks for.
set -eo pipefail

work="${1:?usage: cli_e2e.sh WORK_DIR}"
export TMPDIR="$work/tmp"
mkdir -p "$work" "$TMPDIR"

serec() { command ${SEREC:-serec} "$@"; }  # command: the entry point, not this function

serec --help
serec train --help
serec generate --out-dir "$work/data" --n-users 60 --n-items 80 --seed 3
serec split --interactions "$work/data/interactions.tsv" --out-dir "$work/split"
test -s "$work/split/split.npz"
for n in $(seq 300); do cat "$work/data/interactions.tsv"; done > "$work/repeated.tsv"
sed 's/$/\r/' "$work/repeated.tsv" > "$work/crlf.tsv"
for copy in repeated crlf; do
  serec split --interactions "$work/$copy.tsv" --out-dir "$work/split-$copy"
  for f in split.npz users.tsv items.tsv split-meta.json train.tsv; do
    cmp "$work/split/$f" "$work/split-$copy/$f"
  done
done
PYTHONPROFILEIMPORTTIME=1 serec train --split-dir "$work/split" \
  --social "$work/data/social.tsv" --out-dir "$work/model" --model serec-boost \
  --set dense_budget=1 --set max_em_iters=3 2> "$work/boost-imports.err" \
  || { tail -n 5 "$work/boost-imports.err"; exit 1; }
grep -qE '[|] +scipy([.]|$)' "$work/boost-imports.err"
user="$(head -n 1 "$work/data/interactions.tsv" | cut -f 1)"
serec exposure-curve --model-dir "$work/model" --split-dir "$work/split" \
  --social "$work/data/social.tsv" --user "$user" --out "$work/curve.tsv"
serec evaluate --model-dir "$work/model" --split-dir "$work/split"
test -s "$work/model/report.json"
mkdir "$work/npz-split"
cp "$work/split/split.npz" "$work/npz-split/"
serec evaluate --model-dir "$work/model" --split-dir "$work/npz-split" \
  --out-dir "$work/npz-report"
cmp "$work/model/report.json" "$work/npz-report/report.json"
serec exposure-curve --model-dir "$work/model" --split-dir "$work/npz-split" \
  --social "$work/data/social.tsv" --user "$user" --out "$work/npz-curve.tsv"
cmp "$work/curve.tsv" "$work/npz-curve.tsv"
cp -r "$work/model" "$work/bare-model"
python3 -c "import json, sys; m = json.load(open(sys.argv[1])); [m.pop(k) for k in ('k', 'n_users', 'n_items')]; json.dump(m, open(sys.argv[1], 'w'), indent=2)" "$work/bare-model/meta.json"
serec evaluate --model-dir "$work/bare-model" --split-dir "$work/split" \
  --out-dir "$work/bare-report"
cmp "$work/model/report.json" "$work/bare-report/report.json"
cp -r "$work/split" "$work/text-split"
rm "$work/text-split/split.npz"
rc=0
serec evaluate --model-dir "$work/model" --split-dir "$work/text-split" \
  2> "$work/text-split.err" || rc=$?
test "$rc" -eq 2 || { echo "exit $rc, expected 2"; exit 1; }
grep -q "split.npz" "$work/text-split.err"
serec friend-groups --model-dir "$work/model" --split-dir "$work/split" \
  --social "$work/data/social.tsv"
serec train --split-dir "$work/split" --social "$work/data/social.tsv" \
  --out-dir "$work/regular" --model serec-regular \
  --set n_sgd_epochs=1 --set max_em_iters=2
test -s "$work/regular/model.npz"
serec exposure-curve --model-dir "$work/regular" --split-dir "$work/split" \
  --social "$work/data/social.tsv" --user "$user"
serec train --split-dir "$work/split" --out-dir "$work/expomf" --model expomf \
  --set max_em_iters=2
test -s "$work/expomf/model.npz"
serec exposure-curve --model-dir "$work/expomf" --split-dir "$work/split" --user "$user"
PYTHONPROFILEIMPORTTIME=1 serec train --split-dir "$work/split" --out-dir "$work/wmf" \
  --model wmf --set max_em_iters=2 2> "$work/wmf-imports.err" \
  || { tail -n 5 "$work/wmf-imports.err"; exit 1; }
if grep -E '[|] +scipy([.]|$)' "$work/wmf-imports.err"; then
  echo "a wmf train imported scipy"; exit 1
fi
test -s "$work/wmf/model.npz"
serec exposure-curve --model-dir "$work/wmf" --split-dir "$work/split" --user "$user"
serec evaluate --model-dir "$work/wmf" --split-dir "$work/split"
serec robustness --split-dir "$work/split" --social "$work/data/social.tsv" \
  --keep-probs 1.0,0.5 --set max_em_iters=2 --out "$work/robustness.tsv"
grep -q "^decay_ratio" "$work/robustness.tsv"
for m in serec-boost wmf; do
  for t in 1 4; do
    serec train --split-dir "$work/split" --social "$work/data/social.tsv" \
      --out-dir "$work/$m-t$t" --model $m --set max_em_iters=3 \
      --set block_size=16 --set n_threads=$t
  done
  cmp "$work/$m-t1/trace.tsv" "$work/$m-t4/trace.tsv"
  cmp "$work/$m-t1/model.npz" "$work/$m-t4/model.npz"
done
for d in model regular expomf wmf; do
  for f in exposure.json boost.json; do
    test ! -e "$work/$d/$f" || { echo "$work/$d/$f exists"; exit 1; }
  done
done
test -z "$(ls -A "$TMPDIR")" || { ls -la "$TMPDIR"; exit 1; }

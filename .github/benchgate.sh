#!/usr/bin/env bash
# Performance gate: runs the repository's benchmark (polobench, declared
# in BENCHMARK.json) on a base commit and on the working tree, on the
# same machine, and fails when the working tree is worse.
#
#   bash .github/benchgate.sh <base-ref>
#
# Run it from anywhere inside the repository. The base is checked out in
# a temporary git worktree (under $TMPDIR), removed on exit. Both sides
# run the working tree's polobench/ and BENCHMARK.json, so only the
# program under test differs. For every workload it runs 5 alternating
# pairs of
#
#   bash polobench/run.sh --workload W --seed 1 --seconds <run_seconds> --trace 0
#
# (the base first in odd pairs, HEAD first in even pairs), then prints
# one row per workload and end-to-end metric: base median, HEAD median,
# their ratio, the spread of the base's runs (the distance between their
# quartiles over their median) and the metric's bound. It exits non-zero
# when a run fails (non-zero exit, no result line, or "correct": false),
# when HEAD's share of failed ops exceeds the base's, or when HEAD's
# median of a metric is worse than the base's by more than that metric's
# bound. A metric whose base spread is wider than its bound cannot be
# judged by its medians: its row reads "unresolved", and it fails only
# when every HEAD run is worse than every base run.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bash .github/benchgate.sh <base-ref>" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "benchgate: $1 is not a commit" >&2
  exit 2
}
pairs=5
seconds=$(jq -r .run_seconds BENCHMARK.json)

tmp=$(mktemp -d)
wt="$tmp/base"
cleanup() {
  git worktree remove --force "$wt" >/dev/null 2>&1 || true
  rm -rf "$tmp"
  git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --detach --quiet "$wt" "$base"
rm -rf "$wt/polobench"
cp -R polobench "$wt/polobench"
cp BENCHMARK.json "$wt/BENCHMARK.json"
echo "benchgate: base $(git rev-parse --short "$base") vs HEAD $(git rev-parse --short HEAD) (working tree), $pairs pairs of ${seconds}s runs per workload"

# run SIDE DIR WORKLOAD PAIR appends one run's result line to $tmp/WORKLOAD.SIDE.
run() {
  local side=$1 dir=$2 w=$3 pair=$4 out line
  if ! out=$(cd "$dir" && bash polobench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 0); then
    echo "benchgate: FAIL $w pair $pair: the $side run exited non-zero" >&2
    exit 1
  fi
  line=$(printf '%s\n' "$out" | tail -n 1)
  if ! jq -e 'has("correct") and has("metrics")' <<<"$line" >/dev/null 2>&1; then
    echo "benchgate: FAIL $w pair $pair: the $side run printed no result line" >&2
    exit 1
  fi
  if ! jq -e '.correct == true' <<<"$line" >/dev/null; then
    echo "benchgate: FAIL $w pair $pair: the $side run printed correct: false" >&2
    exit 1
  fi
  jq -r --arg w "$w" --arg side "$side" --arg pair "$pair" \
    '"\($w) pair \($pair) \($side): " + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" "))' <<<"$line"
  printf '%s\n' "$line" >>"$tmp/$w.$side"
}

rows=""
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  for ((p = 1; p <= pairs; p++)); do
    if ((p % 2 == 1)); then
      run base "$wt" "$w" "$p"
      run head "$root" "$w" "$p"
    else
      run head "$root" "$w" "$p"
      run base "$wt" "$w" "$p"
    fi
  done
  # One tab-separated row per metric, then the failed-ops shares:
  # workload, metric, base, head, ratio, spread, bound, verdict.
  rows+=$(jq -n -r --arg w "$w" \
    --slurpfile base "$tmp/$w.base" --slurpfile head "$tmp/$w.head" --slurpfile bench BENCHMARK.json '
    def q($p): sort | ($p * (length - 1)) as $x | ($x | floor) as $i
      | if $i + 1 < length then .[$i] + (.[$i + 1] - .[$i]) * ($x - $i) else .[$i] end;
    def share: (map(.failed) | add) / (map(.attempted) | add);
    def r3: . * 1000 | round / 1000;
    ($bench[0].end_to_end[] | . as $m
      | ($base | map(.metrics[$m.name].value)) as $bv
      | ($head | map(.metrics[$m.name].value)) as $hv
      | ($bv | q(0.5)) as $b | ($hv | q(0.5)) as $h
      | (if $b == 0 then 0 else (($bv | q(0.75)) - ($bv | q(0.25))) / $b end) as $spread
      | (if $m.better == "lower"
         then [$h > $b * (1 + $m.bound), ($hv | min) > ($bv | max)]
         else [$h < $b * (1 - $m.bound), ($hv | max) < ($bv | min)] end) as [$worse, $allworse]
      | [$w, $m.name, ($b | r3), ($h | r3), (if $b == 0 then "-" else ($h / $b | r3) end),
         ($spread | r3), "\($m.better) \($m.bound)",
         (if $spread > $m.bound then (if $allworse then "FAIL" else "unresolved" end)
          elif $worse then "FAIL" else "ok" end)]),
    (($base | share) as $b | ($head | share) as $h
      | [$w, "failed_share", ($b | r3), ($h | r3), "-", "-", "no higher", (if $h > $b then "FAIL" else "ok" end)])
    | @tsv')$'\n'
done

echo
printf '%s' "$rows" | awk -F '\t' '
  BEGIN { f = "%-12s %-14s %10s %10s %7s %7s %-11s %s\n"; printf f, "workload", "metric", "base", "head", "ratio", "spread", "bound", "verdict" }
  { printf f, $1, $2, $3, $4, $5, $6, $7, $8 }'
failed=$(printf '%s' "$rows" | awk -F '\t' '$8 == "FAIL" { print "benchgate: FAIL " $1 " " $2 }')
if [ -n "$failed" ]; then
  echo >&2
  printf '%s\n' "$failed" >&2
  exit 1
fi
echo
echo "benchgate: ok$(printf '%s' "$rows" | awk -F '\t' '$8 == "unresolved" { n++ } END { if (n) printf " (%d unresolved)", n }')"

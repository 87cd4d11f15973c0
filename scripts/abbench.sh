#!/usr/bin/env bash
# abbench.sh <base-ref> <workload> [pairs=3]
#
# A/B the repository benchmark between a base commit and the working
# tree: checks <base-ref> out into a temporary git worktree, alternates
# base and head runs of
#
#     benchmark/run.sh --workload <workload> --seconds 20 --trace 0
#
# (same seed on both sides of a pair, the side that goes first
# alternating), and prints, per end-to-end metric of BENCHMARK.json,
# the two medians, head/base, and WORSE when head is worse than base by
# more than that metric's bound. A metric whose base runs spread
# (max-min over median) wider than the bound is marked UNRESOLVED: the
# comparison cannot tell. Read-only with respect to benchmark/ and
# BENCHMARK.json; each side builds into its own .bench_build/.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs=3]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-3}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp="$(mktemp -d)"
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/base" "$base_ref" >/dev/null

# run <side> <dir> <seed>: one benchmark run; its result line (the last
# line of stdout) is appended to $tmp/<side>.ndjson.
run() {
	echo "  $1 seed $3" >&2
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds 20 --trace 0 | tail -n 1 >>"$tmp/$1.ndjson"
}

for ((i = 1; i <= pairs; i++)); do
	echo "pair $i/$pairs" >&2
	if ((i % 2)); then
		run base "$tmp/base" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$tmp/base" "$i"
	fi
done

python3 - "$root/BENCHMARK.json" "$tmp/base.ndjson" "$tmp/head.ndjson" "$workload" "$base_ref" <<'EOF'
import json, statistics, sys

spec, base_path, head_path, workload, base_ref = sys.argv[1:6]
load = lambda p: [json.loads(line) for line in open(p) if line.strip()]
base, head = load(base_path), load(head_path)

def failed(runs):
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)

print(f"{workload}: {base_ref} (base) vs working tree (head), {len(base)} pairs")
print(f"failed ops: base {failed(base)[0]}/{failed(base)[1]}, head {failed(head)[0]}/{failed(head)[1]}"
      + ("" if all(r["correct"] for r in base + head) else "   INCORRECT RUN"))
print(f"{'metric':<26}{'base':>12}{'head':>12}{'head/base':>11}{'bound':>8}{'base spread':>13}")
for m in json.load(open(spec))["end_to_end"]:
    name, bound = m["name"], m["bound"]
    b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
    h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
    if not b or not h:
        continue
    mb, mh = statistics.median(b), statistics.median(h)
    ratio = mh / mb if mb else float("nan")
    spread = (max(b) - min(b)) / mb if mb else 0.0
    worse = ratio > 1 + bound if m["better"] == "lower" else ratio < 1 - bound
    verdict = "UNRESOLVED" if spread > bound else "WORSE" if worse else ""
    print(f"{name:<26}{mb:>12.4g}{mh:>12.4g}{ratio:>11.3f}{bound:>8.3g}{spread:>12.1%}  {verdict}")
EOF

#!/usr/bin/env bash
# abbench.sh <base-ref> <workload> [pairs=3] [first-seed=1]
#
# A/B the repository benchmark between a base commit and the working
# tree: exports <base-ref> into a temporary directory with
# `git archive | tar -x` (the benchmark needs no .git; its tree hash
# comes from embedded sources), alternates base and head runs of
#
#     benchmark/run.sh --workload <workload> --seconds 20 --trace 0
#
# (same seed on both sides of a pair, first-seed, first-seed+1, …, the
# side that goes first alternating), and prints, per end-to-end metric
# of BENCHMARK.json: the two medians, head/base, the base runs'
# quartiles, how many pairs head won (ties count for neither side), and
# a verdict. WORSE: head is worse than base by more than that metric's
# bound. UNRESOLVED: the base runs spread (max-min over median) wider
# than the bound, so the comparison cannot tell. GAIN: head won at
# least nine tenths of the pairs and the medians differ by more than
# the base's inter-quartile distance — the rule a claimed improvement
# has to meet. Read-only with respect to benchmark/ and BENCHMARK.json;
# each side builds into its own .bench_build/.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs=3] [first-seed=1]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-3} seed=${4:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base"

# run <side> <dir> <seed>: one benchmark run; its result line (the last
# line of stdout) is appended to $tmp/<side>.ndjson.
run() {
	echo "  $1 seed $3" >&2
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds 20 --trace 0 | tail -n 1 >>"$tmp/$1.ndjson"
}

for ((i = 1; i <= pairs; i++)); do
	echo "pair $i/$pairs" >&2
	if ((i % 2)); then
		run base "$tmp/base" "$((seed + i - 1))"
		run head "$root" "$((seed + i - 1))"
	else
		run head "$root" "$((seed + i - 1))"
		run base "$tmp/base" "$((seed + i - 1))"
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
print(f"{'metric':<26}{'base':>11}{'head':>11}{'head/base':>10}{'bound':>7}{'base spread':>12}"
      f"{'base q1..q3':>22}{'head won':>10}")
for m in json.load(open(spec))["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    # Pairs are matched by position: run i of each side used seed i.
    pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
             for b, h in zip(base, head) if name in b["metrics"] and name in h["metrics"]]
    if not pairs:
        continue
    b, h = [p[0] for p in pairs], [p[1] for p in pairs]
    mb, mh = statistics.median(b), statistics.median(h)
    ratio = mh / mb if mb else float("nan")
    spread = (max(b) - min(b)) / mb if mb else 0.0
    q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else (mb, mb, mb)
    won = sum((hv < bv) if lower else (hv > bv) for bv, hv in pairs)
    worse = ratio > 1 + bound if lower else ratio < 1 - bound
    better = (mh < mb) if lower else (mh > mb)
    gain = better and won >= 0.9 * len(pairs) and abs(mh - mb) > q3 - q1
    verdict = "GAIN" if gain else "UNRESOLVED" if spread > bound else "WORSE" if worse else ""
    print(f"{name:<26}{mb:>11.4g}{mh:>11.4g}{ratio:>10.3f}{bound:>7.3g}{spread:>11.1%}"
          f"{q1:>12.4g}..{q3:<8.4g}{won:>5}/{len(pairs):<4} {verdict}")
EOF

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
# has to meet. Beside that table it prints each side's median of two
# notes every run prints: the uncorrected CPU ms/op
# ("whole phase as measured, uncorrected") and the host probe's median
# ("host probe: median"), so a claim can quote both arms without the
# probe's correction. Every run's full stdout is kept as
# <side>-<pair>.txt under
# .bench_build/abbench/<workload>-<base-ref>-<UTC time>/, a path the
# script prints. Read-only with respect to benchmark/ and
# BENCHMARK.json; each side builds into its own .bench_build/.
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
out="$root/.bench_build/abbench/$workload-${base_ref//[^A-Za-z0-9._-]/_}-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out"
echo "runs kept in $out" >&2

# run <side> <dir> <pair>: one benchmark run at the pair's seed, its
# stdout kept as $out/<side>-<pair>.txt (the result line is its last
# line).
run() {
	echo "  $1 seed $((seed + $3 - 1))" >&2
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$((seed + $3 - 1))" --seconds 20 --trace 0 >"$out/$1-$3.txt"
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

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "$workload" "$base_ref" <<'EOF'
import json, re, statistics, sys

spec, out, npairs, workload, base_ref = sys.argv[1:6]
sides = ("base", "head")
# Run i of each side used the same seed, so pairs match by position.
text = {s: [open(f"{out}/{s}-{i}.txt").read() for i in range(1, int(npairs) + 1)] for s in sides}
base, head = ([json.loads(t.splitlines()[-1]) for t in text[s]] for s in sides)

def failed(runs):
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)

print(f"{workload}: {base_ref} (base) vs working tree (head), {len(base)} pairs, runs kept in {out}")
print(f"failed ops: base {failed(base)[0]}/{failed(base)[1]}, head {failed(head)[0]}/{failed(head)[1]}"
      + ("" if all(r["correct"] for r in base + head) else "   INCORRECT RUN"))
print(f"{'metric':<26}{'base':>11}{'head':>11}{'head/base':>10}{'bound':>7}{'base spread':>12}"
      f"{'base q1..q3':>22}{'head won':>10}")
for m in json.load(open(spec))["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
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

# Two notes of each run's report, neither corrected for the probe; a
# note missing from one side's reports is left out.
print("report notes, median of each side:")
for label, pattern in (("CPU ms/op (uncorrected)", r"whole phase as measured, uncorrected: .*? ([0-9.e+-]+) CPU ms/op"),
                       ("host probe median, ms", r"host probe: median ([0-9.e+-]+) ms")):
    vals = {s: [float(m.group(1)) for t in text[s] if (m := re.search(pattern, t))] for s in sides}
    if not all(vals.values()):
        continue
    mb, mh = statistics.median(vals["base"]), statistics.median(vals["head"])
    won = sum(hv < bv for bv, hv in zip(vals["base"], vals["head"]))
    print(f"{label:<26}{mb:>11.4g}{mh:>11.4g}{mh / mb:>10.3f}   head lower in {won}/{len(vals['base'])} pairs")
EOF

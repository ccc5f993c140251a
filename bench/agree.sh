#!/usr/bin/env bash
# agree.sh: does the benchmark agree with itself?
#
# Runs two sets of runs of the same code the way the driver compares a change
# with its parent: each set is SEEDS untraced runs per workload, each run with
# another seed, plus one traced run per workload. For every pairing of
# end-to-end metric and workload it prints both medians, how much worse the
# second is than the first, each set's spread (the distance between its first
# and third quartile as a share of its median, statistics.quantiles(n=4)) and
# the metric's bound from BENCHMARK.json. It exits non-zero if a second median
# is worse than the first by more than the bound, or a spread is wider than
# the bound (setup_s's spread is reported, not judged, as the driver does).
#
# The two sets interleave (A then B for each seed and workload), so a slow
# stretch of the machine costs both sets alike.
#
#   bench/agree.sh                 # SEEDS=10, about 40 minutes
#   SEEDS=4 bench/agree.sh         # quicker, looser
#   REUSE=1 bench/agree.sh         # judge the runs already in bench/out/agree
#
# The report goes to standard output; bench/AGREEMENT.txt is a committed copy.
set -euo pipefail

cd "$(dirname "$0")"
SEEDS="${SEEDS:-10}"
REUSE="${REUSE:-0}"
SECONDS_ARG="$(python3 -c 'import json; print(json.load(open("../BENCHMARK.json"))["run_seconds"])')"
WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("../BENCHMARK.json"))["workloads"]))')"
DIR=out/agree

if [ "$REUSE" != 1 ]; then
	rm -rf "$DIR"
	mkdir -p "$DIR"
	go build -o "$DIR/bench" .
	for seed in $(seq 1 "$SEEDS"); do
		for w in $WORKLOADS; do
			for set in A B; do
				# Set B's seeds differ from set A's, as the driver's two sets do.
				s=$seed
				[ "$set" = B ] && s=$((seed + 1000))
				"$DIR/bench" --workload "$w" --seed "$s" --seconds "$SECONDS_ARG" --trace 0 \
					>"$DIR/$set-$w-$seed.json" 2>"$DIR/$set-$w-$seed.log"
			done
		done
	done
	for w in $WORKLOADS; do
		for set in A B; do
			"$DIR/bench" --workload "$w" --seed 1 --seconds "$SECONDS_ARG" --trace 1 \
				>"$DIR/$set-$w-trace.json" 2>"$DIR/$set-$w-trace.log"
		done
	done
	rm -f "$DIR/bench"
fi

python3 - "$DIR" "$SEEDS" <<'EOF'
import glob, json, statistics, sys

dir_, seeds = sys.argv[1], int(sys.argv[2])
manifest = json.load(open("../BENCHMARK.json"))
bounds = {m["name"]: m for m in manifest["end_to_end"]}

def last_json(path):
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    return json.loads(lines[-1])

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0

breaches = 0
print(f"two sets of {seeds} runs per workload, seeds 1..{seeds} (A) and 1001..{1000+seeds} (B)")
print(f"{'workload':12} {'metric':18} {'median A':>14} {'median B':>14} {'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
for w in [x["name"] for x in manifest["workloads"]]:
    runs = {}
    for set_ in "AB":
        runs[set_] = [last_json(p) for p in sorted(glob.glob(f"{dir_}/{set_}-{w}-[0-9]*.json"))]
        for r in runs[set_]:
            if not r["correct"] or r["failed"] != 0:
                print(f"{w}: a run of set {set_} was not correct: attempted {r['attempted']} failed {r['failed']}")
                breaches += 1
    for name, m in bounds.items():
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        bad = worse > m["bound"] or (name != "setup_s" and max(sa, sb) > m["bound"])
        breaches += bad
        print(f"{w:12} {name:18} {ma:14.4f} {mb:14.4f} {worse:+10.2%} {sa:9.2%} {sb:9.2%} {m['bound']:6.2f}  {'BREACH' if bad else 'ok'}")

print()
print("machine and repetition diagnostics of the traced runs (not judged):")
for w in [x["name"] for x in manifest["workloads"]]:
    for set_ in "AB":
        t = last_json(f"{dir_}/{set_}-{w}-trace.json")["metrics"]
        print(f"{w:12} set {set_}: harness.calib_ns {t['harness.calib_ns']['value']:.0f}  harness.rep_spread {t['harness.rep_spread']['value']:.4f}  harness.trace_overhead_share {t['harness.trace_overhead_share']['value']:.4f}")

print()
print("BREACHES:", breaches)
sys.exit(1 if breaches else 0)
EOF

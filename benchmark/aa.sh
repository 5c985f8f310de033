#!/usr/bin/env bash
# A/A check of the benchmark against its own bounds.
#
# Runs the end-to-end benchmark twice over (set A, set B): in each set every
# workload runs once per seed, the workload order alternating between sets.
# Then, per (metric, workload):
#   - the spread of each set: the distance between the first and third
#     quartile of the per-seed values as a share of their median, which must
#     stay within the metric's bound in BENCHMARK.json (setup_s exempt);
#   - both medians and their ratio: B may not be worse than A by more than
#     the bound.
# The three micro_* workloads must also print one digest per seed. One
# traced run per workload (first seed) is recorded alongside, unjudged.
#
# usage: benchmark/aa.sh [result.json]      (from anywhere)
#   SEEDS="1 2 3"   seeds of a set            (default 1..10)
#   RUN_SECONDS=5   window of one run         (default run_seconds)
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
spec="$here/../BENCHMARK.json"
result=${1:-$here/out/aa.json}
seeds=${SEEDS:-1 2 3 4 5 6 7 8 9 10}
target=${CARGO_TARGET_DIR:-$here/target}
mkdir -p "$here/out"

SECONDS=0
cargo build --release --offline --manifest-path "$here/Cargo.toml"
echo "cargo build: $SECONDS s (not part of setup_s)"
bin="$target/release/nimage-benchmark"

seconds=${RUN_SECONDS:-$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$spec")}
workloads=$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$spec")
reversed=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')

runs="$here/out/aa.runs.jsonl"
: > "$runs"
# One line per run: what was asked, the result line, and the digest the run
# recorded.
record() { # set workload seed trace
    local last digest=null start=$EPOCHREALTIME
    last=$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" | tail -n 1)
    local wall_s
    wall_s=$(python3 -c "print(round($EPOCHREALTIME - $start, 2))")
    if [ "$4" = 0 ]; then
        digest=$(python3 -c "import json,sys; print(json.dumps(json.load(open(sys.argv[1]))['digest']))" "$here/out/$2.run.json")
    fi
    echo "{\"set\": \"$1\", \"workload\": \"$2\", \"seed\": $3, \"trace\": $4, \"wall_s\": $wall_s, \"digest\": $digest, \"result\": $last}" >> "$runs"
    echo "set $1  $2  seed $3  trace $4  ${wall_s} s"
}

for set in A B; do
    order=$workloads
    [ "$set" = B ] && order=$reversed
    for seed in $seeds; do
        for w in $order; do record "$set" "$w" "$seed" 0; done
    done
done
for w in $workloads; do record layers "$w" "${seeds%% *}" 1; done

python3 - "$spec" "$runs" "$result" "$seconds" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
seconds = float(sys.argv[4])
ok = True
rows = []

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))

print(f"{'workload':15} {'metric':24} {'median A':>14} {'median B':>14} {'B/A':>8} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>8}  verdict")
for w in [w["name"] for w in spec["workloads"]]:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = {
            s: [r["result"]["metrics"][name]["value"] for r in runs
                if r["set"] == s and r["workload"] == w]
            for s in "AB"
        }
        med = {s: statistics.median(values[s]) for s in "AB"}
        spr = {s: spread(values[s]) for s in "AB"}
        worse = (med["B"] - med["A"]) / abs(med["A"])
        if m["better"] == "higher":
            worse = -worse
        steady = name == "setup_s" or max(spr.values()) <= bound
        verdict = "PASS" if steady and worse <= bound else "FAIL"
        ok &= verdict == "PASS"
        print(f"{w:15} {name:24} {med['A']:14.6f} {med['B']:14.6f} {med['B'] / med['A']:8.4f} "
              f"{spr['A']:9.4f} {spr['B']:9.4f} {bound:8.2g}  {verdict}")
        rows.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                     "median_a": med["A"], "median_b": med["B"], "ratio_b_over_a": med["B"] / med["A"],
                     "spread_a": spr["A"], "spread_b": spr["B"], "verdict": verdict,
                     "values_a": values["A"], "values_b": values["B"]})

failed = sum(r["result"]["failed"] for r in runs)
incorrect = [r for r in runs if not r["result"]["correct"]]
print(f"failed passes: {failed}; incorrect runs: {len(incorrect)}")
ok &= failed == 0 and not incorrect

# Cold/warm and store/no-store bit-identity: one digest per seed.
digests = {}
for r in runs:
    if r["trace"] == 0 and r["workload"].startswith("micro_"):
        digests.setdefault(r["seed"], set()).add(r["digest"])
split = {seed: sorted(d) for seed, d in digests.items() if len(d) != 1}
print("digests: " + ("identical across micro_cold, micro_warm, micro_populate" if not split
                     else f"DIFFER {split}"))
ok &= not split

# The driver makes 4 + 22 x workloads runs and caps them, with two builds,
# at 3420 s.
walls = [r["wall_s"] for r in runs]
n_driver = 4 + 22 * len(spec["workloads"])
print(f"run wall: mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s; "
      f"{n_driver} driver runs ~ {n_driver * statistics.mean(walls):.0f} s of 3420 s")

layers = {r["workload"]: {k: v["value"] for k, v in r["result"]["metrics"].items()}
          for r in runs if r["trace"] == 1}
json.dump({"seeds": sorted(digests), "seconds": seconds, "mean_run_wall_s": statistics.mean(walls),
           "verdict": "PASS" if ok else "FAIL",
           "failed_passes": failed, "digests": {str(s): sorted(d)[0] for s, d in digests.items()},
           "end_to_end": rows, "per_layer": layers},
          open(sys.argv[3], "w"), indent=1)
print(f"{'PASS' if ok else 'FAIL'} — written to {sys.argv[3]}")
sys.exit(0 if ok else 1)
EOF

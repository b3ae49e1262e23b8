#!/usr/bin/env bash
# A/B the gated benchmark (BENCHMARK.json): a parent commit against the
# working tree.
#
# Usage: scripts/ab.sh PARENT [N] [WORKLOADS]
#
#   PARENT     any commit-ish (HEAD~1, a hash, a branch)
#   N          pairs of runs, default 10
#   WORKLOADS  comma-separated workload names, default every workload
#
# Builds benchmark/ from PARENT (exported with `git archive` into a
# temporary directory) and from the working tree (built in place, into a
# target directory of its own), then runs N pairs of `run --trace 0`, the
# two sides alternating which goes first; pair i runs seed 30+i on both
# sides. It prints `dmbfs-benchmark compare parent change`, then, per
# workload and end-to-end metric, the median of the per-pair ratios
# change/parent and "change faster in k/N". It exits with compare's
# status, edits nothing under benchmark/, and removes the temporary
# directory on exit.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
    echo "usage: scripts/ab.sh PARENT [N] [WORKLOADS]" >&2
    exit 2
fi
parent=$1
pairs=${2:-10}
workloads=${3:-all}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "error: N must be a positive whole number, got '$pairs'" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "parent: $parent ($rev); change: working tree of $root" >&2
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
build() { # SOURCE_ROOT TARGET_DIR
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2"
}
build "$tmp/parent" "$tmp/target-parent"
build "$root" "$tmp/target-change"

run() { # SIDE SEED
    local bin="$tmp/target-$1/release/dmbfs-benchmark"
    local names=${workloads//,/ }
    for w in $names; do
        (cd "$tmp" && "$bin" run --trace 0 --seed "$2" --workload "$w" \
            --out "$tmp/$1.jsonl" >/dev/null 2>>"$tmp/$1.log")
    done
}
for ((i = 1; i <= pairs; i++)); do
    seed=$((30 + i))
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side (seed $seed)" >&2
        run "$side" "$seed"
    done
done

status=0
"$tmp/target-change/release/dmbfs-benchmark" compare "$tmp/parent.jsonl" "$tmp/change.jsonl" ||
    status=$?

python3 - "$root/BENCHMARK.json" "$tmp/parent.jsonl" "$tmp/change.jsonl" <<'EOF'
import json, statistics, sys

metrics = json.load(open(sys.argv[1]))["end_to_end"]
def records(path):
    by_workload = {}
    for line in open(path):
        if line.strip():
            r = json.loads(line)
            by_workload.setdefault(r["workload"], []).append(r["metrics"])
    return by_workload
parent, change = records(sys.argv[2]), records(sys.argv[3])

print("\nper-pair ratios (change / parent)")
print(f"{'workload':<20} {'metric':<15} {'median ratio':>12}  change faster in")
for workload, base in parent.items():
    cand = change.get(workload, [])
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        ratios = [c[name]["value"] / b[name]["value"] for b, c in zip(base, cand)
                  if name in b and name in c and b[name]["value"]]
        if not ratios:
            continue
        faster = sum(r > 1 if higher else r < 1 for r in ratios)
        print(f"{workload:<20} {name:<15} {statistics.median(ratios):>12.3f}  "
              f"{faster}/{len(ratios)}")
EOF
exit "$status"

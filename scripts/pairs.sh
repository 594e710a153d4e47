#!/usr/bin/env bash
# Alternating pairs: times a change's benchmark binary against its
# parent's on one workload.
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED SECONDS N [LOG]
#
# Runs N pairs. Pair i runs the parent first when i is odd and the change
# first when it is even (A B, B A, A B, ...), both with exactly the same
# flags: `--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`.
# Every run's `stamp`, `metric` and `operations` lines are appended to LOG
# (default `pairs-WORKLOAD-SEED.log` in the current directory), each
# prefixed with its pair number and side, so a series can be summarized
# again or extended by hand.
#
# Then prints, for every end-to-end metric of the repository's
# BENCHMARK.json: the parent's median and quartiles, the
# change's median, the ratio change / parent, and in how many pairs the
# change was better in the metric's own direction; and every run that
# reported failed operations or printed no metrics.
#
# Build each side once, each into its own target directory, and copy the
# binaries out first (see the verify notes), e.g.:
#
#   scripts/pairs.sh /tmp/bench-parent /tmp/bench-change mark_tree 29 5 10
set -euo pipefail

if [ $# -lt 6 ] || [ $# -gt 7 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 seconds=$5 n=$6
log=${7:-pairs-$workload-$seed.log}
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done

run() { # pair side binary
    local out status=0
    out=$("$3" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>&1) || status=$?
    printf '%s\n' "$out" | awk -v p="$1" -v s="$2" \
        '/^(stamp|metric|operations) /{print p, s, $0}' >>"$log"
    if [ "$status" -ne 0 ]; then
        echo "$1 $2 exit $status" >>"$log"
    fi
}

for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
        run "$i" parent "$parent"
        run "$i" change "$change"
    else
        run "$i" change "$change"
        run "$i" parent "$parent"
    fi
    echo "pair $i/$n done" >&2
done

python3 - "$log" "$spec" "$workload" "$n" <<'PY'
import json, statistics, sys

log, spec, workload, n = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}
values, problems, stamp, seen = {}, [], None, set()
for line in open(log):
    f = line.split()
    pair, side, kind = int(f[0]), f[1], f[2]
    if kind == "stamp":
        stamp = stamp or " ".join(f[3:])
    elif kind == "metric" and f[3] == workload and f[4] in better:
        values.setdefault(f[4], {}).setdefault(side, {})[pair] = float(f[5])
        seen.add((pair, side))
    elif kind == "operations" and f[-2] != "0":
        problems.append(line.strip())
    elif kind == "exit":
        problems.append(line.strip())

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}: {stamp}")
print(f"{'metric':<22} {'parent q1':>12} {'parent med':>12} {'parent q3':>12} "
      f"{'change med':>12} {'ratio':>7} {'won':>7}")
for name in better:
    sides = values.get(name, {})
    a, b = sides.get("parent", {}), sides.get("change", {})
    pairs = sorted(set(a) & set(b))
    if not pairs:
        print(f"{name:<22} no runs on both sides")
        continue
    pa, pb = [a[p] for p in pairs], [b[p] for p in pairs]
    q1, q3 = quartiles(pa)
    ma, mb = statistics.median(pa), statistics.median(pb)
    up = better[name] == "higher"
    won = sum((y > x) if up else (y < x) for x, y in zip(pa, pb))
    ratio = mb / ma if ma else float("nan")
    print(f"{name:<22} {q1:>12.6g} {ma:>12.6g} {q3:>12.6g} {mb:>12.6g} "
          f"{ratio:>7.3f} {won:>3}/{len(pairs):<3}")
problems += [f"{p} {side}: no metrics" for p in range(1, int(n) + 1)
             for side in ("parent", "change") if (p, side) not in seen]
for p in problems:
    print(f"FAILED: {p}")
if not problems:
    print("no run reported a failed operation")
PY

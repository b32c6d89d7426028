#!/usr/bin/env bash
# Paired before/after runs of the frozen benchmark (BENCHMARK.json), the
# protocol a claimed gain has to meet: N pairs of parent and change,
# alternating which side runs first, seeds 1..N (so seed 2 is always among
# them), each side built by its own bench/run.sh from its own sources. The
# parent is materialized once with `git archive` under .bench_build/ (ignored
# by git and by the Go tool); the change is the working tree as it stands.
# Prints, per end-to-end metric, both medians and quartile pairs,
# wins/ties/losses, the bound and a verdict (scripts/bench_pairs.go). No
# network, nothing beyond git, tar and go.
#
#   scripts/bench_pairs.sh <workload> <parent-rev> [pairs=10]
#   make bench-pairs W=bridge3 PARENT=HEAD~1 N=10
set -euo pipefail

w=${1:?usage: scripts/bench_pairs.sh <workload> <parent-rev> [pairs]}
parent=${2:?usage: scripts/bench_pairs.sh <workload> <parent-rev> [pairs]}
n=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --short=12 "$parent^{commit}")
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
pdir=$root/.bench_build/parent-$rev
out=$root/.bench_build/pairs/$w

if [ ! -d "$pdir" ]; then
	mkdir -p "$pdir"
	git archive "$rev" | tar -x -C "$pdir"
fi
mkdir -p "$out"
rm -f "$out"/*.json

# run <side> <checkout> <seed>: one harness run; its last stdout line is the
# metrics JSON. A run that exits non-zero (an output check failed) ends the
# whole comparison: such a change is rejected whatever it gained.
run() {
	echo "bench_pairs: $w seed $3 $1" >&2
	if ! (cd "$2" && bash bench/run.sh --workload "$w" --seed "$3" --seconds "$secs" --trace 0) | tail -n 1 >"$out/$1-$3.json"; then
		echo "bench_pairs: $1 run failed (workload $w, seed $3)" >&2
		exit 1
	fi
}

for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$pdir" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$pdir" "$i"
	fi
done

go run scripts/bench_pairs.go -workload "$w" -parent "$rev" BENCHMARK.json "$out"

#!/usr/bin/env bash
# Runs a set: every named workload (default: all four) once per seed,
# seeds FIRST..FIRST+N-1, saving each run's standard output as
# DIR/<workload>-<seed>.out for `perfbench --compare`. Run from the
# repository root:
#
#   bash perfbench/runset.sh DIR N [FIRST [SECONDS [WORKLOAD...]]]
#   bash perfbench/run.sh --compare DIR_A DIR_B
set -euo pipefail
dir=$1 n=$2 first=${3:-1} secs=${4:-15}
shift $(( $# < 4 ? $# : 4 ))
wls=("$@")
[ ${#wls[@]} -gt 0 ] || wls=(campaign difftest serve paper)
mkdir -p "$dir"
bash perfbench/run.sh --workload paper --seconds 1 --seed 0 >/dev/null # build once
for w in "${wls[@]}"; do
	for ((s = first; s < first + n; s++)); do
		.bench_build/perfbench --workload "$w" --seed "$s" --seconds "$secs" --trace 0 >"$dir/$w-$s.out"
		tail -n 1 "$dir/$w-$s.out" | cut -c1-160 >&2
	done
done

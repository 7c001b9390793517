#!/usr/bin/env bash
# Byte-identity check for the paper's reproduction outputs.
#
# Reruns the 14 fig/table/ablation benches at default scale and
# `fdpbench --workload={kvcache,twitter,wokv} --qd=1 --csv` from a built
# tree and diffs each output against the committed copy in bench/golden/.
# Every one of them runs in the simulator's virtual time with fixed seeds,
# so any byte that moves is a behaviour change.
#
# Usage: tools/check_goldens.sh <build-dir>            # check (exit 1 on a diff)
#        tools/check_goldens.sh <build-dir> --update   # rewrite the goldens
#
# Takes about 5 minutes serially on a Release build.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ( $# -eq 2 && "$2" != "--update" ) ]]; then
  echo "usage: $0 <build-dir> [--update]" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
update=${2:-}
golden=$(cd "$(dirname "$0")/../bench/golden" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

benches=(
  fig05_dlwa_timeline fig06_utilization_sweep fig07_twitter_cluster12
  fig08_wo_kv_cache fig09_soc_size_sweep fig10_carbon_and_gc
  fig11_multi_tenant fig12_model_validation fig13_wo_kv_util_sweep
  table1_interface_comparison table2_dram_sweep
  ablation_isolation_type ablation_loc_trim ablation_placement_policy
)

# The benches may drop files into the working directory; run them in the
# scratch directory so the checkout stays clean.
cd "$out"
for b in "${benches[@]}"; do
  "$build/bench/$b" > "$out/$b.txt"
done
for w in kvcache twitter wokv; do
  "$build/tools/fdpbench" --workload="$w" --qd=1 --csv > "$out/fdpbench_$w.csv"
done

status=0
for f in "$out"/*.txt "$out"/*.csv; do
  name=$(basename "$f")
  if [[ "$update" == "--update" ]]; then
    cp "$f" "$golden/$name"
  elif ! diff -u "$golden/$name" "$f" > "$out/$name.diff"; then
    echo "MISMATCH $name"
    head -40 "$out/$name.diff"
    status=1
  else
    echo "ok       $name"
  fi
done
exit $status

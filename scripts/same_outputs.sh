#!/usr/bin/env bash
# Byte-identity check of the deterministic outputs against an earlier
# revision.  A change that must not alter behaviour (a refactor, a
# performance change) runs this against its parent:
#
#   scripts/same_outputs.sh <rev>
#
# <rev> is exported with `git archive` (the repository itself is only
# read), and it and the working tree are built RelWithDebInfo under
# build-same/.  Both builds then run, each from a fresh directory of its
# own, and their stdout, stderr and exit status are compared:
#   - bench_engine_hot_path --digest
#   - bench_federation --determinism
#   - bench_sat_nround_bound
#   - bench_diffserv_classes (E10 per-class ring service, E10b gateway
#     reservation verdicts and reasons)
#   - wrt_chaos, --json, --flap-matrix and --print-plan
#   - every example, run without arguments
#   - telemetry_demo into a fresh directory, and every file it writes there
# The script stops at the first output that differs, names it, shows the
# start of the diff and exits 1.  It exits 0 when every output matches.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/same_outputs.sh <rev>" >&2
  exit 2
fi
rev="$1"
if ! sha="$(git rev-parse --verify --quiet "$rev^{commit}")"; then
  echo "same_outputs: '$rev' is not a commit" >&2
  exit 2
fi

root="$PWD/build-same"
old_src="$root/src-$sha"
old_build="$root/build-$sha"
new_build="$root/worktree"
run="$root/run"

if [ ! -f "$old_src/.exported" ]; then
  rm -rf "$old_src"
  mkdir -p "$old_src"
  git archive "$sha" | tar -x -C "$old_src"
  touch "$old_src/.exported"
fi

examples_of() {
  sed -n 's/^wrt_add_example(\(.*\))$/\1/p' "$1/examples/CMakeLists.txt"
}
examples="$(examples_of .)"
if [ "$examples" != "$(examples_of "$old_src")" ]; then
  echo "same_outputs: the list of examples differs from $rev" >&2
  diff <(examples_of "$old_src") <(echo "$examples") >&2 || true
  exit 1
fi

# Reuse the generator of an existing build tree; prefer Ninja on a new one.
build() {
  local src="$1" dir="$2" generator=()
  if [ ! -f "$dir/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S "$src" -B "$dir" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  # shellcheck disable=SC2086  # one target per example name
  if ! cmake --build "$dir" -j "$(nproc)" --target bench_engine_hot_path \
      bench_federation bench_sat_nround_bound bench_diffserv_classes \
      wrt_chaos $examples \
      > "$dir.log" 2>&1; then
    tail -n 30 "$dir.log" >&2
    echo "same_outputs: the build in $dir failed (log: $dir.log)" >&2
    exit 1
  fi
}
echo "== building $rev ($sha) and the working tree under build-same/"
build "$old_src" "$old_build"
build . "$new_build"

rm -rf "$run"
mkdir -p "$run/old" "$run/new"

# compare <name> <binary under the build dir> [args...]
compare() {
  local name="$1" binary="$2" side dir
  shift 2
  for side in old new; do
    dir="$old_build"
    [ "$side" = new ] && dir="$new_build"
    (cd "$run/$side" && "$dir/$binary" "$@") > "$run/$side.out" 2>&1 ||
      echo "exit status $?" >> "$run/$side.out"
  done
  if ! cmp -s "$run/old.out" "$run/new.out"; then
    echo "same_outputs: '$name' differs between $rev and the working tree" >&2
    diff "$run/old.out" "$run/new.out" | head -n 20 >&2 || true
    exit 1
  fi
  echo "same: $name"
}

compare "bench_engine_hot_path --digest" bench/bench_engine_hot_path --digest
compare "bench_federation --determinism" bench/bench_federation --determinism
compare "bench_sat_nround_bound" bench/bench_sat_nround_bound
compare "bench_diffserv_classes" bench/bench_diffserv_classes
compare "wrt_chaos" tools/wrt_chaos
compare "wrt_chaos --json" tools/wrt_chaos --json
compare "wrt_chaos --flap-matrix" tools/wrt_chaos --flap-matrix
compare "wrt_chaos --print-plan" tools/wrt_chaos --print-plan
for example in $examples; do
  compare "$example" "examples/$example"
done
compare "telemetry_demo telemetry_out" examples/telemetry_demo telemetry_out
if ! diff -r "$run/old/telemetry_out" "$run/new/telemetry_out" > "$run/files.diff"; then
  echo "same_outputs: the files telemetry_demo writes differ from $rev" >&2
  head -n 20 "$run/files.diff" >&2
  exit 1
fi
echo "same: telemetry_demo files ($(ls "$run/new/telemetry_out" | wc -l))"
echo "SAME OUTPUTS as $rev"

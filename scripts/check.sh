#!/usr/bin/env bash
# Full verification pass: configure, build (warnings-as-errors), run the
# complete test suite, then every experiment bench and example.  This is
# the command CI (or a suspicious reviewer) runs.
#
#   scripts/check.sh                # regular pass
#   scripts/check.sh --asan         # additionally build + ctest under ASan/UBSan
#                                   # (float-cast-overflow included),
#                                   # then the wrt_chaos soak and flap matrix
#                                   # with the 64-slot audit (Debug build)
#   scripts/check.sh --lint         # additionally run wrt_lint (+ clang-tidy
#                                   # and cppcheck when installed)
#   scripts/check.sh --bench-smoke  # build only, then run every bench with
#                                   # --smoke --json-dir and validate the
#                                   # emitted BENCH_*.json schema
#   scripts/check.sh --chaos-smoke  # build only, then run the fixed 16-seed
#                                   # wrt_chaos soak (FaultPlan chaos +
#                                   # recovery-SLO + invariant audit), replay
#                                   # each seed's printed plan via --plan,
#                                   # plus the flapping-link RecoveryFsm A/B
#                                   # matrix (BENCH_recovery_fsm.json)
#   scripts/check.sh --voice-smoke  # build bench_voice_capacity only, run
#                                   # the short E16 sweep, validate its JSON
#                                   # and gate the WRT-vs-Aloha capacity
#                                   # ordering at the saturation cell
#   scripts/check.sh --federation-smoke
#                                   # build bench_federation only, then run
#                                   # its --determinism mode: same (seed, K)
#                                   # must digest identically for worker
#                                   # counts W in {1,2,8}, and to the three
#                                   # pinned values (two small fabrics and
#                                   # the federation workload's 64x64 K=8
#                                   # E=64 shape)
#   scripts/check.sh --tsan         # ThreadSanitizer build (build-tsan/) and
#                                   # the concurrency suite: K engines on K
#                                   # threads must be race-free AND digest
#                                   # bit-identical to their serial runs
#   scripts/check.sh --e2e-smoke    # configure the repo benchmark package
#                                   # (bench/e2e) into build-e2e/, build it
#                                   # and run its WrtBenchSmoke ctest
#   scripts/check.sh --telemetry-gate
#                                   # build the digest, wrt_chaos and
#                                   # protocol_trace with telemetry ON
#                                   # (build/) and OFF (build-notelem/);
#                                   # exit 1 unless the four outputs match
set -euo pipefail
cd "$(dirname "$0")/.."

WITH_ASAN=0
WITH_LINT=0
WITH_TSAN=0
BENCH_SMOKE=0
CHAOS_SMOKE=0
FEDERATION_SMOKE=0
VOICE_SMOKE=0
E2E_SMOKE=0
TELEMETRY_GATE=0
for arg in "$@"; do
  case "$arg" in
    --asan) WITH_ASAN=1 ;;
    --lint) WITH_LINT=1 ;;
    --tsan) WITH_TSAN=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos-smoke) CHAOS_SMOKE=1 ;;
    --federation-smoke) FEDERATION_SMOKE=1 ;;
    --voice-smoke) VOICE_SMOKE=1 ;;
    --e2e-smoke) E2E_SMOKE=1 ;;
    --telemetry-gate) TELEMETRY_GATE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

# Reuse the generator of an existing build tree; prefer Ninja on a fresh one.
configure() {
  local dir="$1"; shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" -G Ninja "$@"
  fi
}

if [ "$WITH_TSAN" = 1 ]; then
  echo "== TSan build + concurrency suite =="
  # Standalone mode (skips the regular build): builds only the test targets
  # that exercise threads, because a TSan pass over the serial suite spends
  # hours to probe nothing.  The shard smoke test is both the race probe
  # (K engines on K threads, each counting into its own telemetry block,
  # must share nothing) and the determinism gate (parallel digests must
  # equal serial digests).  test_concurrency also carries the federation
  # determinism test: worker threads step their rings and post/drain the
  # epoch mailboxes while the coordinator owns the buffer flips — the PR 8
  # race surface.
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g"
  configure build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
  cmake --build build-tsan --target test_concurrency test_telemetry test_sim
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  build-tsan/tests/test_concurrency
  build-tsan/tests/test_telemetry
  build-tsan/tests/test_sim --gtest_filter='Replication*'
  echo "TSAN PASSED"
  exit 0
fi

if [ "$E2E_SMOKE" = 1 ]; then
  echo "== e2e smoke: repo benchmark (bench/e2e) =="
  # Standalone mode: bench/e2e is a CMake package of its own (it compiles
  # src/ into one archive), so it gets its own build tree.  WrtBenchSmoke
  # runs every wrt_bench workload for about a second under the invariant
  # audit (voice-mobile replays traces on WRT-Ring, TPT and Aloha) and
  # fails on a violation, a federation digest mismatch between worker
  # counts, or a malformed BENCH_e2e.json.
  configure build-e2e -S bench/e2e
  cmake --build build-e2e
  ctest --test-dir build-e2e --output-on-failure
  echo "E2E SMOKE PASSED"
  exit 0
fi

if [ "$TELEMETRY_GATE" = 1 ]; then
  echo "== telemetry gate: telemetry must not perturb the protocol =="
  # Standalone mode: each protocol output of a telemetry-ON build must be
  # byte-identical to the same output of a -DWRT_TELEMETRY=OFF build.  The
  # digest runs a clean ring; wrt_chaos also drives the lossy per-hop
  # visit, SAT loss draws and joins; protocol_trace attaches a journal
  # before init() and prints its timeline, the protocol's only event
  # record.  Every pair is diffed; any difference fails the gate.
  GATE_TARGETS=(bench_engine_hot_path wrt_chaos protocol_trace)
  configure build
  configure build-notelem -DWRT_TELEMETRY=OFF
  cmake --build build --target "${GATE_TARGETS[@]}"
  cmake --build build-notelem --target "${GATE_TARGETS[@]}"
  GATE_DIR=build/telemetry_gate
  rm -rf "$GATE_DIR"
  mkdir -p "$GATE_DIR"
  GATE_FAILED=0
  for output in "bench/bench_engine_hot_path --digest" \
                "tools/wrt_chaos --json" \
                "tools/wrt_chaos --flap-matrix" \
                "examples/protocol_trace"; do
    name=${output##*/}
    name=${name// /}
    # Unquoted: the path and its flags split into separate words.
    build/$output > "$GATE_DIR/$name.on"
    build-notelem/$output > "$GATE_DIR/$name.off"
    if diff -u "$GATE_DIR/$name.on" "$GATE_DIR/$name.off"; then
      echo "identical: $output"
    else
      echo "telemetry gate: '$output' differs with telemetry OFF" >&2
      GATE_FAILED=1
    fi
  done
  [ "$GATE_FAILED" = 0 ] || exit 1
  echo "TELEMETRY GATE PASSED"
  exit 0
fi

if [ "$FEDERATION_SMOKE" = 1 ]; then
  echo "== federation smoke: worker-count determinism =="
  # Standalone mode: builds only the federation bench and runs its
  # determinism oracle (same (seed, fabric) -> same digest for W in
  # {1,2,8}) on two small fabrics and on the shape of bench/e2e's
  # federation workload (64 rings of 64 stations, K=8, E=64, 32 epochs).
  # The full federation scaling run (1M+ stations) happens in the regular
  # bench pass below; this gate is the seconds-cheap CI version.
  configure build
  cmake --build build --target bench_federation
  FEDERATION_OUT="$(build/bench/bench_federation --determinism)"
  echo "$FEDERATION_OUT"
  # Pinned digests: worker-count invariance alone passes a change that
  # alters the fabric the same way for every W.  ROADMAP's fixed-bucket
  # crossing-delay histogram changes all three on purpose; recapture them
  # there (and tests/wrtring/federation_test.cpp's FederationDigest cells).
  for pinned in "K=2, W in {1,2,8} -> digest 200ee8373956970b" \
                "K=8, W in {1,2,8} -> digest c7362a384ec5fc41" \
                "64x64 K=8 E=64, W in {1,2,8} -> digest 05b2a1c658a19ad1"; do
    if ! grep -qF "$pinned" <<< "$FEDERATION_OUT"; then
      echo "federation smoke: expected '$pinned'" >&2
      exit 1
    fi
  done
  echo "FEDERATION SMOKE PASSED"
  exit 0
fi

if [ "$VOICE_SMOKE" = 1 ]; then
  echo "== voice smoke: E16 capacity sweep + MOS ordering gate =="
  # Standalone mode: builds only the voice capacity bench, runs the short
  # sweep, validates the emitted JSON, and asserts the headline protocol
  # claim the full run demonstrates — WRT-Ring sustains strictly more
  # MOS-compliant calls than slotted Aloha at the N=32 saturation cell.
  configure build
  cmake --build build --target bench_voice_capacity
  VOICE_JSON_DIR="${VOICE_JSON_DIR:-build/voice-json}"
  rm -rf "$VOICE_JSON_DIR"
  mkdir -p "$VOICE_JSON_DIR"
  build/bench/bench_voice_capacity --smoke --json-dir="$VOICE_JSON_DIR" \
    > /dev/null
  python3 scripts/validate_bench_json.py "$VOICE_JSON_DIR"
  python3 - "$VOICE_JSON_DIR/BENCH_voice_capacity.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
metrics = {m["metric"]: m["value"] for m in doc["metrics"]}
wrt = metrics["wrt_clean_n32_compliant"]
aloha = metrics["aloha_clean_n32_compliant"]
assert wrt > aloha, f"expected WRT > Aloha at clean n=32, got {wrt} vs {aloha}"
print(f"voice gate: WRT {wrt:g} > Aloha {aloha:g} compliant calls at n=32")
PY
  echo "VOICE SMOKE PASSED"
  exit 0
fi

configure build
cmake --build build

if [ "$BENCH_SMOKE" = 1 ]; then
  echo "== bench smoke: BENCH_*.json emission + schema =="
  BENCH_JSON_DIR="${BENCH_JSON_DIR:-build/bench-json}"
  rm -rf "$BENCH_JSON_DIR"
  mkdir -p "$BENCH_JSON_DIR"
  for b in build/bench/bench_*; do
    echo "--- $(basename "$b")"
    "$b" --smoke --json-dir="$BENCH_JSON_DIR" > /dev/null
  done
  python3 scripts/validate_bench_json.py "$BENCH_JSON_DIR"
  echo "BENCH SMOKE PASSED"
  exit 0
fi

if [ "$CHAOS_SMOKE" = 1 ]; then
  echo "== chaos smoke: 16-seed fault-plan soak with recovery SLO =="
  # Fixed seed matrix (1..16, the wrt_chaos default): every run draws a
  # random FaultPlan from its seed, layers an ambient bursty channel, and
  # must reconverge within the analytic deadline with a clean invariant
  # audit.  Deterministic, so a failure here is a real regression.
  build/tools/wrt_chaos

  echo "== chaos smoke: replay each seed's printed plan with --plan =="
  # The text plan carries the whole schedule: a seed's --print-plan output
  # replayed through --plan must give the same --json result as the plan
  # drawn from the seed.
  REPLAY_DIR=build/chaos_replay
  rm -rf "$REPLAY_DIR"
  mkdir -p "$REPLAY_DIR"
  build/tools/wrt_chaos --print-plan |
    awk -v dir="$REPLAY_DIR" \
      '/^# seed /{file = dir "/seed" $3 ".fplan"} /^@/{print > file}'
  for plan in "$REPLAY_DIR"/seed*.fplan; do
    seed=$(basename "$plan" .fplan)
    seed=${seed#seed}
    diff <(build/tools/wrt_chaos --seeds "$seed" --json) \
      <(build/tools/wrt_chaos --seeds "$seed" --plan "$plan" --json)
  done
  echo "replayed $(ls "$REPLAY_DIR" | wc -l) plans identically"

  echo "== chaos smoke: 16-seed flapping-link matrix (RecoveryFsm A/B) =="
  # Every seed's flap-only plan runs twice — all-defaults recovery vs
  # guard+WTR+revertive — and the run gates on what the FSM must buy:
  # zero spurious cut-outs under the guard, strictly fewer ring
  # re-formations than baseline, and a p99 MTTR no worse.  The headline
  # numbers are published as schema-v1 BENCH_recovery_fsm.json.
  CHAOS_JSON_DIR=build/chaos_json
  rm -rf "$CHAOS_JSON_DIR"
  mkdir -p "$CHAOS_JSON_DIR"
  build/tools/wrt_chaos --flap-matrix --json-dir="$CHAOS_JSON_DIR"
  python3 scripts/validate_bench_json.py "$CHAOS_JSON_DIR"
  echo "CHAOS SMOKE PASSED"
  exit 0
fi

ctest --test-dir build --output-on-failure

if [ "$WITH_LINT" = 1 ]; then
  echo "== lint: wrt_lint =="
  # Everything that ships: library code, tools, benches and examples.
  # tests/ is read for name uses only (unreferenced-api counts a test's
  # call as a use); no rule reports in it, and wrt_lint skips the
  # deliberately rule-violating fixtures under tests/lint/fixtures.
  build/tools/wrt_lint src tools bench examples tests

  echo "== lint: suppression inventory =="
  # Fails on suppressions that name a rule wrt_lint does not implement.
  build/tools/wrt_lint --list-suppressions src tools bench examples tests

  # External analyzers are optional (not baked into every container); the
  # repo-specific linter above is the part that must always run and gate.
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy =="
    find src tools bench examples -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p build --quiet
  else
    echo "== lint: clang-tidy not installed, skipping =="
  fi

  if command -v cppcheck >/dev/null 2>&1; then
    echo "== lint: cppcheck =="
    cppcheck --enable=warning,performance,portability --inline-suppr \
      --suppressions-list=scripts/cppcheck.suppressions \
      --error-exitcode=1 --quiet -I src src tools bench examples
  else
    echo "== lint: cppcheck not installed, skipping =="
  fi
fi

if [ "$WITH_ASAN" = 1 ]; then
  echo "== ASan/UBSan build + tests =="
  SAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer"
  configure build-asan -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure

  echo "== ASan/UBSan chaos soak under the 64-slot audit =="
  # The auditor's 64-slot cadence compiles only into audit builds (no
  # NDEBUG); the RelWithDebInfo --chaos-smoke audits at membership events
  # alone.  This Debug build runs the 16-seed soak and the flap matrix
  # with the periodic audit on.
  build-asan/tools/wrt_chaos
  build-asan/tools/wrt_chaos --flap-matrix
fi

echo "== engine hot-path smoke =="
# Fixed-seed behaviour digest (deterministic) + a short throughput sample.
build/bench/bench_engine_hot_path --digest
build/bench/bench_engine_hot_path --benchmark_min_time=0.05 \
  --benchmark_filter='BM_HotPathSteadyState/32|BM_HotPathLossy/32' > /dev/null

echo "== benches =="
for b in build/bench/bench_*; do
  [ "$(basename "$b")" = bench_engine_hot_path ] && continue  # smoke above
  echo "--- $(basename "$b")"
  "$b" > /dev/null
done

echo "== examples =="
for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "--- $(basename "$e")"
  "$e" > /dev/null
done

echo "ALL CHECKS PASSED"

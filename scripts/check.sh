#!/usr/bin/env bash
# Tier-1 verification. Run from the repo root:
#
#   scripts/check.sh          # lint + plain build/tests + ASan+UBSan tree
#   scripts/check.sh fast     # lint + plain build/tests only
#   scripts/check.sh --lint   # project lint only (scripts/lint.py)
#   scripts/check.sh --tsan   # ThreadSanitizer tree only (build + tests,
#                             # suppressions from tsan.supp — kept empty;
#                             # see the policy note at its top)
#   scripts/check.sh --serve-smoke
#                             # build bench_serving, run a short low-QPS
#                             # open-loop pass (--smoke), and validate the
#                             # BENCH_serving.json schema
#   scripts/check.sh --mem-smoke
#                             # build bench_memory_budget, run the Small
#                             # world sweep (--smoke: compression ratio +
#                             # paged budget curve + engine bit-identity),
#                             # and validate the BENCH_memory.json schema
#   scripts/check.sh --mutation-smoke
#                             # build bench_mutation, run the Small-world
#                             # mixed read/write pass (--smoke: reads
#                             # during forced background merges + the
#                             # from-scratch-freeze equivalence check),
#                             # and validate the BENCH_mutation.json schema
#   scripts/check.sh --obs-smoke
#                             # wide-event telemetry end to end: run
#                             # bench_serving --smoke with the exposition
#                             # listener up, scrape /metricsz /statusz
#                             # /slo /eventz live, schema-check a scraped
#                             # wide event, then summarize the drained
#                             # JSONL with scripts/trace_summarize.py
#   scripts/check.sh --release-warnings
#                             # build every target in build-release with
#                             # -DCMAKE_BUILD_TYPE=Release and -Werror: -O3
#                             # inlining surfaces warnings (-Wrestrict,
#                             # -Wmismatched-new-delete) that the default
#                             # RelWithDebInfo build never reports
#   scripts/check.sh --ladder-smoke
#                             # bit-exact answers through the serving path:
#                             # run perfladder/run.py briefly on serve_zipf
#                             # and live_mixed and require its final JSON
#                             # line to report correct=true and failed=0
#   scripts/check.sh --fuzz-smoke
#                             # deterministic fuzzing layer under ASan+UBSan:
#                             # replay every committed corpus + regression
#                             # input, run a bounded fuzz pass per target,
#                             # and prove the planted canary bug is found
#                             # within its budget (fuzz/ — DESIGN.md §11)
#
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

run_lint() {
  echo "== project lint =="
  python3 scripts/lint.py
  echo "== committed bench artifacts =="
  python3 scripts/validate_bench.py BENCH_memory.json BENCH_mutation.json \
    BENCH_observability.json BENCH_serving.json
  echo "== trace_summarize golden =="
  python3 scripts/trace_summarize.py --top 3 tests/data/wide_events_golden.jsonl \
    | diff -u tests/data/wide_events_golden.txt -
}

run_plain() {
  echo "== plain build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  echo "== plain tests =="
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_asan() {
  echo "== ASan+UBSan build =="
  cmake -B build-asan -S . -DASAN=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  echo "== ASan+UBSan tests =="
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tsan() {
  echo "== TSan build =="
  cmake -B build-tsan -S . -DTSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS"
  echo "== TSan tests =="
  TSAN_OPTIONS="suppressions=$(pwd)/tsan.supp halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
}

run_release_warnings() {
  echo "== Release build, warnings as errors =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-release -j "$JOBS"
}

run_serve_smoke() {
  echo "== serving smoke (bench_serving --smoke) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_serving
  (cd build && ./bench/bench_serving --smoke)
  echo "== BENCH_serving.json schema =="
  python3 scripts/validate_bench.py build/BENCH_serving.json
}

run_mem_smoke() {
  echo "== memory-budget smoke (bench_memory_budget --smoke) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_memory_budget
  (cd build && ./bench/bench_memory_budget --smoke)
  echo "== BENCH_memory.json schema =="
  python3 scripts/validate_bench.py build/BENCH_memory.json
}

run_mutation_smoke() {
  echo "== live-mutation smoke (bench_mutation --smoke) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_mutation
  (cd build && ./bench/bench_mutation --smoke)
  echo "== BENCH_mutation.json schema =="
  python3 scripts/validate_bench.py build/BENCH_mutation.json
}

run_obs_smoke() {
  echo "== obs smoke (bench_serving --smoke --obs-port=0) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target bench_serving
  rm -f build/obs_smoke.log build/wide_events.jsonl
  (cd build && exec ./bench/bench_serving --smoke --obs-port=0 \
      --obs-events=wide_events.jsonl >obs_smoke.log 2>&1) &
  local bench_pid=$!
  # The exposition listener comes up before the expensive world build, so
  # the port line appears within seconds even on a slow box.
  local port=""
  for _ in $(seq 1 120); do
    port=$(sed -n 's/.*exposition listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        build/obs_smoke.log 2>/dev/null | head -1)
    [ -n "$port" ] && break
    kill -0 "$bench_pid" 2>/dev/null || break
    sleep 0.5
  done
  if [ -z "$port" ]; then
    echo "FAILED: exposition never reported a port" >&2
    cat build/obs_smoke.log >&2 || true
    kill "$bench_pid" 2>/dev/null || true
    exit 1
  fi
  echo "== live scrape on port $port =="
  if ! python3 scripts/obs_scrape_check.py "$port"; then
    cat build/obs_smoke.log >&2 || true
    kill "$bench_pid" 2>/dev/null || true
    exit 1
  fi
  if ! wait "$bench_pid"; then
    echo "FAILED: bench_serving exited non-zero" >&2
    cat build/obs_smoke.log >&2 || true
    exit 1
  fi
  tail -4 build/obs_smoke.log
  echo "== drained wide-event summary =="
  python3 scripts/trace_summarize.py --top 3 build/wide_events.jsonl
  echo "== BENCH_serving.json schema (with obs section) =="
  python3 scripts/validate_bench.py build/BENCH_serving.json
}

run_ladder_smoke() {
  local workload result
  for workload in serve_zipf live_mixed; do
    echo "== ladder smoke ($workload) =="
    result=$(python3 perfladder/run.py --workload "$workload" --seed 1 \
        --seconds 2 --trace 0 | tail -1)
    echo "$result"
    if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); \
        sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 \
        else 1)' "$result"; then
      echo "FAILED: $workload reported wrong or failed answers" >&2
      exit 1
    fi
  done
}

run_fuzz_smoke() {
  echo "== fuzz smoke (ASan+UBSan tree) =="
  cmake -B build-asan -S . -DASAN=ON >/dev/null
  local targets
  targets=$(python3 -c "import json; print(' '.join(sorted({e['target'] \
      for e in json.load(open('fuzz/registry.json'))['entries']})))")
  # shellcheck disable=SC2086
  cmake --build build-asan -j "$JOBS" --target $targets fuzz_canary
  echo "== corpus + regression replay, bounded pass per target =="
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R '^fuzz_.*_(replay|smoke)$'
  echo "== planted-bug canary =="
  ctest --test-dir build-asan --output-on-failure \
      -R '^fuzz_canary_finds_planted_bug$'
}

case "${1:-}" in
  --lint)
    run_lint
    echo "== OK (lint) =="
    ;;
  --release-warnings)
    run_release_warnings
    echo "== OK (release warnings) =="
    ;;
  --serve-smoke)
    run_serve_smoke
    echo "== OK (serve smoke) =="
    ;;
  --mem-smoke)
    run_mem_smoke
    echo "== OK (mem smoke) =="
    ;;
  --mutation-smoke)
    run_mutation_smoke
    echo "== OK (mutation smoke) =="
    ;;
  --obs-smoke)
    run_obs_smoke
    echo "== OK (obs smoke) =="
    ;;
  --ladder-smoke)
    run_ladder_smoke
    echo "== OK (ladder smoke) =="
    ;;
  --fuzz-smoke)
    run_fuzz_smoke
    echo "== OK (fuzz smoke) =="
    ;;
  --tsan)
    run_tsan
    echo "== OK (tsan) =="
    ;;
  fast)
    run_lint
    run_plain
    echo "== OK (fast: ASan/UBSan skipped) =="
    ;;
  "")
    run_lint
    run_plain
    run_asan
    echo "== OK =="
    ;;
  *)
    echo "usage: scripts/check.sh [fast|--lint|--tsan|--release-warnings|--serve-smoke|--mem-smoke|--mutation-smoke|--obs-smoke|--ladder-smoke|--fuzz-smoke]" >&2
    exit 2
    ;;
esac

#!/usr/bin/env bash
# Byte-flip corruption fuzz + HA concurrency checks under sanitizers.
# One sanitizer per invocation; CI runs each of the three once.
#
# address / undefined (address by default): configures a dedicated build
# tree with -DTIPSY_SANITIZE=<sanitizer> and runs the persistence format
# tests, the robustness suite (exhaustive single-byte-flip sweeps over
# the model bundle and row file formats), the HA suite (the same sweeps
# over the hour journal and snapshot formats, plus the crash/restore
# matrix), the incremental-retraining suite (day-shard algebra +
# snapshot v1/v2 warm starts), the observability suite, the serving core
# and the net suite. Every mutation must either load bit-identically or
# fail with a typed Status - never crash, leak, or over-allocate; the
# sanitizer turns any violation into a hard failure.
#
# thread: builds with -DTIPSY_SANITIZE=thread and runs the HA
# supervisor's concurrency tests (heartbeats from replica threads racing
# the query path's routing reads), the parallel substrate tests, the
# observability suite (concurrent metric writers racing registry
# scrapes), the serving-core epoch-swap suite (PredictShift readers
# racing ModelEpoch publishes - the lock-free model handoff), and the
# net suite (daemon listener threads, reads racing day-boundary ingest
# and a shipping standby's replay, /metrics scrapes racing retrains,
# reconnecting clients, the socket fault proxy's pump threads, and the
# wire-format byte-flip fuzz, all over real sockets); TSan turns any
# data race into a hard failure.
#
# Every pass runs even after an earlier one fails; the script prints a
# per-pass PASS/FAIL summary and exits non-zero if any pass failed.
#
#   tools/run_sanitized_fuzz.sh [address|undefined|thread]
set -uo pipefail

SANITIZER="${1:-address}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-${SANITIZER}"

# GCC 12's std::atomic<std::shared_ptr> lacks the TSan mutex
# annotations later libstdc++ releases carry; tools/tsan.supp silences
# that one library-internal report (see the file for the full story).
export TSAN_OPTIONS="suppressions=${ROOT}/tools/tsan.supp ${TSAN_OPTIONS:-}"

PASS_NAMES=()
PASS_RESULTS=()
FAILED=0

# run_pass <name> <command...>: runs the command, records PASS/FAIL, and
# keeps going so one failing suite cannot mask findings in the others.
run_pass() {
  local name="$1"
  shift
  echo "=== ${name} ==="
  if "$@"; then
    PASS_NAMES+=("${name}")
    PASS_RESULTS+=("PASS")
  else
    local status=$?
    PASS_NAMES+=("${name}")
    PASS_RESULTS+=("FAIL (exit ${status})")
    FAILED=1
  fi
}

# A build failure is fatal: there is nothing meaningful to run or report.
cmake -B "${BUILD}" -S "${ROOT}" -DTIPSY_SANITIZE="${SANITIZER}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo || exit 1

if [[ "${SANITIZER}" == "thread" ]]; then
  cmake --build "${BUILD}" -j --target ha_test parallel_test \
        obs_test serving_core_test net_test || exit 1
  run_pass "ha_test supervisor/heartbeat races under thread sanitizer" \
      "${BUILD}/tests/ha_test" \
      --gtest_filter='Supervisor.*:HeartbeatFaults.*'
  run_pass "parallel_test under thread sanitizer" \
      "${BUILD}/tests/parallel_test"
  run_pass "obs_test concurrent scrape races under thread sanitizer" \
      "${BUILD}/tests/obs_test"
  run_pass "serving_core_test epoch-swap races under thread sanitizer" \
      "${BUILD}/tests/serving_core_test" \
      --gtest_filter='ServingCoreTsan.*'
  run_pass "net_test daemon/client/proxy thread races under thread sanitizer" \
      "${BUILD}/tests/net_test"
else
  cmake --build "${BUILD}" -j --target robustness_test persistence_test \
        ha_test incremental_test obs_test serving_core_test net_test || exit 1
  run_pass "robustness_test (byte-flip fuzz) under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/robustness_test"
  run_pass "persistence_test under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/persistence_test"
  run_pass "ha_test (journal/snapshot fuzz + crash matrix) under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/ha_test"
  run_pass "incremental_test (day-shard algebra + snapshot warm starts) under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/incremental_test"
  run_pass "obs_test (metrics registry + trace spans) under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/obs_test"
  run_pass "serving_core_test (flat-table bit-identity + epoch swap) under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/serving_core_test"
  run_pass "net_test (wire fuzz + daemon/client/fault-proxy) under ${SANITIZER} sanitizer" \
      "${BUILD}/tests/net_test"
fi

echo
echo "=== sanitizer pass summary ==="
for i in "${!PASS_NAMES[@]}"; do
  printf '%-10s %s\n' "${PASS_RESULTS[$i]}" "${PASS_NAMES[$i]}"
done

if [[ "${FAILED}" -ne 0 ]]; then
  echo "FAIL: at least one sanitizer pass failed"
  exit 1
fi
echo "OK: no sanitizer findings"

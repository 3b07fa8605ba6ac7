#!/usr/bin/env bash
# AddressSanitizer (+UBSan) gate for the recovery path, the campaign
# supervisor, the snapshot engine and the storage types under them:
# builds the tree with -DII_SANITIZE=address,undefined and runs the
# memory-sensitive test binaries — the ReHype recovery walk re-derives
# frame-table state from live page tables, the rewind copies frames named
# by the dirty logs out of a baseline that stores only written frames, the
# frame store is one calloc'd block, the trace ring grows as events arrive,
# and trace files and spill records decode through the bounds-checked op
# record, which is exactly where a stale pointer or over-read would hide.
#
# Usage: bench/run_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"

TESTS=(hv_recovery_test core_supervisor_test core_campaign_trace_test
       hv_mmu_update_test hv_audit_exception_test core_chaos_test
       hv_guest_op_test core_fuzz_seq_test analysis_model_checker_test
       hv_snapshot_delta_property_test sim_phys_mem_test hv_snapshot_test
       obs_trace_test)

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DII_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TESTS[@]}"

status=0
for test_bin in "${TESTS[@]}"; do
  echo "== ASan: $test_bin"
  if ! "$BUILD_DIR/tests/$test_bin"; then
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "ASan run FAILED"
else
  echo "ASan run OK"
fi
exit "$status"

#!/usr/bin/env bash
# Sanitizer sweep for the concurrent datapath and the hostile-input parsers.
#
# Builds the COCO_SANITIZE CMake presets and runs the tests that exercise the
# code the sanitizers are aimed at:
#   thread  — TSan over the one datapath, ovs::RunScaleout: the lock-free
#             SPSC rings and their consumer-token handoff for work
#             stealing, the watchdog's stall-detect/kill/respawn of workers
#             with per-shard checkpoint restore, epoch rotation under load,
#             and the attack-detection/seed-rotation response on the worker
#             threads (ovs_test, obs_test, adversarial_test, scaleout_test);
#             plus the batched merge, the relaxed-atomic metrics registry,
#             the network-wide agent/collector transports and the SIMD
#             tier's process-default dispatch state (batch_test,
#             netwide_test, simd_test)
#   address — ASan+UBSan over the deserializers, fuzz loops, the snapshot
#             JSON reader, the frame/delta decoders, the SIMD kernels'
#             word loads against the padded SoA key plane, the hostile
#             trace generators, the overlapping tail loads of
#             hash::Hash64 / MultiHash on exact-length heap buffers, the
#             flat FlowTable's slot index and its word-level decode insert
#             path straight from the bucket arrays, the query path's
#             bounded top-k heap, the bucket-sketch core under both
#             variants' update rules and estimators, and the partial-key
#             pack/unpack offset arithmetic and memcpy on key buffers of
#             every full-key layout (fuzz_test, hash_test, cocosketch_test,
#             hw_cocosketch_test, query_test, sql_test, keys_test, v6_test
#             plus the same seven, for free)
#
# Usage:
#   scripts/run_sanitizers.sh            # both presets
#   scripts/run_sanitizers.sh thread     # just TSan
#   scripts/run_sanitizers.sh address    # just ASan+UBSan
set -euo pipefail
cd "$(dirname "$0")/.."

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

run_preset() {
  local preset="$1"
  shift
  local dir="build-${preset}san"
  echo "===== COCO_SANITIZE=${preset} ====="
  cmake -B "${dir}" -S . -DCOCO_SANITIZE="${preset}" >/dev/null
  cmake --build "${dir}" -j --target "$@" >/dev/null
  for t in "$@"; do
    echo "--- ${preset}: ${t}"
    "${dir}/tests/${t}"
  done
}

presets=("${1:-}")
if [[ -z "${presets[0]}" ]]; then
  presets=(thread address)
fi

for p in "${presets[@]}"; do
  case "$p" in
    thread) run_preset thread ovs_test batch_test obs_test netwide_test simd_test adversarial_test scaleout_test ;;
    address) run_preset address fuzz_test hash_test cocosketch_test hw_cocosketch_test query_test sql_test keys_test v6_test ovs_test batch_test obs_test netwide_test simd_test adversarial_test scaleout_test ;;
    *)
      echo "unknown preset '$p' (expected: thread | address)" >&2
      exit 2
      ;;
  esac
done

echo "All sanitizer runs passed."

#!/usr/bin/env bash
# The repo's one-command CI gate, in ten tiers:
#
#   1. tier-1: configure, build, full ctest — the bar every change must hold
#   2. perf smoke: the sim-core perf harness under NICSCHED_FAST=1 (schema
#      and throughput-nonzero hard-fail; speedup ratios informational on
#      loaded machines)
#   3. fault smoke: one-seed conservation invariant, same NICSCHED_FAST tier
#   4. rack smoke: ToR dispatch tests + the rack_sweep shape checks, same tier
#   5. tenant smoke: tenant dispatch/shim/conservation tests + the
#      tenant_isolation interference checks, same NICSCHED_FAST tier
#   6. parallel smoke: the sharded-engine determinism tier (serial
#      bit-identity + shard-count digest invariance), same NICSCHED_FAST tier
#   7. rdma smoke: the RDMA-assisted dispatch tier (rain acceptance tests,
#      the dispatch-path ablation and rain_sweep shape checks), same
#      NICSCHED_FAST tier
#   8. chaos smoke: the rack-scale fault-tolerance tier (chaos storms +
#      the rack_failover acceptance demo), same NICSCHED_FAST tier
#   9. perfbench self-test: every benchmark workload runs briefly, reports
#      the declared metrics, and reproduces its recorded outcome digests
#  10. sanitizer pass: the whole suite, every label, in a separate
#      ASan+UBSan build ($BUILD_DIR-asan) with UBSan fatal, under
#      NICSCHED_FAST=1
#
# Usage: tools/ci.sh [build-dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "==> tier-1: configure + build + full test suite"
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

echo "==> perf smoke (NICSCHED_FAST=1, ctest -L perf)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L perf --output-on-failure)

echo "==> fault smoke (NICSCHED_FAST=1, ctest -L fault)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L fault --output-on-failure)

echo "==> rack smoke (NICSCHED_FAST=1, ctest -L rack)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L rack --output-on-failure)

echo "==> tenant smoke (NICSCHED_FAST=1, ctest -L tenant)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L tenant --output-on-failure)

echo "==> parallel smoke (NICSCHED_FAST=1, ctest -L parallel)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L parallel --output-on-failure)

echo "==> rdma smoke (NICSCHED_FAST=1, ctest -L rdma)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L rdma --output-on-failure)

echo "==> chaos smoke (NICSCHED_FAST=1, ctest -L chaos)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L chaos --output-on-failure)

echo "==> perfbench self-test (outcome digests of every workload)"
python3 perfbench/selftest.py

echo "==> sanitizer pass: whole suite under ASan+UBSan"
cmake -B "$BUILD_DIR-asan" -S . -DNICSCHED_SANITIZE=ON
cmake --build "$BUILD_DIR-asan" -j
(cd "$BUILD_DIR-asan" && NICSCHED_FAST=1 ctest -j --output-on-failure)

echo "==> ci.sh: all tiers green"

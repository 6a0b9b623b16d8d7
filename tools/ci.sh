#!/usr/bin/env bash
# The repo's one-command CI gate, in eight tiers:
#
#   1. tier-1: configure with warnings as errors, build, full ctest — the
#      bar every change must hold — then print src/'s line count, the
#      number the ROADMAP tracks (informational, gates nothing)
#   2. fault smoke: one-seed conservation invariant under NICSCHED_FAST=1
#   3. rack smoke: ToR dispatch tests + the rack_sweep shape checks, same tier
#   4. tenant smoke: tenant dispatch/shim/conservation tests + the
#      tenant_isolation interference checks, same NICSCHED_FAST tier
#   5. rdma smoke: the RDMA-assisted dispatch tier (rain acceptance tests,
#      the dispatch-path ablation and rain_sweep shape checks), same
#      NICSCHED_FAST tier
#   6. chaos smoke: the rack-scale fault-tolerance tier (chaos storms +
#      the rack_failover acceptance demo), same NICSCHED_FAST tier
#   7. perfbench self-test: every benchmark workload runs briefly, reports
#      the declared metrics, and reproduces its recorded outcome digests
#   8. sanitizer pass: the whole suite, every label, in a separate
#      ASan+UBSan build ($BUILD_DIR-asan) with UBSan fatal, under
#      NICSCHED_FAST=1
#
# Usage: tools/ci.sh [build-dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "==> tier-1: configure (-Werror) + build + full test suite"
cmake -B "$BUILD_DIR" -S . -DNICSCHED_WERROR=ON
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)
echo "src/ lines (.h + .cpp): $(find src -name '*.h' -o -name '*.cpp' | xargs cat | wc -l)"

echo "==> fault smoke (NICSCHED_FAST=1, ctest -L fault)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L fault --output-on-failure)

echo "==> rack smoke (NICSCHED_FAST=1, ctest -L rack)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L rack --output-on-failure)

echo "==> tenant smoke (NICSCHED_FAST=1, ctest -L tenant)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L tenant --output-on-failure)

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

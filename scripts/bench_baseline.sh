#!/usr/bin/env bash
# Regenerates the committed perf baselines (BENCH_kernels.json,
# BENCH_sampler.json, and BENCH_serving.json).
#
# Builds the release preset, runs bench_kernels_baseline,
# bench_sampler_baseline, and bench_serving_baseline at full scale, and
# writes the JSON artifacts at the repo root with the current git sha
# stamped in. Perf PRs re-run this and commit the results so the kernel,
# sampler, and serving trajectories are visible in version control.
# Usage: scripts/bench_baseline.sh [kernels.json] [sampler.json] [serving.json]
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_kernels.json}"
SAMPLER_OUT="${2:-BENCH_sampler.json}"
SERVING_OUT="${3:-BENCH_serving.json}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake --preset release
cmake --build --preset release -j "${JOBS}" \
  --target bench_kernels_baseline --target bench_sampler_baseline \
  --target bench_serving_baseline

SHA="$(git rev-parse --short=12 HEAD)"
# An artifact built from uncommitted changes says so in its stamp.
git diff --quiet HEAD -- || SHA="${SHA}-dirty"
LIGHTNE_GIT_SHA="${SHA}" ./build/bench/bench_kernels_baseline "${OUT}"
LIGHTNE_GIT_SHA="${SHA}" ./build/bench/bench_sampler_baseline "${SAMPLER_OUT}"
LIGHTNE_GIT_SHA="${SHA}" ./build/bench/bench_serving_baseline "${SERVING_OUT}"

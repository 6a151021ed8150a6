#!/bin/sh
# Tier-1 CI: builds and runs the full test suite three times — plain,
# under AddressSanitizer + UBSan, and under ThreadSanitizer (the
# PANDA_SANITIZE cache option). The ASan pass catches what the
# fault-injection tests provoke on purpose: use-after-free across abort
# unwinding, buffer arithmetic in the checksum paths. The TSan pass
# polices the transport's fault machinery — the lossy/reliable layer,
# the kill injector and the failover protocol all touch cross-thread
# state that a data race would corrupt silently.
#
# Every test carries a ctest TIMEOUT (PANDA_TEST_TIMEOUT, default 120 s;
# raised for the ~10x-slower sanitizer builds), so a protocol bug that
# shows up as a hang — a rank blocked on a message that will never
# arrive — fails the suite instead of wedging CI. An explicit
# `ctest --timeout` backstop covers tests added without the property.
#
# Between the plain suite and the sanitizers, tools/bench.sh runs a
# quick Figure 4 sweep, guards the machine-readable bench schema
# (including the 1024-rank fiber scale bar), and archives one Chrome
# trace artifact (docs/OBSERVABILITY.md); a fiber-scheduler smoke runs
# the same workload at 1024 simulated ranks through the CLI surface
# (docs/SCHEDULER.md); then a budgeted panda_mc smoke exhausts the 2x2
# no-fault and bounded kill+drop decision spaces with zero invariant
# violations (docs/MODEL_CHECKING.md), and a perfbench smoke runs the
# repo benchmark end to end (perfbench/README.md).
#
# Static-analysis gates (docs/ANALYSIS.md):
#  * tools/lint.sh runs BEFORE any compile: clang-format and clang-tidy
#    when installed (skipped loudly otherwise — the container bakes in
#    only g++), plus panda_lint and panda_proto (tools/analyze) always —
#    the project-invariant linter and the protocol-conformance analyzer
#    need nothing but a C++ compiler.
#  * The plain suite builds with -DPANDA_WERROR=ON: warnings are errors
#    in CI, advisory on developer machines.
#  * A fourth suite builds with -DPANDA_HB=ON: the vector-clock
#    happens-before checker is compiled in, hb_race_test's machine-level
#    tests arm it, and a protocol-level ordering bug fails CI here
#    before it ever becomes a seed-dependent flake.
#
#   tools/ci.sh [--skip-sanitizers]
set -eu

SKIP_SAN=""
[ "${1:-}" = "--skip-sanitizers" ] && SKIP_SAN=1

JOBS="$(nproc 2>/dev/null || echo 4)"

run_suite() {
  build_dir="$1"
  timeout_s="$2"
  shift 2
  cmake -B "$build_dir" -S . "-DPANDA_TEST_TIMEOUT=$timeout_s" "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"         --timeout "$timeout_s"
}

echo "== lint (pre-build)"
tools/lint.sh

echo "== plain build + tests (-Werror)"
run_suite build-ci 120 -DPANDA_WERROR=ON

echo "== panda_lint (CMake-built binary over the full tree)"
cmake --build build-ci -j "$JOBS" --target panda_lint
build-ci/tools-analyze/panda_lint --root=.

echo "== panda_proto (protocol conformance over the full tree)"
# The cross-TU analyzer gates at -Werror severity: zero unsuppressed
# findings, findings archived as a CI artifact, and the checked-in
# protocol diagram must match the spec it was generated from
# (docs/ANALYSIS.md).
cmake --build build-ci -j "$JOBS" --target panda_proto
mkdir -p build-ci/artifacts
build-ci/tools-analyze/panda_proto --root=. \
    --json_out=build-ci/artifacts/PROTO_findings.json
build-ci/tools-analyze/panda_proto --root=. --dot=build-ci/proto.dot
diff -u docs/protocol_diagram.dot build-ci/proto.dot

echo "== header hygiene (every src/ header compiles standalone)"
cmake --build build-ci -j "$JOBS" --target header_compile_test

if command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy (compile_commands.json from build-ci)"
  tools/lint.sh --tidy build-ci build-ci/tools-analyze/panda_lint \
      build-ci/tools-analyze/panda_proto
fi

echo "== smoke bench + schema check"
# Runs the Figure 4 quick sweep, writes BENCH_fig4_smoke.json and a
# Chrome trace, and fails on panda_bench schema drift
# (docs/OBSERVABILITY.md). The trace is the CI run's archived
# observability artifact.
tools/bench.sh build-ci build-ci/bench-out
mkdir -p build-ci/artifacts
cp build-ci/bench-out/TRACE_fig4_smoke.json \
   build-ci/bench-out/BENCH_fig4_smoke.json build-ci/artifacts/
echo "archived artifacts: build-ci/artifacts/"

echo "== fiber scheduler smoke (--ranks=1024 --sched=fiber)"
# The event-driven rank scheduler (docs/SCHEDULER.md) at CI scale: the
# CLI surface runs the weak-scaled fig4 write collective at 1024 total
# ranks multiplexed onto a handful of OS threads. tools/bench.sh above
# already guards the bench JSON row for the same point
# (BENCH_scale_ranks.json); this stage exercises the Machine/CLI path.
build-ci/examples/sp2_experiment --ranks=1024 --sched=fiber

echo "== panda_mc smoke (docs/MODEL_CHECKING.md)"
# Budgeted model-checker smoke, ~15 s total. Three configs:
#  1. the 2x2 no-fault space — must EXHAUST with zero violations and
#     exactly one terminal state (the clean run);
#  2. a bounded kill+drop space (both servers killable across their
#     first six sends, two-fault budget; ~2.2k runs, ~8 s) — must
#     exhaust with zero violations. A protocol regression in the
#     failover/abort paths shows up here as a minimized
#     counter-schedule in the CI log.
#  3. the closed fault loop: kill the non-master i/o node anywhere in a
#     wide send window, rejoin it after the degraded commit, and allow a
#     RE-kill inside the rejoin run (the window reaches the rejoin run's
#     send ordinals because they keep counting across the revive). Must
#     exhaust with zero violations — this is the kill -> rejoin ->
#     re-kill space from docs/PROTOCOL.md's rejoin section.
# The >=10k-interleaving acceptance sweep is a manual run (too slow
# for CI); its corpus pins live in tests/schedules/ via mc_replay_test.
MC=build-ci/tools-mc/panda_mc
$MC --budget=50 > build-ci/mc_nofault.txt
grep -q "space exhausted" build-ci/mc_nofault.txt
grep -q "no invariant violations" build-ci/mc_nofault.txt
grep -q " 1 distinct states" build-ci/mc_nofault.txt
$MC --kill=0,1 --kill_lo=0 --kill_hi=6 --actions=drop --max_faults=2 \
    --budget=12000 --json_out=build-ci/artifacts/MC_smoke.json \
    > build-ci/mc_faulty.txt
grep -q "space exhausted" build-ci/mc_faulty.txt
grep -q "no invariant violations" build-ci/mc_faulty.txt
$MC --kill=1 --kill_lo=0 --kill_hi=40 --max_kills=2 --rejoin \
    --budget=2000 --json_out=build-ci/artifacts/MC_rejoin_smoke.json \
    > build-ci/mc_rejoin.txt
grep -q "space exhausted" build-ci/mc_rejoin.txt
grep -q "no invariant violations" build-ci/mc_rejoin.txt
echo "panda_mc smoke OK"

echo "== perfbench smoke (perfbench/README.md)"
# The repo benchmark at smoke length, through its own build of src/.
# durable-codec (traced) restarts byte-exactly through the codec, the
# shard tables' checksums and the journal, and checks determinism and
# traced-vs-untraced identity; natural-aix (untraced) cross-checks the
# paper's Figure 3/4 numbers; reorg-fastdisk (untraced) is the only
# workload whose sender and receiver both checksum reorganized pieces,
# so its byte-exact reads run through the CRC32C kernel the host's CPU
# selects. run.py exits non-zero on any failed collective, mismatching
# read or determinism violation.
python3 perfbench/run.py --workload durable-codec --seed 1 --seconds 2 \
    --trace 1 > build-ci/artifacts/PERF_durable_codec.json
python3 perfbench/run.py --workload natural-aix --seed 1 --seconds 2 \
    --trace 0 > build-ci/artifacts/PERF_natural_aix.json
python3 perfbench/run.py --workload reorg-fastdisk --seed 1 --seconds 2 \
    --trace 0 > build-ci/artifacts/PERF_reorg_fastdisk.json
echo "perfbench smoke OK"

if [ -z "$SKIP_SAN" ]; then
  # Sanitizer passes build with tracing compiled in (PANDA_TRACE=ON is
  # the default, passed explicitly so a default flip cannot silently
  # shrink sanitizer coverage of the span/metrics hot paths).
  echo "== asan/ubsan build + tests"
  run_suite build-ci-asan 600 "-DPANDA_SANITIZE=address;undefined" \
            -DPANDA_TRACE=ON
  echo "== tsan build + tests"
  run_suite build-ci-tsan 600 "-DPANDA_SANITIZE=thread" -DPANDA_TRACE=ON

  # TSan polices C++-level data races; the happens-before build polices
  # PROTOCOL-level ones — individually-synchronized accesses whose order
  # the message graph does not fix (docs/ANALYSIS.md).
  echo "== happens-before build + tests"
  run_suite build-ci-hb 240 -DPANDA_HB=ON -DPANDA_WERROR=ON
fi

echo "CI OK"

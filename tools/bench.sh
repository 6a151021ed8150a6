#!/bin/sh
# Smoke bench + schema guard: runs the Figure 4 bench in --quick mode,
# writes the machine-readable outputs, and fails if the stable
# panda_bench JSON schema (docs/OBSERVABILITY.md, schema_version 5)
# drifts — downstream dashboards and the CI artifact step parse it.
# Then runs the codec ablation: the same figure with --codec=shuffle+rle
# on real compressible data must move fewer wire and disk bytes AND
# finish faster than codec=none (the compression pipeline's acceptance
# bar), or the script fails. Then runs the shard-store/backend bench
# (bench_shard_backend) and asserts its two acceptance bars: the
# advisor-chosen shard size beats per-sub-chunk objects by >= 2x
# elapsed on the object store, and posix sharded stays within 5% of
# the flat layout. Finally the rank-scheduler scale bar: the fig4
# workload at 1024 total ranks under --sched=fiber must complete
# (docs/SCHEDULER.md) and report its row at ranks=1024, and at 4096
# ranks its printed peak RSS must stay within 2 GB.
#
#   tools/bench.sh [BUILD_DIR] [OUT_DIR]
#
# BUILD_DIR defaults to ./build (must already contain the bench
# binaries); OUT_DIR defaults to BUILD_DIR/bench-out. Writes
# BENCH_fig4_smoke.json, TRACE_fig4_smoke.json, the ablation pair
# BENCH_fig4_codec_{none,shuffle_rle}.json, BENCH_shard_backend.json,
# BENCH_scale_ranks.json and scale_ranks_4096.txt.
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$BUILD_DIR/bench-out}"
BIN="$BUILD_DIR/bench/bench_fig4_write_natural"

if [ ! -x "$BIN" ]; then
  echo "bench.sh: missing $BIN (build the repo first)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
JSON="$OUT_DIR/BENCH_fig4_smoke.json"
TRACE="$OUT_DIR/TRACE_fig4_smoke.json"

"$BIN" --quick --json_out="$JSON" --trace_out="$TRACE"

# --- schema drift check -------------------------------------------------
# Every key of schema_version 5 must be present, spelled exactly.
fail=0
for key in \
    '"schema_version":5' \
    '"kind":"panda_bench"' \
    '"bench":' \
    '"description":' \
    '"op":' \
    '"codec":' \
    '"quick":' \
    '"reps":' \
    '"rows":[' \
    '"io_nodes":' \
    '"size_mb":' \
    '"elapsed_s":' \
    '"aggregate_Bps":' \
    '"per_ion_Bps":' \
    '"normalized":' \
    '"wire_bytes_sent":' \
    '"disk_bytes_written":' \
    '"codec_ratio":' \
    '"disk_ops":' \
    '"label":' \
    '"ranks":' \
    '"sched_backend":' \
    '"spans":' \
    '"metrics":' \
    '"counters":'; do
  if ! grep -qF "$key" "$JSON"; then
    echo "bench.sh: SCHEMA DRIFT — missing $key in $JSON" >&2
    fail=1
  fi
done

# The trace artifact must be a Chrome trace_event JSON with per-rank
# tracks and complete events.
for key in '"traceEvents":[' '"thread_name"' '"ph":"X"' '"ts":' '"dur":'; do
  if ! grep -qF "$key" "$TRACE"; then
    echo "bench.sh: TRACE DRIFT — missing $key in $TRACE" >&2
    fail=1
  fi
done

[ "$fail" -eq 0 ] || exit 1

# --- codec ablation ------------------------------------------------------
# Same figure, real compressible data, codec off vs on. The first row of
# each run is the same (io_nodes, size_mb) point; shuffle+rle must
# reduce wire bytes, disk bytes and elapsed against none.
NONE_JSON="$OUT_DIR/BENCH_fig4_codec_none.json"
CODED_JSON="$OUT_DIR/BENCH_fig4_codec_shuffle_rle.json"
"$BIN" --quick --codec=none --json_out="$NONE_JSON" > /dev/null
"$BIN" --quick --codec=shuffle+rle --json_out="$CODED_JSON" > /dev/null

first_field() {  # first_field FILE KEY -> first numeric value of "KEY":
  sed -n "s/.*\"$2\":\([0-9.eE+-]*\).*/\1/p" "$1" | head -n 1
}

for key in elapsed_s wire_bytes_sent disk_bytes_written; do
  none_v="$(first_field "$NONE_JSON" "$key")"
  coded_v="$(first_field "$CODED_JSON" "$key")"
  if [ -z "$none_v" ] || [ -z "$coded_v" ]; then
    echo "bench.sh: ABLATION — missing $key in ablation JSON" >&2
    fail=1
  elif ! awk -v a="$coded_v" -v b="$none_v" 'BEGIN{exit !(a < b)}'; then
    echo "bench.sh: ABLATION — $key not improved (none=$none_v, shuffle+rle=$coded_v)" >&2
    fail=1
  fi
done

[ "$fail" -eq 0 ] || exit 1

# --- shard store x backend ----------------------------------------------
# bench_shard_backend writes labeled rows (schema_version 4): the same
# write collective over {flat, sharded} x {posix, objectstore}. Two
# acceptance bars guard the shard subsystem:
#   1. object store: the advisor-chosen shard size beats the naive
#      one-object-per-sub-chunk mapping by >= 2x elapsed;
#   2. posix: the sharded layout stays within 5% of the flat baseline.
SHARD_BIN="$BUILD_DIR/bench/bench_shard_backend"
SHARD_JSON="$OUT_DIR/BENCH_shard_backend.json"
if [ ! -x "$SHARD_BIN" ]; then
  echo "bench.sh: missing $SHARD_BIN (build the repo first)" >&2
  exit 1
fi
"$SHARD_BIN" --quick --json_out="$SHARD_JSON"

row_elapsed() {  # row_elapsed FILE LABEL -> that row's "elapsed_s" value
  # `label` precedes the row's only nested object (`spans`), so after
  # splitting on '{' each row's scalars and label share one line.
  tr '{' '\n' < "$1" | grep -F "\"label\":\"$2\"" \
    | sed -n 's/.*"elapsed_s":\([0-9.eE+-]*\).*/\1/p' | head -n 1
}

flat_v="$(row_elapsed "$SHARD_JSON" "posix flat")"
sharded_v="$(row_elapsed "$SHARD_JSON" "posix sharded advisor")"
naive_v="$(row_elapsed "$SHARD_JSON" "object per-subchunk")"
advised_v="$(row_elapsed "$SHARD_JSON" "object advisor")"
for v in "$flat_v" "$sharded_v" "$naive_v" "$advised_v"; do
  if [ -z "$v" ]; then
    echo "bench.sh: SHARD — missing labeled row in $SHARD_JSON" >&2
    exit 1
  fi
done
if ! awk -v naive="$naive_v" -v adv="$advised_v" \
    'BEGIN{exit !(naive >= 2.0 * adv)}'; then
  echo "bench.sh: SHARD — advisor not >=2x vs per-subchunk objects" \
       "(per-subchunk=$naive_v, advisor=$advised_v)" >&2
  fail=1
fi
if ! awk -v flat="$flat_v" -v sh="$sharded_v" \
    'BEGIN{exit !(sh <= 1.05 * flat)}'; then
  echo "bench.sh: SHARD — posix sharded not within 5% of flat" \
       "(flat=$flat_v, sharded=$sharded_v)" >&2
  fail=1
fi

[ "$fail" -eq 0 ] || exit 1

# --- rank-scheduler scale bar --------------------------------------------
# The fig4 workload at 1024 total ranks must complete under
# --sched=fiber (docs/SCHEDULER.md). bench_scale_ranks records the
# backend that actually ran in every row (v5 sched_backend) — a build
# without fiber support falls back to the thread backend and says so,
# which this stage tolerates; what it does NOT tolerate is the 1024-rank
# point failing to finish or its row going missing.
SCALE_BIN="$BUILD_DIR/bench/bench_scale_ranks"
SCALE_JSON="$OUT_DIR/BENCH_scale_ranks.json"
if [ ! -x "$SCALE_BIN" ]; then
  echo "bench.sh: missing $SCALE_BIN (build the repo first)" >&2
  exit 1
fi
"$SCALE_BIN" --ranks=1024 --sched=fiber --json_out="$SCALE_JSON"
for key in '"ranks":1024' '"sched_backend":'; do
  if ! grep -qF "$key" "$SCALE_JSON"; then
    echo "bench.sh: SCALE — missing $key in $SCALE_JSON" >&2
    fail=1
  fi
done
scale_v="$(first_field "$SCALE_JSON" elapsed_s)"
if [ -z "$scale_v" ]; then
  echo "bench.sh: SCALE — missing elapsed_s in $SCALE_JSON" >&2
  fail=1
fi
# Every rank holds only its share of the geometry (clients their
# ClientView, copies of a Schema one shared chunk table), so 4096 ranks
# must fit in 2 GB. rss_mb is the sixth column of the printed row.
SCALE4K_OUT="$OUT_DIR/scale_ranks_4096.txt"
"$SCALE_BIN" --ranks=4096 --sched=fiber > "$SCALE4K_OUT"
rss_4k="$(awk '$1 == 4096 { print $6 }' "$SCALE4K_OUT")"
if [ -z "$rss_4k" ]; then
  echo "bench.sh: SCALE — missing the 4096-rank row in $SCALE4K_OUT" >&2
  fail=1
elif ! awk -v rss="$rss_4k" 'BEGIN{exit !(rss <= 2048)}'; then
  echo "bench.sh: SCALE — 4096 ranks peaked at $rss_4k MB (> 2048 MB)" >&2
  fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "bench.sh OK: $JSON $TRACE $NONE_JSON $CODED_JSON $SHARD_JSON $SCALE_JSON" \
     "$SCALE4K_OUT"

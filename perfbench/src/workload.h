// The benchmark's workloads and the closed loop that runs them.
//
// Every workload is one SPMD application on a simulated SP2 running on
// the fiber backend with a fixed carrier pool. A session builds the
// machine, runs one cold cycle of collectives (plan construction, file
// creation) as set-up, then runs whole cycles in a closed loop — each
// client starts its next collective as soon as its previous one
// returns — until the host deadline, and finally reports both clocks:
// per-collective virtual elapsed (the paper's metric) and per-collective
// host wall time (what the simulator costs).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "counting_fs.h"
#include "panda/panda.h"
#include "trace/trace.h"

namespace perfbench {

// Carrier threads of the fiber backend: at most the host's core count,
// so host time measures Panda rather than the OS scheduler.
inline constexpr int kCarriers = 4;

// Virtual-time throughputs are medians over the first this-many cycles
// of the timed loop. Every cycle costs the same virtual time, but clocks
// keep growing and the rounding of a collective's elapsed time depends
// on their magnitude; a fixed window keeps the medians bit-identical
// whatever the host speed and the loop length.
inline constexpr int kVirtualCycles = 3;

struct WorkloadSpec {
  std::string name;
  int clients = 8;
  panda::Shape cn_mesh;
  int io_nodes = 4;
  std::int64_t size_mb = 0;  // {size_mb, 512, 512} 4-byte elements
  bool traditional = false;  // BLOCK,*,* disk schema over the i/o nodes
  bool fast_disk = false;
  bool real_data = false;    // payloads move and reads are verified
  panda::CodecId codec = panda::CodecId::kNone;
  // Cycle: timestep, timestep, checkpoint, restart, with disk checksums
  // and the chunk journal on. Otherwise: write, read back.
  bool durable = false;
  // Per-rank span ring of the traced run; the traced loop is capped so
  // that it never overflows.
  std::size_t trace_ring = 1 << 15;
  // Cross-check the measured throughputs against the figure harness's
  // methodology (thread backend, fresh machine).
  bool check_figures = false;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

panda::Sp2Params ParamsFor(const WorkloadSpec& spec);
panda::ArrayMeta MetaFor(const WorkloadSpec& spec);

// One collective of a cycle.
struct CycleOp {
  bool write = true;
  bool verify = false;  // a read whose bytes are compared
};
std::vector<CycleOp> CycleOps(const WorkloadSpec& spec);

// The workload's application state: per-client array handles and, for
// real-data workloads, two seeded fills (alternating cycles write
// different bytes, so a stale read cannot pass) and a restore buffer.
// Built once per process and shared by every session.
class AppData {
 public:
  AppData(const WorkloadSpec& spec, std::uint64_t seed);

  panda::Array& fill(int client, int parity) {
    return fills_[static_cast<std::size_t>(parity)][static_cast<std::size_t>(
        client)];
  }
  panda::Array& restore(int client) {
    return restore_[static_cast<std::size_t>(client)];
  }
  // The element value of fill 0 at a global row-major offset; also the
  // codec micro-benchmark's input for workloads without payloads.
  static std::uint32_t FillValue(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::int64_t linear);

 private:
  std::array<std::vector<panda::Array>, 2> fills_;
  std::vector<panda::Array> restore_;
};

// Deterministic outcome of one stretch of collectives: what must be
// bit-identical across repetitions and between traced and untraced runs.
struct Probe {
  std::vector<double> vt;  // per collective, max over clients (virtual s)
  std::int64_t messages = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t disk_ops = 0;
  std::int64_t disk_bytes_written = 0;
  bool operator==(const Probe&) const = default;
};

struct SessionOptions {
  bool traced = false;
  double seconds = 0.0;     // host budget of the timed loop
  bool setup_only = false;  // stop after the cold cycle
};

using SpanSeconds = std::array<double, panda::trace::kNumSpanKinds>;

// Everything one machine lifetime measured.
struct SessionResult {
  double setup_s = 0.0;
  Probe setup_probe;  // the cold cycle
  Probe timed_probe;  // the timed loop (shutdown traffic excluded)
  int collectives = 0;  // timed collectives (whole cycles)
  int failed = 0;       // collectives with a mismatching read
  // Host ms per collective, one sample per timed cycle after the first.
  std::vector<double> host_ms;
  double busy_vs = 0.0;  // max over i/o nodes of modeled device time
  std::int64_t seeks = 0;
  // Scheduler counters of the timed loop.
  std::int64_t context_switches = 0;
  std::int64_t parks = 0;
  panda::RobustnessCounters robustness;  // whole session
  SpanSeconds span_s{};  // timed loop, traced sessions only
  std::int64_t spans_dropped = 0;
  Tallies tallies{};  // traced sessions only
};

// Builds a machine and runs one session. Throws on a failed collective
// (the transport rethrows the first rank error).
SessionResult RunSession(const WorkloadSpec& spec, AppData& data,
                         const SessionOptions& options);

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// The figure harness's measurement of the workload's write and read
// (thread backend, fresh machine, one warm-up write first), for the
// figure cross-check. Returns {write_s, read_s}.
std::array<double, 2> FigureReference(const WorkloadSpec& spec);

}  // namespace perfbench

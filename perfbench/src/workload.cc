#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>

#include "sched/sched.h"

namespace perfbench {

using panda::Array;
using panda::ArrayMeta;
using panda::CollectiveRequest;
using panda::DimDist;
using panda::Endpoint;
using panda::FileSystem;
using panda::IoOp;
using panda::Machine;
using panda::PandaClient;
using panda::Purpose;
using panda::Schema;
using panda::Shape;
using panda::Sp2Params;
using panda::World;
using Clock = std::chrono::steady_clock;

namespace {

// Fill 1 is fill 0 with every byte XORed by one constant. That maps
// equal bytes to equal bytes wherever a codec moves them (shuffle
// planes, run boundaries between planes), so both fills encode to
// frames of exactly the same size: alternating them keeps every cycle
// bit-identical in virtual time and byte counts while still making a
// stale read detectable.
constexpr std::uint32_t kParityMask = 0xA5A5A5A5u;

// The durable workload's ArrayGroup-style naming (one group, one
// metadata file on the master i/o node).
constexpr char kGroup[] = "durable";
constexpr char kGroupMeta[] = "durable.schema";

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Writes fill `parity` of `array`'s local region (row-major over the
// region, one innermost run at a time).
void FillLocal(const WorkloadSpec& spec, std::uint64_t seed, int parity,
               Array& array) {
  const panda::Region& cell = array.local_region();
  if (cell.empty()) return;
  std::span<std::byte> out = array.local_data();
  const Shape& shape = array.shape();
  const int rank = cell.rank();
  const std::int64_t row = cell.extent()[rank - 1];
  Shape outer = cell.extent();
  outer[rank - 1] = 1;
  panda::Index off = panda::Index::Zeros(rank);
  const std::uint32_t mask = parity == 0 ? 0u : kParityMask;
  std::size_t n = 0;
  do {
    std::int64_t linear = 0;
    for (int d = 0; d < rank; ++d) {
      linear = linear * shape[d] + (cell.lo()[d] + off[d]);
    }
    for (std::int64_t i = 0; i < row; ++i, ++n) {
      const std::uint32_t v = AppData::FillValue(spec, seed, linear + i) ^ mask;
      std::memcpy(out.data() + n * sizeof(v), &v, sizeof(v));
    }
  } while (panda::NextIndexRowMajor(outer, off));
}

bool SameBytes(const Array& a, const Array& b) {
  const auto x = a.local_data();
  const auto y = b.local_data();
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size()) == 0);
}

panda::RobustnessCounters& operator+=(panda::RobustnessCounters& a,
                                      const panda::RobustnessCounters& b) {
  a.io_retries += b.io_retries;
  a.io_giveups += b.io_giveups;
  a.wire_checksum_failures += b.wire_checksum_failures;
  a.disk_checksum_failures += b.disk_checksum_failures;
  a.disk_checksum_rereads += b.disk_checksum_rereads;
  a.collectives_aborted += b.collectives_aborted;
  a.failovers_completed += b.failovers_completed;
  a.chunks_adopted += b.chunks_adopted;
  a.journal_records_written += b.journal_records_written;
  a.frame_rereads += b.frame_rereads;
  a.frame_decode_failures += b.frame_decode_failures;
  a.rejoins_completed += b.rejoins_completed;
  a.chunks_restored += b.chunks_restored;
  a.journal_gc_truncations += b.journal_gc_truncations;
  a.journal_records_salvaged += b.journal_records_salvaged;
  return a;
}

// Shared state of one closed-loop phase. Clients agree on when to stop
// without exchanging messages: the first client to finish a cycle
// decides for everyone (continue, or stop once the host deadline has
// passed), and the rest read that verdict. The last client to finish a
// collective stamps its host end time.
class Loop {
 public:
  Loop(int clients, int per_cycle, int max_cycles, int min_cycles,
       Clock::time_point deadline)
      : clients_(clients),
        max_cycles_(max_cycles),
        min_cycles_(min_cycles),
        deadline_(deadline),
        arrivals_(std::make_unique<std::atomic<int>[]>(
            static_cast<std::size_t>(max_cycles * per_cycle))),
        verdicts_(std::make_unique<std::atomic<int>[]>(
            static_cast<std::size_t>(max_cycles))),
        end_(static_cast<std::size_t>(max_cycles * per_cycle)),
        vt_(static_cast<std::size_t>(clients)),
        mismatched_(static_cast<std::size_t>(clients)) {}

  // Client `c` finished collective `index` with virtual elapsed `vt`.
  void Arrive(int c, int index, double vt, bool mismatch) {
    const Clock::time_point t = Clock::now();
    vt_[static_cast<std::size_t>(c)].push_back(vt);
    if (mismatch) mismatched_[static_cast<std::size_t>(c)].push_back(index);
    if (arrivals_[static_cast<std::size_t>(index)].fetch_add(
            1, std::memory_order_acq_rel) == clients_ - 1) {
      end_[static_cast<std::size_t>(index)] = t;
    }
  }

  // Called by every client after its last collective of `cycle`.
  bool Stop(int cycle) {
    int want = 1;
    if (cycle + 1 >= max_cycles_ ||
        (cycle + 1 >= min_cycles_ && Clock::now() >= deadline_)) {
      want = 2;
    }
    int seen = 0;
    if (verdicts_[static_cast<std::size_t>(cycle)].compare_exchange_strong(
            seen, want, std::memory_order_acq_rel)) {
      seen = want;
    }
    return seen == 2;
  }

  // Post-run views (after the machine's Run has joined).
  int collectives() const { return static_cast<int>(vt_[0].size()); }
  Clock::time_point end(int index) const {
    return end_[static_cast<std::size_t>(index)];
  }
  std::vector<double> MaxOverClients() const {
    std::vector<double> out(static_cast<std::size_t>(collectives()), 0.0);
    for (const auto& per_client : vt_) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = std::max(out[i], per_client[i]);
      }
    }
    return out;
  }
  // Collectives in which at least one client read mismatching bytes.
  int Mismatches() const {
    std::set<int> failed;
    for (const auto& per_client : mismatched_) {
      failed.insert(per_client.begin(), per_client.end());
    }
    return static_cast<int>(failed.size());
  }

 private:
  int clients_;
  int max_cycles_;
  int min_cycles_;
  Clock::time_point deadline_;
  std::unique_ptr<std::atomic<int>[]> arrivals_;
  std::unique_ptr<std::atomic<int>[]> verdicts_;  // 0 open, 1 go, 2 stop
  std::vector<Clock::time_point> end_;            // written once each
  std::vector<std::vector<double>> vt_;           // per client
  std::vector<std::vector<int>> mismatched_;      // per client: indices
};

// Runs collective `i` (`op`) of a cycle on one client; returns its
// virtual elapsed time and sets `mismatch` when a verified read differs.
double RunOp(const WorkloadSpec& spec, const CycleOp& op, AppData& data,
             PandaClient& client, int c, int i, int parity, bool& mismatch) {
  Array& expected = data.fill(c, parity);
  Array& target = op.write ? expected : data.restore(c);
  double vt = 0.0;
  if (!spec.durable) {
    vt = op.write ? client.WriteArray(target) : client.ReadArray(target);
  } else {
    // timestep 0 <- fill p, timestep 1 <- fill 1-p, checkpoint <- fill
    // p, restart -> restore (compared against fill p).
    CollectiveRequest req;
    req.group = kGroup;
    req.meta_file = kGroupMeta;
    req.op = op.write ? IoOp::kWrite : IoOp::kRead;
    req.purpose = i < 2 ? Purpose::kTimestep : Purpose::kCheckpoint;
    req.seq = i < 2 ? i : (i == 2 ? 2 : 0);
    Array* arrays[1] = {i == 1 ? &data.fill(c, 1 - parity) : &target};
    vt = client.Execute(std::move(req), arrays);
  }
  mismatch = op.verify && !SameBytes(target, expected);
  return vt;
}

Probe Snapshot(Machine& machine, std::vector<double> vt) {
  Probe p;
  p.vt = std::move(vt);
  const panda::MsgStats msg = machine.transport().TotalStats();
  p.messages = msg.messages_sent;
  p.wire_bytes = msg.bytes_sent;
  for (int s = 0; s < machine.num_servers(); ++s) {
    const panda::FsStats& fs = machine.server_fs(s).stats();
    p.disk_ops += fs.reads + fs.writes + fs.syncs;
    p.disk_bytes_written += fs.bytes_written;
  }
  return p;
}

// Virtual seconds recorded per span kind, all ranks summed.
SpanSeconds RecordedSpanSeconds(const Machine& machine) {
  SpanSeconds out{};
  if (const panda::trace::Collector* collector = machine.trace_collector()) {
    const auto aggregates = collector->AggregateByKind();
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = aggregates[k].total_s;
    }
  }
  return out;
}

// Most spans any one rank recorded since the collector's last reset.
std::int64_t MaxSpansPerRank(const Machine& machine) {
  const panda::trace::Collector* collector = machine.trace_collector();
  std::int64_t most = 0;
  for (int r = 0; collector != nullptr && r < collector->nranks(); ++r) {
    std::int64_t n = 0;
    for (std::size_t k = 0; k < panda::trace::kNumSpanKinds; ++k) {
      n += collector->recorder(r).aggregate(
                                     static_cast<panda::trace::SpanKind>(k))
               .count;
    }
    most = std::max(most, n);
  }
  return most;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    {
      WorkloadSpec s;
      // Figures 3/4: disk-bound, only the message path costs host time.
      // Bypasses mdarray, codec, journal and store, and guards the
      // paper's figures (check_figures).
      s.name = "natural-aix";
      s.clients = 8;
      s.cn_mesh = Shape{2, 2, 2};
      s.io_nodes = 4;
      s.size_mb = 512;
      s.trace_ring = 1 << 17;
      s.check_figures = true;
      w.push_back(s);
    }
    {
      WorkloadSpec s;
      // Figure 9: the disk is free, so the network and the strided
      // reorganization set virtual time and real copies set host time.
      s.name = "reorg-fastdisk";
      s.clients = 16;
      s.cn_mesh = Shape{4, 2, 2};
      s.io_nodes = 4;
      s.size_mb = 64;
      s.traditional = true;
      s.fast_disk = true;
      s.real_data = true;
      s.trace_ring = 1 << 16;
      w.push_back(s);
    }
    {
      WorkloadSpec s;
      // The only workload where the codec, the journal, `.crc` sidecars
      // and `.fdx` directories do work: appends, overwrites, restarts.
      s.name = "durable-codec";
      s.clients = 8;
      s.cn_mesh = Shape{2, 2, 2};
      s.io_nodes = 4;
      s.size_mb = 32;
      s.real_data = true;
      s.codec = panda::CodecId::kShuffleRle;
      s.durable = true;
      s.trace_ring = 1 << 16;
      w.push_back(s);
    }
    {
      WorkloadSpec s;
      // Figure 4 weak-scaled to 1024 ranks (one 1 MB plane per client):
      // the scheduler, plan construction and per-rank state dominate.
      s.name = "scale-1024";
      s.clients = 896;
      s.cn_mesh = Shape{896, 1, 1};
      s.io_nodes = 128;
      s.size_mb = 896;
      s.trace_ring = 1 << 13;
      w.push_back(s);
    }
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Sp2Params ParamsFor(const WorkloadSpec& spec) {
  return spec.fast_disk ? Sp2Params::NasFastDisk() : Sp2Params::Nas();
}

ArrayMeta MetaFor(const WorkloadSpec& spec) {
  // The paper's array shape: {mb, 512, 512} 4-byte elements, so every
  // dim-0 plane is exactly 1 MB.
  const Shape shape{spec.size_mb, 512, 512};
  ArrayMeta meta;
  meta.name = "field";
  meta.elem_size = 4;
  meta.memory = Schema(shape, panda::Mesh(spec.cn_mesh),
                       std::vector<DimDist>(3, DimDist::Block()));
  meta.disk = spec.traditional
                  ? Schema(shape, panda::Mesh(Shape{spec.io_nodes}),
                           {DimDist::Block(), DimDist::None(), DimDist::None()})
                  : meta.memory;
  meta.codec = spec.codec;
  return meta;
}

std::vector<CycleOp> CycleOps(const WorkloadSpec& spec) {
  const bool verify = spec.real_data;
  if (spec.durable) {
    return {{true, false}, {true, false}, {true, false}, {false, verify}};
  }
  return {{true, false}, {false, verify}};
}

std::uint32_t AppData::FillValue(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::int64_t linear) {
  const auto i = static_cast<std::uint64_t>(linear);
  if (spec.codec == panda::CodecId::kNone && spec.real_data) {
    // Incompressible: a seeded hash of the element's position.
    return static_cast<std::uint32_t>(SplitMix64(seed ^ (i * 0x2545F4914F6CDD1Dull)));
  }
  // A smooth seeded field (each value repeated over 4 neighbours): the
  // regular scientific data shuffle+rle is built for.
  return static_cast<std::uint32_t>(SplitMix64(seed)) +
         static_cast<std::uint32_t>(i >> 2);
}

AppData::AppData(const WorkloadSpec& spec, std::uint64_t seed) {
  const ArrayMeta meta = MetaFor(spec);
  const int parities = spec.real_data ? 2 : 1;
  for (int p = 0; p < parities; ++p) {
    fills_[static_cast<std::size_t>(p)].reserve(
        static_cast<std::size_t>(spec.clients));
  }
  if (spec.real_data) restore_.reserve(static_cast<std::size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    for (int p = 0; p < parities; ++p) {
      Array& a = fills_[static_cast<std::size_t>(p)].emplace_back(
          meta.name, meta.elem_size, meta.memory, meta.disk);
      a.set_codec(meta.codec);
      a.BindClient(c, spec.real_data);
      if (spec.real_data) FillLocal(spec, seed, p, a);
    }
    if (spec.real_data) {
      Array& r =
          restore_.emplace_back(meta.name, meta.elem_size, meta.memory, meta.disk);
      r.set_codec(meta.codec);
      r.BindClient(c, true);
    }
  }
  if (!spec.real_data) {
    // Timing-only: one unallocated handle per client serves every role.
    fills_[1] = fills_[0];
    restore_ = fills_[0];
  }
}

SessionResult RunSession(const WorkloadSpec& spec, AppData& data,
                         const SessionOptions& options) {
  const Sp2Params params = ParamsFor(spec);
  const World world{spec.clients, spec.io_nodes};
  const std::vector<CycleOp> ops = CycleOps(spec);
  const int per_cycle = static_cast<int>(ops.size());
  SessionResult result;

  const Clock::time_point t0 = Clock::now();
  Machine machine =
      Machine::Simulated(spec.clients, spec.io_nodes, params,
                         /*store_data=*/spec.real_data,
                         /*timing_only=*/!spec.real_data);
  machine.SetSchedBackend(panda::sched::Backend::kFiber, kCarriers);
  panda::ServerOptions server_options;
  server_options.disk_checksums = spec.durable;
  server_options.journal = spec.durable;
  server_options.robustness = &machine.robustness();
  std::vector<std::unique_ptr<CountingFileSystem>> counting;
  if (options.traced) {
    panda::trace::TraceOptions trace_options;
    trace_options.ring_capacity = spec.trace_ring;
    machine.EnableTrace(trace_options);
    for (int s = 0; s < spec.io_nodes; ++s) {
      counting.push_back(
          std::make_unique<CountingFileSystem>(machine.server_fs(s)));
    }
  }
  auto server_fs = [&](int s) -> FileSystem& {
    return options.traced ? static_cast<FileSystem&>(
                                *counting[static_cast<std::size_t>(s)])
                          : machine.server_fs(s);
  };
  auto server_main = [&](Endpoint& ep, int s) {
    panda::ServerMain(ep, server_fs(s), world, params, server_options);
  };

  // Clients outlive the individual runs so their plan caches stay warm.
  std::vector<std::unique_ptr<PandaClient>> clients(
      static_cast<std::size_t>(spec.clients));
  int cycles_done = 0;  // fill parity continues across runs
  auto run_loop = [&](Loop& loop) {
    const int base = cycles_done;
    machine.Run(
        [&](Endpoint& ep, int c) {
          auto& slot = clients[static_cast<std::size_t>(c)];
          if (!slot) {
            slot = std::make_unique<PandaClient>(ep, world, params);
            slot->set_robustness(&machine.robustness());
          }
          for (int cycle = 0;; ++cycle) {
            const int parity = (base + cycle) % 2;
            for (int i = 0; i < per_cycle; ++i) {
              bool mismatch = false;
              const double vt =
                  RunOp(spec, ops[static_cast<std::size_t>(i)], data, *slot, c,
                        i, parity, mismatch);
              loop.Arrive(c, cycle * per_cycle + i, vt, mismatch);
            }
            if (loop.Stop(cycle)) break;
          }
          if (c == 0) slot->Shutdown();
        },
        server_main);
    cycles_done += loop.collectives() / per_cycle;
    result.failed += loop.Mismatches();
  };

  // Set-up: the cold cycle (plan construction, file creation).
  {
    Loop setup(spec.clients, per_cycle, 1, 1, Clock::now());
    run_loop(setup);
    result.setup_s = std::chrono::duration<double>(setup.end(0) - t0).count();
    result.setup_probe = Snapshot(machine, setup.MaxOverClients());
  }
  result.robustness += machine.robustness().Snapshot();
  if (options.setup_only) return result;

  // The traced loop stops well before any rank's span ring could wrap
  // (the cold cycle tells how many spans a cycle records), so the
  // per-layer sums and the exported spans are complete.
  int max_cycles = 1 << 15;
  if (options.traced) {
    const std::int64_t cycle_spans =
        std::max<std::int64_t>(1, MaxSpansPerRank(machine));
    const auto fit = static_cast<std::int64_t>(spec.trace_ring) * 4 / 5 /
                     cycle_spans;
    max_cycles = static_cast<int>(
        std::clamp<std::int64_t>(fit, kVirtualCycles + 1, max_cycles));
  }
  auto reset = [&] {
    machine.ResetClocksAndStats();
    if (auto* collector = machine.trace_collector()) collector->Reset();
    for (auto& fs : counting) fs->ResetTallies();
  };
  reset();

  // The timed closed loop. Its first cycle re-warms the servers' plan
  // caches (a new run restarts the server loops), so host samples start
  // at the second cycle.
  const panda::sched::Stats sched_before = machine.sched_stats();
  Loop timed(spec.clients, per_cycle, max_cycles, kVirtualCycles + 1,
             Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(options.seconds)));
  run_loop(timed);
  result.context_switches =
      machine.sched_stats().context_switches - sched_before.context_switches;
  result.parks = machine.sched_stats().parks - sched_before.parks;

  result.collectives = timed.collectives();
  result.timed_probe = Snapshot(machine, timed.MaxOverClients());
  // One host sample per cycle (its wall time per collective): a cycle
  // mixes collectives of different host cost, and a median over the
  // individual collectives would fall between their clusters.
  for (int last = 2 * per_cycle - 1; last < result.collectives;
       last += per_cycle) {
    result.host_ms.push_back(
        std::chrono::duration<double, std::milli>(timed.end(last) -
                                                  timed.end(last - per_cycle))
            .count() /
        per_cycle);
  }
  for (int s = 0; s < spec.io_nodes; ++s) {
    const panda::FsStats& fs = machine.server_fs(s).stats();
    result.busy_vs = std::max(result.busy_vs, fs.busy_seconds);
    result.seeks += fs.seeks;
  }
  result.span_s = RecordedSpanSeconds(machine);
  if (const auto* collector = machine.trace_collector()) {
    result.spans_dropped = collector->TotalDropped();
  }
  for (const auto& fs : counting) {
    for (std::size_t k = 0; k < kNumFileClasses; ++k) {
      const ClassTally& t = fs->tallies()[k];
      result.tallies[k].ops += t.ops;
      result.tallies[k].calls += t.calls;
      result.tallies[k].bytes_written += t.bytes_written;
      result.tallies[k].host_s += t.host_s;
    }
  }
  result.robustness += machine.robustness().Snapshot();

  // The timed run ended with a shutdown request. Measure that traffic
  // alone and take it out, so per-collective counts are exact whatever
  // the number of cycles.
  reset();
  machine.Run(
      [&](Endpoint&, int c) {
        if (c == 0) clients[0]->Shutdown();
      },
      server_main);
  const Probe shutdown = Snapshot(machine, {});
  result.timed_probe.messages -= shutdown.messages;
  result.timed_probe.wire_bytes -= shutdown.wire_bytes;
  result.timed_probe.disk_ops -= shutdown.disk_ops;
  result.timed_probe.disk_bytes_written -= shutdown.disk_bytes_written;
  const SpanSeconds shutdown_span_s = RecordedSpanSeconds(machine);
  for (std::size_t k = 0; k < panda::trace::kNumSpanKinds; ++k) {
    result.span_s[k] -= shutdown_span_s[k];
  }
  return result;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::array<double, 2> FigureReference(const WorkloadSpec& spec) {
  const Sp2Params params = ParamsFor(spec);
  const ArrayMeta meta = MetaFor(spec);
  const World world{spec.clients, spec.io_nodes};
  Machine machine = Machine::Simulated(spec.clients, spec.io_nodes, params,
                                       /*store_data=*/false,
                                       /*timing_only=*/true);
  std::vector<double> write_s(static_cast<std::size_t>(spec.clients));
  std::vector<double> read_s(static_cast<std::size_t>(spec.clients));
  machine.Run(
      [&](Endpoint& ep, int c) {
        PandaClient client(ep, world, params);
        Array array(meta.name, meta.elem_size, meta.memory, meta.disk);
        array.BindClient(c, /*allocate=*/false);
        client.WriteArray(array);  // warm-up: the files exist afterwards
        write_s[static_cast<std::size_t>(c)] = client.WriteArray(array);
        read_s[static_cast<std::size_t>(c)] = client.ReadArray(array);
        if (c == 0) client.Shutdown();
      },
      [&](Endpoint& ep, int s) {
        panda::ServerMain(ep, machine.server_fs(s), world, params);
      });
  return {panda::MaxOverRanks(write_s), panda::MaxOverRanks(read_s)};
}

}  // namespace perfbench

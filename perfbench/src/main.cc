// panda_perfbench: the repository's benchmark program.
//
//   panda_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// --trace=0 measures the end-to-end metrics with tracing off; --trace=1
// runs an untraced and a traced session of the same workload plus the
// layer micro-timings and reports the per-layer metrics. Human-readable
// notes go to stdout as '#' lines; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero whenever a collective failed, a read-back differed, or a
// deterministic metric was not bit-identical where it must be.
//
// Host wall time is this program's subject, so it reads steady_clock
// throughout.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "trace/export.h"
#include "util/options.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace tr = panda::trace;

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The run's verdict and its metrics, printed as the final JSON line.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      problems.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({name, value, unit});
  }
  void Require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool correct() const { return failed == 0 && problems.empty(); }

  std::string Json() const {
    std::string out = "{\"correct\":";
    out += correct() ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) out += ",";
      out += "\"" + tr::JsonEscape(metrics[i].name) + "\":{\"value\":" +
             tr::JsonDouble(metrics[i].value) + ",\"unit\":\"" +
             tr::JsonEscape(metrics[i].unit) + "\"}";
    }
    out += "}}";
    return out;
  }
};

// The deterministic end-to-end metrics of one session's timed loop:
// pure functions of virtual time and exact counts, so they must be
// bit-identical across repetitions, cycle counts and trace arming.
struct Deterministic {
  double write_MiBps = 0.0;
  double read_MiBps = 0.0;
  double wire_bytes_per_byte = 0.0;
  double disk_bytes_per_byte = 0.0;
  double disk_ops_per_collective = 0.0;
  double messages_per_collective = 0.0;
  bool operator==(const Deterministic&) const = default;
};

Deterministic Derive(const WorkloadSpec& spec, const SessionResult& s) {
  const std::vector<CycleOp> ops = CycleOps(spec);
  const auto user_bytes = static_cast<double>(MetaFor(spec).total_bytes());
  std::vector<double> writes;
  std::vector<double> reads;
  const std::size_t window = std::min<std::size_t>(
      s.timed_probe.vt.size(), kVirtualCycles * ops.size());
  for (std::size_t i = 0; i < window; ++i) {
    (ops[i % ops.size()].write ? writes : reads).push_back(s.timed_probe.vt[i]);
  }
  const auto n = static_cast<double>(s.collectives);
  const auto write_ops = static_cast<double>(
      std::count_if(ops.begin(), ops.end(), [](const CycleOp& op) {
        return op.write;
      }));
  const double written_bytes =
      n / static_cast<double>(ops.size()) * write_ops * user_bytes;
  const double mib = static_cast<double>(panda::kMiB);
  Deterministic d;
  d.write_MiBps = user_bytes / Median(writes) / mib;
  d.read_MiBps = user_bytes / Median(reads) / mib;
  d.wire_bytes_per_byte =
      static_cast<double>(s.timed_probe.wire_bytes) / (n * user_bytes);
  d.disk_bytes_per_byte =
      static_cast<double>(s.timed_probe.disk_bytes_written) / written_bytes;
  d.disk_ops_per_collective = static_cast<double>(s.timed_probe.disk_ops) / n;
  d.messages_per_collective = static_cast<double>(s.timed_probe.messages) / n;
  return d;
}

// Percentile by nearest rank over sorted samples.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// The host tail: p90, or the highest whole percentile that still has
// at least ten samples beyond it.
void PrintHostSummary(const char* label, const std::vector<double>& host_ms) {
  const auto n = static_cast<double>(host_ms.size());
  std::printf("# %s host ms/collective: p50 %.4f over %zu samples", label,
              Median(host_ms), host_ms.size());
  if (n > 10) {
    const double p = std::min(90.0, std::floor(100.0 * (n - 10.0) / n));
    std::printf(", tail p%.0f %.4f", p, Percentile(host_ms, p));
  }
  std::printf("\n");
}

int Collectives(const WorkloadSpec& spec, const SessionResult& s) {
  return static_cast<int>(CycleOps(spec).size()) + s.collectives;
}

void CheckSetupProbe(Report& report, const SessionResult& first,
                     const SessionResult& other, const char* what) {
  report.Require(other.setup_probe == first.setup_probe,
                 std::string("cold cycle not bit-identical: ") + what);
}

void ReportEndToEnd(const WorkloadSpec& spec, std::uint64_t seed,
                    double seconds, AppData& data, Report& report) {
  // Set-up is timed several times and reported as a median: sessions
  // that stop after the cold cycle, then the measured session's own.
  std::vector<SessionResult> setups;
  const Clock::time_point t0 = Clock::now();
  constexpr int kMaxSetups = 15;
  while (setups.size() + 1 < kMaxSetups &&
         (setups.size() < 4 ||
          std::chrono::duration<double>(Clock::now() - t0).count() <
              0.2 * seconds)) {
    SessionOptions opt;
    opt.setup_only = true;
    setups.push_back(RunSession(spec, data, opt));
    report.attempted += Collectives(spec, setups.back());
    report.failed += setups.back().failed;
  }
  SessionOptions opt;
  opt.seconds = seconds;
  const SessionResult s = RunSession(spec, data, opt);
  report.attempted += Collectives(spec, s);
  report.failed += s.failed;

  std::vector<double> setup_s = {s.setup_s};
  for (const SessionResult& r : setups) {
    setup_s.push_back(r.setup_s);
    CheckSetupProbe(report, s, r, "repeated set-up");
  }

  const Deterministic d = Derive(spec, s);
  if (spec.check_figures) {
    const auto ref = FigureReference(spec);
    report.attempted += 3;
    const auto bytes = static_cast<double>(MetaFor(spec).total_bytes());
    const double mib = static_cast<double>(panda::kMiB);
    std::printf(
        "# figure harness: write %.17g MiB/s, read %.17g MiB/s; closed loop: "
        "write %.17g MiB/s, read %.17g MiB/s\n",
        bytes / ref[0] / mib, bytes / ref[1] / mib, d.write_MiBps,
        d.read_MiBps);
    // Equal up to the rounding of elapsed times taken at different
    // clock magnitudes.
    auto same = [](double a, double b) {
      return std::fabs(a - b) <= 1e-9 * std::fabs(b);
    };
    report.Require(same(d.write_MiBps, bytes / ref[0] / mib),
                   "write_MiBps differs from the figure harness");
    report.Require(same(d.read_MiBps, bytes / ref[1] / mib),
                   "read_MiBps differs from the figure harness");
  }

  std::printf("# %s seed=%llu: %d timed collectives, %zu set-ups\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              s.collectives, setup_s.size());
  PrintHostSummary("untraced", s.host_ms);
  report.Add("write_MiBps", d.write_MiBps, "MiB/s");
  report.Add("read_MiBps", d.read_MiBps, "MiB/s");
  report.Add("wire_bytes_per_byte", d.wire_bytes_per_byte, "B/B");
  report.Add("disk_bytes_per_byte", d.disk_bytes_per_byte, "B/B");
  report.Add("disk_ops_per_collective", d.disk_ops_per_collective, "count");
  report.Add("host_ms_p50", Median(s.host_ms), "ms");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
}

double SpanPerCollective(const SessionResult& s, tr::SpanKind kind) {
  return s.span_s[static_cast<std::size_t>(kind)] /
         static_cast<double>(s.collectives);
}

void ReportPerLayer(const WorkloadSpec& spec, std::uint64_t seed,
                    double seconds, AppData& data, Report& report) {
  SessionOptions plain;
  plain.seconds = 0.35 * seconds;
  const SessionResult u = RunSession(spec, data, plain);
  report.attempted += Collectives(spec, u);
  report.failed += u.failed;
  SessionOptions traced = plain;
  traced.traced = true;
  const SessionResult t = RunSession(spec, data, traced);
  report.attempted += Collectives(spec, t);
  report.failed += t.failed;

  // Tracing and the counting file system only observe.
  CheckSetupProbe(report, u, t, "traced vs untraced");
  report.Require(Derive(spec, t) == Derive(spec, u),
                 "timed-loop metrics differ between traced and untraced runs");
  std::int64_t fs_ops = 0;
  std::int64_t fs_written = 0;
  std::int64_t fs_calls = 0;
  double fs_host_s = 0.0;
  for (const ClassTally& c : t.tallies) {
    fs_ops += c.ops;
    fs_written += c.bytes_written;
    fs_calls += c.ops + c.calls;
    fs_host_s += c.host_s;
  }
  report.Require(fs_ops == t.timed_probe.disk_ops &&
                     fs_written == t.timed_probe.disk_bytes_written,
                 "counting file system disagrees with the disk statistics");

  std::printf("# %s seed=%llu: %d untraced + %d traced timed collectives\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              u.collectives, t.collectives);
  PrintHostSummary("untraced", u.host_ms);
  PrintHostSummary("traced", t.host_ms);

  const auto n = static_cast<double>(t.collectives);
  const auto un = static_cast<double>(u.collectives);
  // sp2, plan, sched
  report.Add("sp2.machine_build_ms", MachineBuildMs(spec), "ms");
  const PlanTiming plan = PlanBuild(spec);
  report.Add("plan.build_ms", plan.build_ms, "ms");
  report.Add("plan.pieces", static_cast<double>(plan.pieces), "count");
  report.Add("sched.context_switches_per_collective",
             static_cast<double>(u.context_switches) / un, "count");
  report.Add("sched.parks_per_collective",
             static_cast<double>(u.parks) / un, "count");
  report.Add("sched.spawn_join_ms", SpawnJoinMs(spec), "ms");
  // msg
  report.Add("msg.messages_per_collective",
             static_cast<double>(t.timed_probe.messages) / n, "count");
  report.Add("msg.wire_bytes_per_collective",
             static_cast<double>(t.timed_probe.wire_bytes) / n, "B");
  report.Add("msg.pingpong_us", PingPongUs(spec), "us");
  report.Add("vt.transport.send_s",
             SpanPerCollective(t, tr::SpanKind::kTransportSend), "s");
  report.Add("vt.transport.recv_s",
             SpanPerCollective(t, tr::SpanKind::kTransportRecv), "s");
  // mdarray
  const CopyRates copy = PackUnpack(spec);
  report.Add("mdarray.pack_GiBps", copy.pack_GiBps, "GiB/s");
  report.Add("mdarray.unpack_GiBps", copy.unpack_GiBps, "GiB/s");
  report.Add("vt.client.pack_s",
             SpanPerCollective(t, tr::SpanKind::kClientPack), "s");
  report.Add("vt.client.unpack_s",
             SpanPerCollective(t, tr::SpanKind::kClientUnpack), "s");
  report.Add("vt.server.assemble_s",
             SpanPerCollective(t, tr::SpanKind::kServerAssemble), "s");
  // codec
  const CodecRates codec = CodecRoundTrip(spec, seed);
  report.Add("codec.encode_MiBps", codec.encode_MiBps, "MiB/s");
  report.Add("codec.decode_MiBps", codec.decode_MiBps, "MiB/s");
  report.Add("codec.ratio", codec.ratio, "B/B");
  report.Add("vt.codec.encode_s",
             SpanPerCollective(t, tr::SpanKind::kCodecEncode), "s");
  report.Add("vt.codec.decode_s",
             SpanPerCollective(t, tr::SpanKind::kCodecDecode), "s");
  // iosim
  for (std::size_t k = 0; k < kNumFileClasses; ++k) {
    const std::string cls = FileClassName(static_cast<FileClass>(k));
    report.Add("iosim.ops." + cls, static_cast<double>(t.tallies[k].ops) / n,
               "count");
    report.Add("iosim.bytes." + cls,
               static_cast<double>(t.tallies[k].bytes_written) / n, "B");
  }
  report.Add("iosim.host_us_per_op",
             fs_calls > 0 ? fs_host_s * 1e6 / static_cast<double>(fs_calls)
                          : 0.0,
             "us");
  report.Add("iosim.busy_vs", t.busy_vs / n, "s");
  report.Add("iosim.seeks", static_cast<double>(t.seeks) / n, "count");
  report.Add("vt.server.write_s",
             SpanPerCollective(t, tr::SpanKind::kServerWrite), "s");
  report.Add("vt.server.read_s",
             SpanPerCollective(t, tr::SpanKind::kServerRead), "s");
  // panda server/client
  report.Add("vt.server.plan_s",
             SpanPerCollective(t, tr::SpanKind::kServerPlan), "s");
  report.Add("vt.server.pull_s",
             SpanPerCollective(t, tr::SpanKind::kServerPull), "s");
  report.Add("vt.client.collective_s",
             SpanPerCollective(t, tr::SpanKind::kClientCollective), "s");
  report.Add("vt.journal.append_s",
             SpanPerCollective(t, tr::SpanKind::kJournalAppend), "s");
  const panda::RobustnessCounters& rb = u.robustness;
  const panda::RobustnessCounters& rt = t.robustness;
  const std::pair<const char*, std::int64_t> robustness[] = {
      {"robustness.io_retries", rb.io_retries + rt.io_retries},
      {"robustness.disk_checksum_rereads",
       rb.disk_checksum_rereads + rt.disk_checksum_rereads},
      {"robustness.disk_checksum_failures",
       rb.disk_checksum_failures + rt.disk_checksum_failures},
      {"robustness.wire_checksum_failures",
       rb.wire_checksum_failures + rt.wire_checksum_failures},
      {"robustness.frame_rereads", rb.frame_rereads + rt.frame_rereads},
      {"robustness.collectives_aborted",
       rb.collectives_aborted + rt.collectives_aborted},
  };
  for (const auto& [name, value] : robustness) {
    report.Add(name, static_cast<double>(value), "count");
  }
  // store
  report.Add("vt.store.flush_s",
             SpanPerCollective(t, tr::SpanKind::kStoreFlush), "s");
  report.Add("vt.store.get_s", SpanPerCollective(t, tr::SpanKind::kStoreGet),
             "s");
  // trace
  report.Add("trace.overhead_frac", Median(t.host_ms) / Median(u.host_ms),
             "ratio");
  report.Add("trace.spans_dropped", static_cast<double>(t.spans_dropped),
             "count");
  report.Require(t.spans_dropped == 0, "span ring overflowed");
}

int Main(int argc, char** argv) {
  panda::Options opts(argc, argv);
  const std::string name = opts.GetString("workload", "");
  const auto seed = static_cast<std::uint64_t>(opts.GetInt("seed", 1));
  const double seconds = opts.GetDouble("seconds", 10.0);
  const std::int64_t trace = opts.GetInt("trace", 0);
  opts.CheckAllConsumed();
  const WorkloadSpec* spec = FindWorkload(name);
  if (spec == nullptr) {
    std::string known;
    for (const WorkloadSpec& w : Workloads()) known += " " + w.name;
    std::fprintf(stderr, "error: unknown --workload '%s' (known:%s)\n",
                 name.c_str(), known.c_str());
    return 2;
  }
  PANDA_REQUIRE(seconds > 0.0, "--seconds must be positive");
  PANDA_REQUIRE(trace == 0 || trace == 1, "--trace must be 0 or 1");

  Report report;
  try {
    AppData data(*spec, seed);
    if (trace == 0) {
      ReportEndToEnd(*spec, seed, seconds, data, report);
    } else {
      ReportPerLayer(*spec, seed, seconds, data, report);
    }
  } catch (const std::exception& e) {
    // A collective threw (the transport rethrows the first rank error).
    report.attempted += 1;
    report.failed += 1;
    report.problems.push_back(std::string("collective failed: ") + e.what());
  }
  std::printf("# failed_frac %lld/%lld\n", static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));
  for (const std::string& p : report.problems) {
    std::printf("# FAILED: %s\n", p.c_str());
  }
  if (!report.correct()) report.metrics.clear();
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

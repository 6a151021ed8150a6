#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "mdarray/strided_copy.h"
#include "sched/sched.h"

namespace perfbench {

using panda::Endpoint;
using panda::Machine;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median host milliseconds of `reps` calls of `fn`.
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return Median(ms);
}

// Repeats `pass` (which returns the seconds it measured and adds the
// bytes it moved) until at least `min_s` and 3 passes have elapsed;
// returns the median per-pass rate in bytes/s.
double MedianRate(double min_s, const std::function<double(double&)>& pass) {
  std::vector<double> rates;
  const Clock::time_point t0 = Clock::now();
  while (rates.size() < 3 || SecondsSince(t0) < min_s) {
    double bytes = 0.0;
    const double s = pass(bytes);
    rates.push_back(bytes / std::max(s, 1e-9));
  }
  return Median(rates);
}

Machine BuildMachine(const WorkloadSpec& spec) {
  Machine m = Machine::Simulated(spec.clients, spec.io_nodes, ParamsFor(spec),
                                 /*store_data=*/spec.real_data,
                                 /*timing_only=*/!spec.real_data);
  m.SetSchedBackend(panda::sched::Backend::kFiber, kCarriers);
  return m;
}

constexpr double kMinRateSeconds = 0.15;

}  // namespace

double MachineBuildMs(const WorkloadSpec& spec) {
  return MedianMs(5, [&] { (void)BuildMachine(spec); });
}

PlanTiming PlanBuild(const WorkloadSpec& spec) {
  const panda::ArrayMeta meta = MetaFor(spec);
  const std::int64_t subchunk = ParamsFor(spec).subchunk_bytes;
  PlanTiming t;
  t.build_ms = MedianMs(5, [&] {
    const panda::IoPlan plan(meta, spec.io_nodes, subchunk);
    t.pieces = plan.TotalPieces();
  });
  return t;
}

double SpawnJoinMs(const WorkloadSpec& spec) {
  Machine machine = BuildMachine(spec);
  const auto nothing = [](Endpoint&, int) {};
  return MedianMs(5, [&] { machine.Run(nothing, nothing); });
}

double PingPongUs(const WorkloadSpec& spec) {
  constexpr int kRoundTrips = 20000;
  Machine machine = Machine::Simulated(1, 1, ParamsFor(spec),
                                       /*store_data=*/false,
                                       /*timing_only=*/true);
  machine.SetSchedBackend(panda::sched::Backend::kFiber, kCarriers);
  constexpr int kTag = panda::kTagApp;
  std::vector<double> us;
  for (int rep = 0; rep < 3; ++rep) {
    double seconds = 0.0;
    machine.Run(
        [&](Endpoint& ep, int) {
          const Clock::time_point t0 = Clock::now();
          for (int i = 0; i < kRoundTrips; ++i) {
            panda::Message ping;
            ping.header.resize(16);
            ep.Send(1, kTag, std::move(ping));
            (void)ep.Recv(1, kTag);
          }
          seconds = SecondsSince(t0);
        },
        [&](Endpoint& ep, int) {
          for (int i = 0; i < kRoundTrips; ++i) {
            panda::Message pong = ep.Recv(0, kTag);
            ep.Send(0, kTag, std::move(pong));
          }
        });
    us.push_back(seconds * 1e6 / kRoundTrips);
  }
  return Median(us);
}

CopyRates PackUnpack(const WorkloadSpec& spec) {
  const panda::ArrayMeta meta = MetaFor(spec);
  const panda::IoPlan plan(meta, spec.io_nodes, ParamsFor(spec).subchunk_bytes);
  const auto elem = static_cast<std::size_t>(meta.elem_size);
  const panda::Region cell = meta.memory.CellRegion(0);
  std::vector<std::byte> client(static_cast<std::size_t>(cell.Volume()) * elem,
                                std::byte{0x5a});
  const auto& steps = plan.StepsOfClient(0);
  std::int64_t max_piece = 1;
  std::int64_t max_sub = 1;
  for (const panda::ClientStep& step : steps) {
    max_piece = std::max(max_piece, plan.piece(step).bytes);
    max_sub = std::max(max_sub, plan.subchunk(step).bytes);
  }
  std::vector<std::byte> piece(static_cast<std::size_t>(max_piece));
  std::vector<std::byte> sub(static_cast<std::size_t>(max_sub));

  CopyRates rates;
  rates.pack_GiBps =
      MedianRate(kMinRateSeconds, [&](double& bytes) {
        double s = 0.0;
        for (const panda::ClientStep& step : steps) {
          const panda::PiecePlan& p = plan.piece(step);
          const auto n = static_cast<std::size_t>(p.bytes);
          const Clock::time_point t0 = Clock::now();
          panda::PackRegion(std::span(piece.data(), n), client, cell, p.region,
                            elem);
          s += SecondsSince(t0);
          bytes += static_cast<double>(p.bytes);
        }
        return s;
      }) /
      static_cast<double>(panda::kGiB);
  rates.unpack_GiBps =
      MedianRate(kMinRateSeconds, [&](double& bytes) {
        double s = 0.0;
        for (const panda::ClientStep& step : steps) {
          const panda::PiecePlan& p = plan.piece(step);
          const panda::SubchunkPlan& sc = plan.subchunk(step);
          const Clock::time_point t0 = Clock::now();
          panda::UnpackRegion(
              std::span(sub.data(), static_cast<std::size_t>(sc.bytes)),
              sc.region,
              std::span<const std::byte>(piece.data(),
                                         static_cast<std::size_t>(p.bytes)),
              p.region, elem);
          s += SecondsSince(t0);
          bytes += static_cast<double>(p.bytes);
        }
        return s;
      }) /
      static_cast<double>(panda::kGiB);
  return rates;
}

CodecRates CodecRoundTrip(const WorkloadSpec& spec, std::uint64_t seed) {
  constexpr int kWindows = 8;
  const std::int64_t window = ParamsFor(spec).subchunk_bytes;
  const std::int64_t elem = 4;
  const panda::CodecId codec = spec.codec != panda::CodecId::kNone
                                   ? spec.codec
                                   : panda::CodecId::kShuffleRle;
  std::vector<std::byte> raw(static_cast<std::size_t>(window * kWindows));
  for (std::int64_t i = 0; i * elem < window * kWindows; ++i) {
    const std::uint32_t v = AppData::FillValue(spec, seed, i);
    std::memcpy(raw.data() + i * elem, &v, sizeof(v));
  }
  auto slice = [&](int w) {
    return std::span<const std::byte>(raw).subspan(
        static_cast<std::size_t>(w * window), static_cast<std::size_t>(window));
  };
  std::vector<panda::SubchunkFrame> frames(kWindows);

  CodecRates rates;
  rates.encode_MiBps =
      MedianRate(kMinRateSeconds, [&](double& bytes) {
        const Clock::time_point t0 = Clock::now();
        for (int w = 0; w < kWindows; ++w) {
          frames[static_cast<std::size_t>(w)] =
              panda::EncodeSubchunkFrame(codec, slice(w), elem);
        }
        bytes += static_cast<double>(window * kWindows);
        return SecondsSince(t0);
      }) /
      static_cast<double>(panda::kMiB);
  // A stored-raw frame is read back from the raw slot itself.
  auto decode = [&](int w) {
    const panda::SubchunkFrame& f = frames[static_cast<std::size_t>(w)];
    const std::span<const std::byte> slot =
        f.codec == panda::CodecId::kNone ? slice(w)
                                         : std::span<const std::byte>(f.bytes);
    return panda::DecodeSubchunkFrame(slot, f.codec, window, elem);
  };
  for (int w = 0; w < kWindows; ++w) {
    const std::vector<std::byte> back = decode(w);
    PANDA_REQUIRE(std::equal(back.begin(), back.end(), slice(w).begin(),
                             slice(w).end()),
                  "codec round trip changed the bytes of window %d", w);
  }
  rates.decode_MiBps =
      MedianRate(kMinRateSeconds, [&](double& bytes) {
        const Clock::time_point t0 = Clock::now();
        for (int w = 0; w < kWindows; ++w) (void)decode(w);
        bytes += static_cast<double>(window * kWindows);
        return SecondsSince(t0);
      }) /
      static_cast<double>(panda::kMiB);
  std::int64_t framed = 0;
  for (const panda::SubchunkFrame& f : frames) framed += f.frame_bytes(window);
  rates.ratio = static_cast<double>(framed) /
                static_cast<double>(window * kWindows);
  return rates;
}

}  // namespace perfbench

// Layer micro-timings: host time of single calls into each layer's
// public entry points, sized from the workload's own plan and fill.
// Each returns the median of several repetitions.
#pragma once

#include <cstdint>

#include "workload.h"

namespace perfbench {

// sp2: Machine::Simulated for the workload's machine.
double MachineBuildMs(const WorkloadSpec& spec);

// panda/plan: one IoPlan constructor for the workload's array.
struct PlanTiming {
  double build_ms = 0.0;
  std::int64_t pieces = 0;
};
PlanTiming PlanBuild(const WorkloadSpec& spec);

// sched: Machine::Run with empty rank bodies at the workload's rank
// count on the fiber backend.
double SpawnJoinMs(const WorkloadSpec& spec);

// msg: one Endpoint::Send/Recv round trip between two ranks on the
// fiber backend, in microseconds.
double PingPongUs(const WorkloadSpec& spec);

// mdarray: PackRegion (client buffer -> piece) and UnpackRegion (piece
// -> sub-chunk buffer) replayed over one client's plan pieces.
struct CopyRates {
  double pack_GiBps = 0.0;
  double unpack_GiBps = 0.0;
};
CopyRates PackUnpack(const WorkloadSpec& spec);

// codec: EncodeSubchunkFrame / DecodeSubchunkFrame over sub-chunk-sized
// windows of the workload's fill, under the workload's codec (or
// shuffle+rle when the workload negotiates none).
struct CodecRates {
  double encode_MiBps = 0.0;
  double decode_MiBps = 0.0;
  double ratio = 1.0;  // framed bytes / raw bytes
};
CodecRates CodecRoundTrip(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench

// Timestep streams and checkpoint cadence.
//
// The paper's target applications write timestep output continuously
// and checkpoint periodically (Figure 2). This bench measures, on the
// simulated SP2, (a) the steady-state cost of a timestep stream — each
// timestep is its own segment file, written sequentially after one seek
// to open it, so per-timestep cost is flat — and (b) the i/o overhead
// of checkpointing every k timesteps,
// the knob an application tunes against its failure rate.
#include <cstdio>

#include "bench_util.h"
#include "util/units.h"

namespace panda {
namespace {

struct StreamResult {
  double total_s = 0.0;
  double per_timestep_s = 0.0;
  std::int64_t seeks = 0;
};

StreamResult RunStream(int timesteps, int checkpoint_every,
                       std::int64_t size_mb, const Sp2Params& params) {
  Machine machine = Machine::Simulated(8, 2, params, false, true);
  const World world{8, 2};
  StreamResult result;
  machine.Run(
      [&](Endpoint& ep, int idx) {
        PandaClient client(ep, world, params);
        const ArrayMeta meta =
            bench::PaperArrayMeta(size_mb, Shape{2, 2, 2}, false, 2);
        Array a("field", meta.elem_size, meta.memory, meta.disk);
        a.BindClient(idx, false);
        ArrayGroup group("stream");
        group.Include(&a);
        double total = 0.0;
        for (int t = 0; t < timesteps; ++t) {
          total += group.Timestep(client);
          if (checkpoint_every > 0 && (t + 1) % checkpoint_every == 0) {
            total += group.Checkpoint(client);
          }
        }
        if (idx == 0) {
          result.total_s = total;
          client.Shutdown();
        }
      },
      [&](Endpoint& ep, int sidx) {
        ServerMain(ep, machine.server_fs(sidx), world, params);
      });
  result.per_timestep_s = result.total_s / timesteps;
  for (int s = 0; s < 2; ++s) {
    result.seeks += machine.server_fs(s).stats().seeks;
  }
  return result;
}

}  // namespace
}  // namespace panda

int main(int argc, char** argv) {
  using namespace panda;
  try {
    Options opts(argc, argv);
    const bool quick = opts.GetBool("quick", false);
    opts.CheckAllConsumed();
    const Sp2Params params = Sp2Params::Nas();
    const int timesteps = quick ? 6 : 16;
    const std::int64_t mb = quick ? 4 : 8;

    std::printf("# Timestep stream: %d timesteps of a %lld MB array,\n",
                timesteps, static_cast<long long>(mb));
    std::printf("# 8 compute nodes, 2 i/o nodes, natural chunking.\n");
    std::printf("# Each segment is written sequentially: seeks stay "
                "(timesteps + checkpoints) per node.\n\n");
    std::printf("%-18s %-12s %-16s %-12s %-14s\n", "checkpoint_every",
                "total_s", "per_timestep_s", "seeks", "io_overhead");

    const StreamResult base = RunStream(timesteps, 0, mb, params);
    std::printf("%-18s %-12.3f %-16.4f %-12lld %-14s\n", "never",
                base.total_s, base.per_timestep_s,
                static_cast<long long>(base.seeks), "1.00x");
    for (const int k : {8, 4, 2, 1}) {
      if (k > timesteps) continue;
      const StreamResult r = RunStream(timesteps, k, mb, params);
      std::printf("%-18d %-12.3f %-16.4f %-12lld %.2fx\n", k, r.total_s,
                  r.per_timestep_s, static_cast<long long>(r.seeks),
                  r.total_s / base.total_s);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

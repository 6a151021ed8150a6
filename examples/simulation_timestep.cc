// Figure 2 replica: a timestep simulation using Panda's high-level
// collective interface.
//
// Three arrays (temperature, pressure, density) are distributed over 8
// compute nodes; the simulation runs timesteps, outputs all three arrays
// with a single collective timestep() call each iteration, checkpoints
// halfway, then simulates a crash and restarts from the checkpoint.
//
//   ./examples/simulation_timestep [--dir=PATH] [--timesteps=N]
//       [--disk_checksums]
#include <cmath>
#include <cstdio>

#include "panda/panda.h"
#include "util/options.h"

using namespace panda;

namespace {

// A toy heat-diffusion step: every element relaxes toward the mean of
// itself and a constant source term. (The physics is irrelevant; the
// i/o pattern is the paper's.)
void ComputeNextTimestep(Array& a, int step) {
  auto data = a.local_as<double>();
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5 * data[i] + 0.25 * std::sin(0.01 * step + 0.001 * i);
  }
}

double Checksum(const Array& a) {
  auto raw = a.local_data();
  const auto* d = reinterpret_cast<const double*>(raw.data());
  double sum = 0;
  for (size_t i = 0; i < raw.size() / sizeof(double); ++i) sum += d[i];
  return sum;
}

}  // namespace

namespace { int Run(int argc, char** argv) {
  Options opts(argc, argv);
  const std::string dir = opts.GetString("dir", "panda_simulation_data");
  const int timesteps = static_cast<int>(opts.GetInt("timesteps", 10));
  // With --disk_checksums the i/o nodes also keep a CRC32C of every
  // sub-chunk in its shard table, which `panda_fsck --verify` can audit
  // offline.
  const bool disk_checksums = opts.GetBool("disk_checksums", false);
  opts.CheckAllConsumed();

  const World world{8, 2};
  Machine machine = Machine::WithPosixFs(8, 2, Sp2Params::Nas(), dir);

  machine.Run(
      [&](Endpoint& ep, int client_index) {
        // --- Figure 2's declarations, verbatim in spirit ---
        ArrayLayout memory("memory layout", {4, 2});
        ArrayLayout disk("disk layout", {2});
        Array temperature("temperature", {64, 64, 16}, sizeof(double),
                          memory, {BLOCK, BLOCK, NONE},
                          disk, {BLOCK, NONE, NONE});
        Array pressure("pressure", {32, 32, 32}, sizeof(double),
                       memory, {BLOCK, BLOCK, NONE},
                       disk, {BLOCK, NONE, NONE});
        Array density("density", {32, 32, 32}, sizeof(double),
                      memory, {BLOCK, BLOCK, NONE},
                      disk, {BLOCK, NONE, NONE});
        for (Array* a : {&temperature, &pressure, &density}) {
          a->BindClient(client_index);
        }

        PandaClient client(ep, world, machine.params());
        ArrayGroup simulation("Sim2", "simulation2.schema");
        simulation.Include(&temperature);
        simulation.Include(&pressure);
        simulation.Include(&density);

        // --- Figure 2's main loop ---
        double checkpoint_checksum = 0;
        for (int i = 0; i < timesteps; ++i) {
          for (Array* a : {&temperature, &pressure, &density}) {
            ComputeNextTimestep(*a, i);
          }
          simulation.Timestep(client);  // one collective, three arrays
          if (i == timesteps / 2) {
            simulation.Checkpoint(client);
            checkpoint_checksum = Checksum(temperature);
          }
        }

        // --- crash & recover ---
        for (Array* a : {&temperature, &pressure, &density}) {
          std::fill(a->local_data().begin(), a->local_data().end(),
                    std::byte{0});
        }
        simulation.Restart(client);
        const bool recovered =
            Checksum(temperature) == checkpoint_checksum;

        if (client_index == 0) {
          std::printf("simulation: %d timesteps written (%lld recorded), "
                      "checkpoint restored %s\n",
                      timesteps,
                      static_cast<long long>(simulation.timesteps_written()),
                      recovered ? "exactly" : "WRONG");
          client.Shutdown();
        }
      },
      [&](Endpoint& ep, int server_index) {
        ServerOptions server_options;
        server_options.disk_checksums = disk_checksums;
        ServerMain(ep, machine.server_fs(server_index), world,
                   machine.params(), server_options);
      });

  // The master server maintained the group's schema file; show it.
  const GroupMeta meta = ReadGroupMeta(machine.server_fs(0),
                                       "simulation2.schema");
  std::printf("schema file: group '%s', %lld timesteps, checkpoint at "
              "timestep %lld, %zu arrays:\n",
              meta.group.c_str(), static_cast<long long>(meta.timesteps),
              static_cast<long long>(meta.checkpoint_seq),
              meta.arrays.size());
  for (const ArrayMeta& a : meta.arrays) {
    std::printf("  %-12s %s elem=%lldB disk=%s\n", a.name.c_str(),
                a.memory.array_shape().ToString().c_str(),
                static_cast<long long>(a.elem_size),
                a.disk.ToString().c_str());
  }
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Panda 2.0 public API umbrella header.
//
// A reproduction of: K. E. Seamons, Y. Chen, P. Jones, J. Jozwiak and
// M. Winslett, "Server-Directed Collective I/O in Panda", SC '95.
//
// Typical application structure (see examples/quickstart.cc):
//
//   Machine machine = Machine::WithPosixFs(8, 2, Sp2Params::Nas(), dir);
//   machine.Run(
//     [&](Endpoint& ep, int client) {
//       ArrayLayout memory("memory", {2, 2, 2});
//       ArrayLayout disk("disk", {2, 1, 1});
//       Array temperature("temperature", {64, 64, 64}, sizeof(double),
//                         memory, {BLOCK, BLOCK, BLOCK},
//                         disk, {BLOCK, NONE, NONE});
//       temperature.BindClient(client);
//       ...fill temperature.local_as<double>()...
//       PandaClient panda(ep, {8, 2}, Sp2Params::Nas());
//       ArrayGroup sim("Sim2", "simulation2.schema");
//       sim.Include(&temperature);
//       sim.Timestep(panda);
//       panda.Shutdown();
//     },
//     [&](Endpoint& ep, int server) {
//       ServerMain(ep, machine.server_fs(server), {8, 2}, Sp2Params::Nas());
//     });
#pragma once

#include "codec/codec.h"
#include "codec/frame.h"
#include "panda/advisor.h"
#include "panda/array.h"
#include "panda/array_group.h"
#include "panda/client.h"
#include "panda/cost_model.h"
#include "panda/failover.h"
#include "panda/journal.h"
#include "panda/plan.h"
#include "panda/plan_cache.h"
#include "panda/protocol.h"
#include "panda/rejoin.h"
#include "panda/report.h"
#include "panda/runtime.h"
#include "panda/schema_io.h"
#include "panda/sequential.h"
#include "panda/server.h"
#include "panda/store_io.h"
#include "sp2/machine.h"
#include "sp2/params.h"

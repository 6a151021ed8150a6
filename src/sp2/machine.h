// Cluster assembly: transport + per-i/o-node file systems + role layout.
//
// A Machine is the reproduction's stand-in for "a partition of the NAS
// SP2": `num_clients` compute nodes followed by `num_servers` i/o nodes,
// each i/o node owning its own AIX-like file system (the SP2 at NAS had
// no parallel file system — Panda used the local AIX FS of each i/o
// node; we replicate that: one FileSystem instance per server).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "iosim/file_system.h"
#include "iosim/object_store.h"
#include "iosim/posix_fs.h"
#include "iosim/retry.h"
#include "iosim/sim_fs.h"
#include "iosim/striped_fs.h"
#include "msg/transport.h"
#include "sp2/params.h"

namespace panda {

class Machine {
 public:
  // Simulated machine for timing sweeps and simulation-backed tests.
  // `store_data` keeps file contents in memory (functional sim).
  static Machine Simulated(int num_clients, int num_servers, Sp2Params params,
                           bool store_data, bool timing_only);

  // Machine over real POSIX directories (one per server) under `root`;
  // used by functional tests and example programs. Timing parameters are
  // still applied to the transport (harmless) but disk time is not
  // modeled.
  static Machine WithPosixFs(int num_clients, int num_servers,
                             Sp2Params params, const std::string& root);

  // Simulated machine whose i/o nodes each have `disks_per_node` local
  // disks with files striped across them (StripedFileSystem) — the
  // multi-disk hardware upgrade explored by bench_multidisk.
  static Machine SimulatedMultiDisk(int num_clients, int num_servers,
                                    Sp2Params params, int disks_per_node,
                                    std::int64_t stripe_bytes,
                                    bool store_data, bool timing_only);

  // Simulated machine whose i/o nodes front a shared object store
  // (ObjectStoreFileSystem): shard files (`*.shard.N`) become
  // whole-object PUT/GET traffic priced by `model`, everything else
  // (metadata, journals) stays on the node's local disk
  // model. Pair with ServerOptions::backend = kObjectStore and a
  // shard size from AdviseShardSize.
  static Machine SimulatedObjectStore(int num_clients, int num_servers,
                                      Sp2Params params,
                                      const ObjectStoreModel& model,
                                      bool store_data, bool timing_only);

  int num_clients() const { return num_clients_; }
  int num_servers() const { return num_servers_; }
  const Sp2Params& params() const { return params_; }

  ThreadTransport& transport() { return *transport_; }

  // File system of server `s` (0-based server index).
  FileSystem& server_fs(int s);

  // Machine-wide robustness accounting (retries, checksum failures,
  // aborts). Wire it into ServerOptions::robustness /
  // PandaClient::set_robustness; the report snapshots it.
  RobustnessStats& robustness() { return *robustness_; }

  // --- Fault machinery forwarding (see msg/transport.h) ---

  // Arms the seeded lossy decorator + reliable-delivery layer on the
  // transport. Call before Run().
  void SetLoss(const LossSpec& loss) { transport_->SetLoss(loss); }

  // Configures the modeled heartbeat/lease failure detector.
  void SetHeartbeat(const HeartbeatConfig& heartbeat) {
    transport_->SetHeartbeat(heartbeat);
  }

  // Installs a custom nondeterminism strategy on the transport
  // (msg/choice.h): loss verdicts, kill choice points and any-source
  // delivery picks route through `decider` instead of the seeded
  // adversary. Non-owning; nullptr restores the default. Used by the
  // model checker (src/mc/, docs/MODEL_CHECKING.md).
  void SetChoiceDecider(ChoiceDecider* decider) {
    transport_->SetChoiceDecider(decider);
  }

  // Crash-stops i/o node `server_index` at its (n+1)-th further send:
  // the Panda analogue of kill -9 on one i/o node mid-collective.
  void KillServerAfterSends(int server_index, std::int64_t after_more_sends) {
    transport_->ScheduleKill(server_rank(server_index), after_more_sends);
  }

  // Restarts a crash-stopped i/o node as a new incarnation (between
  // Run() calls). Its file system persists across the crash; its old
  // life's in-flight messages are fenced off (stale_incarnation_dropped
  // counts them). On the next Run() the server boots, replays its
  // journal, and rejoins the group through the master
  // (docs/PROTOCOL.md, "Rejoin").
  void RestartServer(int server_index) {
    transport_->Revive(server_rank(server_index));
  }

  // Live view of the transport's fault counters.
  TransportFaultStats& fault_stats() { return transport_->fault_stats(); }

  // --- Observability (see trace/trace.h, docs/OBSERVABILITY.md) ---

  // Arms span tracing on the transport: every subsequent Run() records
  // client/transport/server/journal/retry spans in virtual time, one
  // recorder per rank. Purely observational — clocks and byte counts are
  // bit-identical to an untraced run.
  void EnableTrace(const trace::TraceOptions& options = {}) {
    transport_->SetTrace(options);
  }

  // The armed collector, or nullptr when tracing is off.
  trace::Collector* trace_collector() { return transport_->trace_collector(); }
  const trace::Collector* trace_collector() const {
    return transport_->trace_collector();
  }

  // --- Analysis hooks (see msg/hb.h, docs/ANALYSIS.md) ---

  // Seeds the schedule-perturbation layer: thread launch order and
  // wall-clock yield jitter are derived from `seed`. Virtual time is
  // never touched — two runs with different seeds must produce
  // bit-identical virtual clocks and file bytes, and hb_race_test
  // asserts exactly that. Call before Run().
  void SetScheduleSeed(std::uint64_t seed) {
    transport_->SetScheduleSeed(seed);
  }

  // The happens-before checker, or nullptr unless built with
  // -DPANDA_HB=ON. Races() is the post-run report.
  hb::Checker* hb_checker() { return transport_->hb_checker(); }
  const hb::Checker* hb_checker() const { return transport_->hb_checker(); }

  // --- Rank scheduler (see src/sched/, docs/SCHEDULER.md) ---

  // Selects how rank mains execute: sched::Backend::kThread (default;
  // one OS thread per rank) or kFiber (cooperative fibers on `workers`
  // carrier threads; 0 = auto). Fibers make --ranks=4096 machines
  // practical; both backends produce bit-identical virtual clocks and
  // file bytes. Falls back to threads where fibers are unsupported
  // (TSan, PANDA_HB builds).
  void SetSchedBackend(sched::Backend backend, int workers = 0) {
    sched::Config config;
    config.backend = backend;
    config.workers = workers;
    transport_->SetScheduler(config);
  }

  // The backend Run() will actually use, and its accumulated counters.
  sched::Backend sched_backend() const { return transport_->sched_backend(); }
  const sched::Stats& sched_stats() const { return transport_->sched_stats(); }

  // Track label for rank `r` in exported traces ("client 0", "ion 2").
  std::string rank_label(int r) const {
    return r < num_clients_ ? ("client " + std::to_string(r))
                            : ("ion " + std::to_string(r - num_clients_));
  }

  // Runs `client_main(endpoint, client_index)` on client ranks and
  // `server_main(endpoint, server_index)` on server ranks.
  void Run(const std::function<void(Endpoint&, int)>& client_main,
           const std::function<void(Endpoint&, int)>& server_main);

  // Rank layout helpers.
  int client_rank(int client_index) const { return client_index; }
  int server_rank(int server_index) const {
    return num_clients_ + server_index;
  }

  // Clears virtual clocks and message/FS statistics between repetitions.
  void ResetClocksAndStats();

  // Simulates restarting the surviving processes on this machine:
  // mailboxes (including abort state), the lossy layer and clocks are
  // wiped; the per-server file systems and death records persist. The
  // model checker's "previous checkpoint restorable" invariant drives a
  // real restart through this (see ThreadTransport::ResetForRecovery).
  void ResetForRecovery() { transport_->ResetForRecovery(); }

  // Between-runs reset for a rejoin phase that continues the same
  // explored execution (model-checker run 2): choice ordinals and fault
  // counters persist; loss must stay disarmed for the next Run() (see
  // ThreadTransport::ResetForRejoin).
  void ResetForRejoin() { transport_->ResetForRejoin(); }

 private:
  Machine(int num_clients, int num_servers, Sp2Params params);

  int num_clients_;
  int num_servers_;
  Sp2Params params_;
  std::unique_ptr<ThreadTransport> transport_;
  std::vector<std::unique_ptr<FileSystem>> server_fs_;
  // unique_ptr (not a value member): the atomics inside make the stats
  // immovable, and Machine is returned by value from its factories.
  std::unique_ptr<RobustnessStats> robustness_;
};

}  // namespace panda

// The model-checked workload: a small failover-mode cluster (default
// 2 clients x 2 i/o nodes, one tiny array group) running one timestep
// collective followed by one checkpoint, under a RecordingDecider that
// resolves every transport choice point. After the run terminates, the
// four safety invariants from docs/MODEL_CHECKING.md are checked:
//
//   1. Outcome coherence — every client completed, or every client
//      aborted; never a mix.
//   2. Committed checkpoint restorable — if the master client returned
//      from Checkpoint() and the data's servers survived, a real
//      restart (Machine::ResetForRecovery + fresh cluster) must Resume
//      and Restart bit-exactly.
//   3. fsck clean — whatever metadata committed, the offline segment
//      walk and journal replay accept it under the recorded
//      dead-server set. Conditioned on a stable dead set: a node that
//      dies *between* commits takes its already-committed local data
//      with it (the paper's i/o nodes write to node-local file
//      systems), and the group's single recorded dead set cannot
//      describe two layouts — the explorer found exactly this.
//   4. No torn group metadata — the schema file, when present, parses;
//      its dead-server set never exceeds the ever-killed set.
//
// With `rejoin` set, eligible schedules append a second phase after the
// main run: the killed servers are revived (Machine::RestartServer over
// a ResetForRejoin'd transport), the cluster resumes the group, and one
// more timestep + checkpoint run under the SAME decider — so the
// explorer also branches on faults *during* rejoin (kill -> rejoin ->
// re-kill). A clean second phase must leave the group fully repaired:
// metadata records no dead servers, the layout epoch is bumped, and the
// offline verifiers accept the files under the identity layout.
//
// A run's outcome is a pure function of the decision assignment; the
// explorer (mc/explorer.h) leans on that for stateless replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/strategy.h"
#include "mc/trace.h"

namespace panda::mc {

// One exploration scenario. Serializes to the `config` lines of a
// .mctrace so failing schedules are self-contained.
struct McConfig {
  int clients = 2;
  int servers = 2;
  int arrays = 1;       // 1 or 2 arrays in the group
  int rows = 8;         // array shape (rows x cols, 8-byte elements)
  int cols = 8;
  std::int64_t subchunk_bytes = 128;
  int timesteps = 1;    // timestep collectives before the checkpoint

  // Which loss verdicts the adversary may pick per surfaced send.
  bool drop = false;
  bool dup = false;
  bool reorder = false;
  bool delay = false;

  // Servers (by index) whose sends surface kill choice points, within
  // the send-index window [kill_lo, kill_hi).
  std::vector<int> kill_servers;
  std::int64_t kill_lo = 0;
  std::int64_t kill_hi = 0;

  // Surface any-source delivery picks (DFS expands every candidate
  // source; random walks sample one).
  bool deliver_choices = false;

  // Revive the killed servers after the main run and model-check the
  // rejoin protocol too (see the header comment). Only schedules whose
  // main run left a stable, committed degraded state are eligible; the
  // rest skip the phase (their outcome label says so).
  bool rejoin = false;

  // Exploration budgets: at most this many non-deliver loss decisions /
  // fired kills per run. DFS enforces them statically on assignments;
  // random walks enforce them at runtime.
  int max_faults = 2;
  int max_kills = 1;

  // Test-only, deliberately too strict: flag ANY abort as a violation.
  // The failover protocol aborts by design when the master i/o node
  // dies, so exploring kills of server 0 under this flag manufactures a
  // real counterexample — the harness for "a broken invariant is
  // caught, minimized, and replayed" (mc_test).
  bool expect_no_aborts = false;

  bool HasLossSurface() const { return drop || dup || reorder || delay; }
  bool HasKillSurface() const {
    return !kill_servers.empty() && kill_hi > kill_lo;
  }

  std::vector<std::pair<std::string, std::string>> ToConfigLines() const;
  static McConfig FromConfigLines(
      const std::vector<std::pair<std::string, std::string>>& lines);
};

// Everything observed about one terminated run.
struct McRunResult {
  // Per client: 0 = nothing committed, 1 = timestep done, 2 = timestep
  // and checkpoint done.
  std::vector<int> progress;
  std::vector<int> aborted;  // per client: saw PandaAbortError
  bool run_aborted = false;  // an abort surfaced from Machine::Run
  std::string run_error;     // non-abort PandaError ("" when clean)

  std::vector<int> dead_servers;       // actually crash-stopped (indices)
  bool checkpoint_committed = false;   // master returned from Checkpoint()
  bool completed = false;              // all clients reached progress 2
  bool meta_exists = false;
  bool meta_parses = false;
  std::vector<int> meta_dead_servers;  // from the committed schema
  bool restart_checked = false;        // invariant 2 preconditions held
  bool fsck_checked = false;           // invariant 3 preconditions held
  // Dead servers observed by the master client right after its timestep
  // committed (the first commit): when this differs from the final dead
  // set, the group's commits span two layouts and offline verification
  // is out of scope (the dead node's committed data is lost).
  std::vector<int> dead_at_first_commit;
  std::uint64_t data_hash = 0;         // FNV over committed server files

  // Rejoin phase (config.rejoin only; see the header comment).
  bool rejoin_attempted = false;       // eligibility preconditions held
  std::vector<int> rejoin_progress;    // per client, run 2 (0/1/2)
  std::vector<int> rejoin_aborted;     // per client: run 2 abort
  bool rejoin_run_aborted = false;
  std::string rejoin_run_error;
  std::vector<int> dead_after_rejoin;  // dead (indices) after run 2
  std::int64_t layout_epoch = 0;       // meta epoch after the final run

  // The branching trail: every surfaced choice point, canonical order.
  std::vector<TrailEntry> trail;
  std::int64_t unreached_forced = 0;
  std::int64_t anomalies = 0;

  // Invariant failures, human-readable. Empty = this schedule is safe.
  std::vector<std::string> violations;

  // Compact outcome label + data hash; equal labels = equivalent
  // terminal states (used by visited-set dedup and the POR audit).
  std::string Outcome() const;
};

// Runs the workload once under (forced, random_seed) — see
// RecordingDecider — and checks the invariants. random_seed == 0 is
// the DFS/replay mode; nonzero draws unforced decisions randomly.
McRunResult RunWorkload(const McConfig& config, const Assignment& forced,
                        std::uint64_t random_seed = 0);

}  // namespace panda::mc

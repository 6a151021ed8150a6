#include "mc/workload.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "panda/panda.h"
#include "util/error.h"

namespace panda::mc {

namespace {

// Salts for the collectives (per array: salt + array index; later
// timesteps add 1000*t so every commit has a distinct pattern). The
// rejoin phase writes fresh patterns so a repaired cluster is verified
// against post-rejoin data, not leftovers.
constexpr std::uint64_t kTimestepSalt = 100;
constexpr std::uint64_t kCheckpointSalt = 500;
constexpr std::uint64_t kRejoinTimestepSalt = 700;
constexpr std::uint64_t kRejoinCheckpointSalt = 900;

constexpr char kGroupName[] = "mc";
constexpr char kSchemaFile[] = "mc.schema";

// splitmix64-style mixer, mirroring tests/test_harness.h so patterns
// written here are the canonical ones.
std::uint64_t PatternValue(std::uint64_t salt, std::uint64_t global_offset) {
  std::uint64_t z = salt + 0x9e3779b97f4a7c15ULL * (global_offset + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t GlobalOffsetOf(const Shape& shape, const Index& idx) {
  std::int64_t off = 0;
  for (int d = 0; d < shape.rank(); ++d) off = off * shape[d] + idx[d];
  return off;
}

void FillPattern(Array& array, std::uint64_t salt) {
  const Region& cell = array.local_region();
  if (cell.empty()) return;
  auto data = array.local_data();
  const auto elem = static_cast<size_t>(array.elem_size());
  Index off = Index::Zeros(cell.rank());
  Shape ext = cell.extent();
  size_t n = 0;
  do {
    Index g = cell.lo();
    for (int d = 0; d < cell.rank(); ++d) g[d] += off[d];
    const std::uint64_t v = PatternValue(
        salt, static_cast<std::uint64_t>(GlobalOffsetOf(array.shape(), g)));
    std::memcpy(data.data() + n * elem, &v, std::min(elem, sizeof(v)));
    if (elem > sizeof(v)) {
      std::memset(data.data() + n * elem + sizeof(v), 0, elem - sizeof(v));
    }
    ++n;
  } while (NextIndexRowMajor(ext, off));
}

std::int64_t CountMismatches(const Array& array, std::uint64_t salt) {
  const Region& cell = array.local_region();
  if (cell.empty()) return 0;
  auto data = array.local_data();
  const auto elem = static_cast<size_t>(array.elem_size());
  Index off = Index::Zeros(cell.rank());
  Shape ext = cell.extent();
  size_t n = 0;
  std::int64_t mismatches = 0;
  do {
    Index g = cell.lo();
    for (int d = 0; d < cell.rank(); ++d) g[d] += off[d];
    const std::uint64_t v = PatternValue(
        salt, static_cast<std::uint64_t>(GlobalOffsetOf(array.shape(), g)));
    if (std::memcmp(data.data() + n * elem, &v, std::min(elem, sizeof(v))) !=
        0) {
      ++mismatches;
    }
    ++n;
  } while (NextIndexRowMajor(ext, off));
  return mismatches;
}

std::string ArrayName(int i) { return "a" + std::to_string(i); }

// Builds the group's arrays for one client, BLOCK-distributed over a
// 1-D client mesh.
std::vector<std::unique_ptr<Array>> MakeArrays(const McConfig& config,
                                               const ArrayLayout& memory,
                                               int client_index) {
  std::vector<std::unique_ptr<Array>> arrays;
  for (int i = 0; i < config.arrays; ++i) {
    arrays.push_back(std::make_unique<Array>(
        ArrayName(i), Shape{config.rows, config.cols}, 8, memory,
        std::vector<Distribution>{BLOCK, NONE}, memory,
        std::vector<Distribution>{BLOCK, NONE}));
    arrays.back()->BindClient(client_index);
  }
  return arrays;
}

std::uint64_t FnvMix(std::uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t HashFile(std::uint64_t h, FileSystem& fs,
                       const std::string& name) {
  if (!fs.Exists(name)) return h;
  std::unique_ptr<File> file = fs.Open(name, OpenMode::kRead);
  std::vector<std::byte> bytes(static_cast<size_t>(file->Size()));
  file->ReadAt(0, bytes, static_cast<std::int64_t>(bytes.size()));
  h = FnvMix(h, name.data(), name.size());
  h = FnvMix(h, bytes.data(), bytes.size());
  return h;
}

std::string JoinInts(const std::vector<int>& values) {
  std::ostringstream out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    out << values[i];
  }
  return out.str();
}

std::vector<int> ParseIntCsv(const std::string& csv) {
  std::vector<int> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

bool ParseBool(const std::string& value) {
  return value == "1" || value == "true";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> McConfig::ToConfigLines()
    const {
  std::vector<std::pair<std::string, std::string>> lines;
  const auto add = [&](const std::string& key, const std::string& value) {
    lines.emplace_back(key, value);
  };
  add("clients", std::to_string(clients));
  add("servers", std::to_string(servers));
  add("arrays", std::to_string(arrays));
  add("rows", std::to_string(rows));
  add("cols", std::to_string(cols));
  add("subchunk", std::to_string(subchunk_bytes));
  add("timesteps", std::to_string(timesteps));
  add("drop", drop ? "1" : "0");
  add("dup", dup ? "1" : "0");
  add("reorder", reorder ? "1" : "0");
  add("delay", delay ? "1" : "0");
  add("kill_servers", JoinInts(kill_servers));
  add("kill_lo", std::to_string(kill_lo));
  add("kill_hi", std::to_string(kill_hi));
  add("deliver", deliver_choices ? "1" : "0");
  add("rejoin", rejoin ? "1" : "0");
  add("max_faults", std::to_string(max_faults));
  add("max_kills", std::to_string(max_kills));
  add("expect_no_aborts", expect_no_aborts ? "1" : "0");
  return lines;
}

McConfig McConfig::FromConfigLines(
    const std::vector<std::pair<std::string, std::string>>& lines) {
  McConfig config;
  for (const auto& [key, value] : lines) {
    if (key == "clients") config.clients = std::stoi(value);
    else if (key == "servers") config.servers = std::stoi(value);
    else if (key == "arrays") config.arrays = std::stoi(value);
    else if (key == "rows") config.rows = std::stoi(value);
    else if (key == "cols") config.cols = std::stoi(value);
    else if (key == "subchunk") config.subchunk_bytes = std::stoll(value);
    else if (key == "timesteps") config.timesteps = std::stoi(value);
    else if (key == "drop") config.drop = ParseBool(value);
    else if (key == "dup") config.dup = ParseBool(value);
    else if (key == "reorder") config.reorder = ParseBool(value);
    else if (key == "delay") config.delay = ParseBool(value);
    else if (key == "kill_servers") config.kill_servers = ParseIntCsv(value);
    else if (key == "kill_lo") config.kill_lo = std::stoll(value);
    else if (key == "kill_hi") config.kill_hi = std::stoll(value);
    else if (key == "deliver") config.deliver_choices = ParseBool(value);
    else if (key == "rejoin") config.rejoin = ParseBool(value);
    else if (key == "max_faults") config.max_faults = std::stoi(value);
    else if (key == "max_kills") config.max_kills = std::stoi(value);
    else if (key == "expect_no_aborts")
      config.expect_no_aborts = ParseBool(value);
    else
      throw PandaError("mc config: unknown key '" + key + "'");
  }
  return config;
}

std::string McRunResult::Outcome() const {
  std::ostringstream out;
  out << "p=" << JoinInts(progress) << " a=" << JoinInts(aborted)
      << " dead=" << JoinInts(dead_servers)
      << " ckpt=" << (checkpoint_committed ? 1 : 0)
      << " meta=" << (meta_exists ? (meta_parses ? "ok" : "torn") : "none")
      << " hash=" << std::hex << data_hash << std::dec
      << " viol=" << violations.size();
  if (rejoin_attempted) {
    out << " rj_p=" << JoinInts(rejoin_progress)
        << " rj_a=" << JoinInts(rejoin_aborted)
        << " rj_dead=" << JoinInts(dead_after_rejoin)
        << " epoch=" << layout_epoch;
  }
  return out.str();
}

McRunResult RunWorkload(const McConfig& config, const Assignment& forced,
                        std::uint64_t random_seed) {
  McRunResult result;
  result.progress.assign(static_cast<size_t>(config.clients), 0);
  result.aborted.assign(static_cast<size_t>(config.clients), 0);

  Sp2Params params = Sp2Params::Functional();
  params.subchunk_bytes = config.subchunk_bytes;
  Machine machine = Machine::Simulated(config.clients, config.servers, params,
                                       /*store_data=*/true,
                                       /*timing_only=*/false);
  // Kill-probing runs hit many dead-peer TryRecv timeouts; the default
  // 50 ms wall grace per probe would dominate exploration time.
  machine.transport().SetTryRecvGraceMs(5);
  machine.SetHeartbeat(HeartbeatConfig{true, 1.0e-2, 3});

  if (config.HasLossSurface()) {
    LossSpec loss;
    loss.seed = 1;
    loss.always_reliable = true;
    // Nonzero probabilities arm the corresponding bits of the choice
    // mask; the decider, not the RNG, picks the verdicts. The burst
    // caps are opened wide so the decision surface is budget-limited
    // (statically by the explorer), not cap-limited.
    if (config.drop) loss.drop_prob = 0.5;
    if (config.dup) loss.dup_prob = 0.5;
    if (config.reorder) loss.reorder_prob = 0.5;
    if (config.delay) loss.delay_prob = 0.5;
    loss.max_consecutive_faults = 1 << 20;
    loss.min_clean_after_fault = 0;
    loss.max_faults_total = -1;
    machine.SetLoss(loss);
  }

  GateOptions gate;
  for (const int s : config.kill_servers) {
    gate.kill_ranks.push_back(machine.server_rank(s));
  }
  gate.kill_window_lo = config.kill_lo;
  gate.kill_window_hi = config.kill_hi;
  gate.surface_delivery = config.deliver_choices;
  gate.max_kills = config.max_kills;
  gate.max_faults = config.max_faults;
  RecordingDecider decider(gate, forced, random_seed);
  machine.SetChoiceDecider(&decider);

  const World world{config.clients, config.servers};
  ServerOptions options;
  options.failover = true;
  options.disk_checksums = true;
  options.journal = true;
  options.robustness = &machine.robustness();

  ArrayLayout memory("m", {config.clients});
  try {
    machine.Run(
        [&](Endpoint& ep, int idx) {
          PandaClient client(ep, world, machine.params());
          client.set_robustness(&machine.robustness());
          client.set_failover(true);
          auto arrays = MakeArrays(config, memory, idx);
          ArrayGroup group(kGroupName, kSchemaFile);
          for (auto& a : arrays) group.Include(a.get());
          try {
            for (int t = 0; t < config.timesteps; ++t) {
              for (int i = 0; i < config.arrays; ++i) {
                FillPattern(*arrays[static_cast<size_t>(i)],
                            kTimestepSalt + static_cast<std::uint64_t>(i) +
                                1000ULL * static_cast<std::uint64_t>(t));
              }
              group.Timestep(client);
              if (t > 0) continue;
              result.progress[static_cast<size_t>(idx)] = 1;
              if (idx == 0) {
                // The layout the first commit was written under: which
                // servers had already crash-stopped when the master
                // client saw the timestep complete. Causally ordered
                // after the commit, so stable across replays except for
                // kills racing the completion fan-out (conservative:
                // such runs skip invariant 3).
                for (int s = 0; s < config.servers; ++s) {
                  if (!machine.transport().alive(machine.server_rank(s))) {
                    result.dead_at_first_commit.push_back(s);
                  }
                }
              }
            }
            for (int i = 0; i < config.arrays; ++i) {
              FillPattern(*arrays[static_cast<size_t>(i)],
                          kCheckpointSalt + static_cast<std::uint64_t>(i));
            }
            group.Checkpoint(client);
            result.progress[static_cast<size_t>(idx)] = 2;
          } catch (const PandaAbortError&) {
            result.aborted[static_cast<size_t>(idx)] = 1;
          }
          if (idx == 0) client.Shutdown();
        },
        [&](Endpoint& ep, int server_index) {
          ServerMain(ep, machine.server_fs(server_index), world,
                     machine.params(), options);
        });
  } catch (const PandaAbortError&) {
    result.run_aborted = true;
  } catch (const PandaError& e) {
    result.run_error = e.what();
    result.violations.push_back(std::string("run error: ") + e.what());
  }

  for (int s = 0; s < config.servers; ++s) {
    if (!machine.transport().alive(machine.server_rank(s))) {
      result.dead_servers.push_back(s);
    }
  }
  result.checkpoint_committed = result.progress[0] >= 2;
  result.completed =
      result.run_error.empty() &&
      std::all_of(result.progress.begin(), result.progress.end(),
                  [](int p) { return p >= 2; }) &&
      std::none_of(result.aborted.begin(), result.aborted.end(),
                   [](int a) { return a != 0; });

  // --- Rejoin phase (config.rejoin) ----------------------------------
  // Eligible only when the main run left a stable, committed degraded
  // state: no aborts, a committed checkpoint, a non-empty dead set the
  // master survived, all commits under ONE layout, and metadata that
  // records exactly that dead set. Anything else either cannot rejoin
  // by design (master death is fatal) or spans two layouts, which the
  // offline verifiers already refuse.
  std::vector<int> rejoin_resume_failed(static_cast<size_t>(config.clients),
                                        0);
  if (config.rejoin && result.checkpoint_committed &&
      !result.dead_servers.empty() && result.run_error.empty() &&
      !result.run_aborted &&
      std::none_of(result.aborted.begin(), result.aborted.end(),
                   [](int a) { return a != 0; }) &&
      std::find(result.dead_servers.begin(), result.dead_servers.end(), 0) ==
          result.dead_servers.end() &&
      result.dead_at_first_commit == result.dead_servers) {
    bool meta_matches = false;
    try {
      const GroupMeta pre =
          ReadGroupMeta(machine.server_fs(0), kSchemaFile);
      meta_matches =
          ParseDeadServersAttr(pre.attributes) == result.dead_servers;
    } catch (const PandaError&) {
      meta_matches = false;
    }
    if (meta_matches) {
      result.rejoin_attempted = true;
      result.rejoin_progress.assign(static_cast<size_t>(config.clients), 0);
      result.rejoin_aborted.assign(static_cast<size_t>(config.clients), 0);
      // Disarm loss for the rejoin run (its per-link resequencing state
      // belongs to the first run); kill and delivery choice points stay
      // armed, and the decider stays attached — the explorer branches
      // on faults during rejoin too (kill -> rejoin -> re-kill).
      machine.SetLoss(LossSpec{});
      machine.ResetForRejoin();
      for (const int s : result.dead_servers) machine.RestartServer(s);
      try {
        machine.Run(
            [&](Endpoint& ep, int idx) {
              PandaClient client(ep, world, machine.params());
              client.set_robustness(&machine.robustness());
              client.set_failover(true);
              auto arrays = MakeArrays(config, memory, idx);
              ArrayGroup group(kGroupName, kSchemaFile);
              for (auto& a : arrays) group.Include(a.get());
              try {
                if (!group.Resume(client)) {
                  rejoin_resume_failed[static_cast<size_t>(idx)] = 1;
                } else {
                  for (int i = 0; i < config.arrays; ++i) {
                    FillPattern(*arrays[static_cast<size_t>(i)],
                                kRejoinTimestepSalt +
                                    static_cast<std::uint64_t>(i));
                  }
                  group.Timestep(client);
                  result.rejoin_progress[static_cast<size_t>(idx)] = 1;
                  for (int i = 0; i < config.arrays; ++i) {
                    FillPattern(*arrays[static_cast<size_t>(i)],
                                kRejoinCheckpointSalt +
                                    static_cast<std::uint64_t>(i));
                  }
                  group.Checkpoint(client);
                  result.rejoin_progress[static_cast<size_t>(idx)] = 2;
                }
              } catch (const PandaAbortError&) {
                result.rejoin_aborted[static_cast<size_t>(idx)] = 1;
              }
              if (idx == 0) client.Shutdown();
            },
            [&](Endpoint& ep, int server_index) {
              ServerMain(ep, machine.server_fs(server_index), world,
                         machine.params(), options);
            });
      } catch (const PandaAbortError&) {
        result.rejoin_run_aborted = true;
      } catch (const PandaError& e) {
        result.rejoin_run_error = e.what();
        result.violations.push_back(std::string("rejoin run error: ") +
                                    e.what());
      }
      for (int s = 0; s < config.servers; ++s) {
        if (!machine.transport().alive(machine.server_rank(s))) {
          result.dead_after_rejoin.push_back(s);
        }
      }
    }
  }

  // The branching trail covers the main run and the rejoin phase; only
  // the invariant-2 restart below runs with the decider detached.
  result.trail = decider.Trail();
  result.unreached_forced = decider.unreached_forced();
  result.anomalies = decider.anomalies();
  if (result.anomalies > 0) {
    result.violations.push_back("choice-point key surfaced twice (seam bug)");
  }
  machine.SetChoiceDecider(nullptr);

  // --- Invariant 1: outcome coherence --------------------------------
  if (result.run_error.empty()) {
    const int aborted_count = static_cast<int>(
        std::count_if(result.aborted.begin(), result.aborted.end(),
                      [](int a) { return a != 0; }));
    if (aborted_count > 0 && aborted_count < config.clients) {
      result.violations.push_back(
          "coherence: clients split between abort and success (aborted=" +
          JoinInts(result.aborted) + " progress=" + JoinInts(result.progress) +
          ")");
    }
    if (aborted_count == 0 &&
        std::any_of(result.progress.begin(), result.progress.end(),
                    [](int p) { return p < 2; })) {
      result.violations.push_back(
          "coherence: no abort anywhere yet a client stalled (progress=" +
          JoinInts(result.progress) + ")");
    }
  }

  // Invariant 1 again for the rejoin run: a revived cluster must not
  // split between abort and success either.
  const bool rejoin_no_aborts =
      result.rejoin_attempted && !result.rejoin_run_aborted &&
      std::none_of(result.rejoin_aborted.begin(), result.rejoin_aborted.end(),
                   [](int a) { return a != 0; });
  if (result.rejoin_attempted && result.rejoin_run_error.empty()) {
    const int rj_aborts = static_cast<int>(
        std::count_if(result.rejoin_aborted.begin(),
                      result.rejoin_aborted.end(),
                      [](int a) { return a != 0; }));
    if (rj_aborts > 0 && rj_aborts < config.clients) {
      result.violations.push_back(
          "rejoin coherence: clients split between abort and success "
          "(aborted=" + JoinInts(result.rejoin_aborted) +
          " progress=" + JoinInts(result.rejoin_progress) + ")");
    }
    const bool any_resume_failed =
        std::any_of(rejoin_resume_failed.begin(), rejoin_resume_failed.end(),
                    [](int f) { return f != 0; });
    if (rj_aborts == 0 && any_resume_failed) {
      result.violations.push_back(
          "rejoin: a client could not resume the committed group");
    }
    if (rj_aborts == 0 && !any_resume_failed &&
        std::any_of(result.rejoin_progress.begin(),
                    result.rejoin_progress.end(),
                    [](int p) { return p < 2; })) {
      result.violations.push_back(
          "rejoin coherence: no abort anywhere yet a client stalled "
          "(progress=" + JoinInts(result.rejoin_progress) + ")");
    }
  }

  if (config.expect_no_aborts) {
    const bool any_abort =
        result.run_aborted ||
        std::any_of(result.aborted.begin(), result.aborted.end(),
                    [](int a) { return a != 0; });
    if (any_abort) {
      result.violations.push_back("expect_no_aborts: a client aborted");
    }
  }

  // --- Invariant 4: no torn group metadata ---------------------------
  FileSystem& master_fs = machine.server_fs(0);
  result.meta_exists = master_fs.Exists(kSchemaFile);
  GroupMeta meta;
  if (result.meta_exists) {
    try {
      meta = ReadGroupMeta(master_fs, kSchemaFile);
      result.meta_parses = true;
      result.meta_dead_servers = ParseDeadServersAttr(meta.attributes);
      result.layout_epoch = ParseLayoutEpochAttr(meta.attributes);
    } catch (const PandaError& e) {
      result.violations.push_back(std::string("torn metadata: ") + e.what());
    }
  }
  // The recorded dead set may lag a rejoin (repair not yet committed)
  // but must never name a server that was not killed in SOME run.
  std::vector<int> ever_killed = result.dead_servers;
  for (const int s : result.dead_after_rejoin) {
    if (std::find(ever_killed.begin(), ever_killed.end(), s) ==
        ever_killed.end()) {
      ever_killed.push_back(s);
    }
  }
  for (const int s : result.meta_dead_servers) {
    if (std::find(ever_killed.begin(), ever_killed.end(), s) ==
        ever_killed.end()) {
      result.violations.push_back(
          "metadata records server " + std::to_string(s) +
          " dead but it was never killed");
    }
  }
  if (result.completed && !result.meta_parses) {
    result.violations.push_back(
        "all clients completed but no committed group metadata");
  }

  // --- Rejoin repair invariants --------------------------------------
  // A clean rejoin run (every client resumed and committed, nobody was
  // re-killed) must leave the group fully repaired: the dead set
  // cleared from metadata and the layout epoch bumped past the degraded
  // generation.
  const bool rejoin_clean =
      result.rejoin_attempted && result.rejoin_run_error.empty() &&
      rejoin_no_aborts && result.dead_after_rejoin.empty() &&
      std::none_of(rejoin_resume_failed.begin(), rejoin_resume_failed.end(),
                   [](int f) { return f != 0; }) &&
      std::all_of(result.rejoin_progress.begin(), result.rejoin_progress.end(),
                  [](int p) { return p >= 2; });
  if (rejoin_clean) {
    if (!result.meta_parses) {
      result.violations.push_back(
          "rejoin: clean rejoin run but group metadata missing or torn");
    } else {
      if (!result.meta_dead_servers.empty()) {
        result.violations.push_back(
            "rejoin: metadata still records dead servers (" +
            JoinInts(result.meta_dead_servers) + ") after a clean rejoin");
      }
      if (result.layout_epoch < 1) {
        result.violations.push_back(
            "rejoin: layout epoch not bumped by the repair (epoch=" +
            std::to_string(result.layout_epoch) + ")");
      }
    }
  }

  // --- Invariant 3: offline fsck clean -------------------------------
  std::vector<FileSystem*> all_fs;
  for (int s = 0; s < config.servers; ++s) {
    all_fs.push_back(&machine.server_fs(s));
  }
  // After a rejoin attempt only a fully clean second run has one
  // describable layout (the repaired identity one); a re-killed run 2
  // spans generations again and is out of offline-verification scope.
  result.fsck_checked =
      result.rejoin_attempted
          ? (rejoin_clean && result.meta_parses &&
             result.meta_dead_servers.empty())
          : (result.meta_parses &&
             (!config.HasKillSurface() ||
              (result.progress[0] >= 1 &&
               result.dead_at_first_commit == result.dead_servers &&
               result.meta_dead_servers == result.dead_servers)));
  if (result.fsck_checked) {
    std::string log;
    const SegmentReport segments = VerifyGroupSegments(
        all_fs, meta, config.subchunk_bytes, /*read_data=*/true, &log);
    if (!segments.Clean()) {
      result.violations.push_back("fsck segments: " + log);
    }
    log.clear();
    const JournalReport wal =
        VerifyGroupJournal(all_fs, meta, config.subchunk_bytes, &log);
    if (!wal.Clean()) {
      result.violations.push_back("fsck journal: " + log);
    }
  }

  // Data hash over every segment file this workload can have committed,
  // for terminal-state dedup (deterministic: file bytes are a function
  // of the decision assignment).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int s = 0; s < config.servers; ++s) {
    FileSystem& fs = machine.server_fs(s);
    h = HashFile(h, fs, kSchemaFile);
    for (int i = 0; i < config.arrays; ++i) {
      for (const Purpose purpose :
           {Purpose::kGeneral, Purpose::kTimestep, Purpose::kCheckpoint}) {
        const StreamFiles files = ListStreamFiles(
            fs, DataFileName(kGroupName, ArrayName(i), purpose, s));
        for (const std::string& shard : files.shards) {
          h = HashFile(h, fs, shard);
        }
      }
    }
  }
  result.data_hash = h;

  // --- Invariant 2: committed checkpoint restorable ------------------
  // Preconditions: the master client saw Checkpoint() commit; the
  // master i/o node survived (its death is fatal by design); and no
  // server died *after* the commit (a crash-stopped node's local files
  // are genuinely lost — the protocol only promises checkpoints written
  // under the layout that excludes the recorded dead set; see
  // docs/MODEL_CHECKING.md). When a rejoin run re-checkpointed, the
  // latest commit is the rejoin one: verify against its salt and
  // against the POST-rejoin dead set.
  const bool rejoin_ckpt = result.rejoin_attempted &&
                           !result.rejoin_progress.empty() &&
                           result.rejoin_progress[0] >= 2;
  const std::vector<int>& final_dead =
      result.rejoin_attempted ? result.dead_after_rejoin
                              : result.dead_servers;
  const std::uint64_t restart_salt =
      rejoin_ckpt ? kRejoinCheckpointSalt : kCheckpointSalt;
  if (result.checkpoint_committed || rejoin_ckpt) {
    if (!result.meta_parses || !meta.has_checkpoint) {
      result.violations.push_back(
          "checkpoint committed but metadata records none");
    } else if (std::find(final_dead.begin(), final_dead.end(), 0) ==
                   final_dead.end() &&
               result.meta_dead_servers == final_dead) {
      result.restart_checked = true;
      machine.SetLoss(LossSpec{});  // clean wire for the recovery run
      machine.ResetForRecovery();
      std::vector<std::int64_t> mismatches(
          static_cast<size_t>(config.clients), 0);
      std::vector<int> resume_failed(static_cast<size_t>(config.clients), 0);
      try {
        machine.Run(
            [&](Endpoint& ep, int idx) {
              PandaClient client(ep, world, machine.params());
              client.set_robustness(&machine.robustness());
              client.set_failover(true);
              auto arrays = MakeArrays(config, memory, idx);
              ArrayGroup group(kGroupName, kSchemaFile);
              for (auto& a : arrays) group.Include(a.get());
              if (!group.Resume(client)) {
                resume_failed[static_cast<size_t>(idx)] = 1;
              } else {
                group.Restart(client);
                for (int i = 0; i < config.arrays; ++i) {
                  mismatches[static_cast<size_t>(idx)] += CountMismatches(
                      *arrays[static_cast<size_t>(i)],
                      restart_salt + static_cast<std::uint64_t>(i));
                }
              }
              if (idx == 0) client.Shutdown();
            },
            [&](Endpoint& ep, int server_index) {
              ServerMain(ep, machine.server_fs(server_index), world,
                         machine.params(), options);
            });
        for (int c = 0; c < config.clients; ++c) {
          if (resume_failed[static_cast<size_t>(c)] != 0) {
            result.violations.push_back(
                "restart: client " + std::to_string(c) +
                " found no resumable metadata");
          } else if (mismatches[static_cast<size_t>(c)] != 0) {
            result.violations.push_back(
                "restart: client " + std::to_string(c) + " read " +
                std::to_string(mismatches[static_cast<size_t>(c)]) +
                " corrupt checkpoint elements");
          }
        }
      } catch (const std::exception& e) {
        result.violations.push_back(std::string("restart failed: ") +
                                    e.what());
      }
    }
  }

  return result;
}

}  // namespace panda::mc

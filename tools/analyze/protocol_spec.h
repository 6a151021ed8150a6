// The machine-readable Panda wire-protocol specification
// (tools/analyze/protocol.spec), companion to docs/PROTOCOL.md and
// input to the panda_proto analyses (proto_rules.h) and to panda_lint's
// tag-coverage (integrity classes) and span-coverage (stage list)
// rules.
//
// Grammar ('#' comments and blank lines ignored; order free except that
// a message may only reference an already-declared phase):
//
//   phase <name> [failure-capable]
//   message <tag> phase=<phase> integrity=<class> send=<roles>
//           recv=<roles> [aux]
//   boundary <function>
//   stage <path> <function>
//
// Roles: client, server, app, any (comma-separated lists allowed).
// Integrity classes: wire-crc, header-checked, control, unchecked.
// `failure-capable` marks a phase in which a peer can legally
// crash-stop while this end is parked on a receive — the deadline
// analysis only polices those phases. `aux` marks tags that are not
// MsgTag enumerators (the baseline tag space kTagApp+n declared in
// src/baselines/baseline_util.h). `boundary` names a function that
// converts transport errors into the structured PandaAbortError —
// the sinks of the error-flow escape analysis. `stage` names a protocol
// stage (repo-relative file and function) whose definition must carry
// span instrumentation.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace panda {
namespace lint {

struct PhaseSpec {
  std::string name;
  bool failure_capable = false;
  int line = 0;  // line in the spec file (for error messages)
};

struct MessageSpec {
  std::string name;
  std::string phase;
  std::string integrity;
  std::set<std::string> send_roles;
  std::set<std::string> recv_roles;
  bool aux = false;
  int line = 0;
};

struct BoundarySpec {
  std::string function;
  int line = 0;
};

struct StageSpec {
  std::string path;
  std::string function;
  int line = 0;
};

struct ProtocolSpec {
  std::vector<PhaseSpec> phases;
  std::vector<MessageSpec> messages;
  std::vector<BoundarySpec> boundaries;
  std::vector<StageSpec> stages;

  const MessageSpec* Find(const std::string& tag) const;
  const PhaseSpec* FindPhase(const std::string& name) const;
  bool FailureCapable(const std::string& phase) const;
};

// Parses spec text. On malformed input returns false and describes the
// first problem (with its line number) in *error.
bool ParseProtocolSpec(const std::string& text, ProtocolSpec* spec,
                       std::string* error);

// Reads and parses `path`. False (with *error) when unreadable or
// malformed.
bool LoadProtocolSpec(const std::string& path, ProtocolSpec* spec,
                      std::string* error);

// Graphviz export of the message choreography: one role-to-role edge
// per message, labeled with tag/phase/integrity; failure-capable-phase
// edges drawn in red. Deterministic output (spec order), so the
// checked-in docs/protocol_diagram.dot can be diffed against it in CI.
std::string ProtocolDot(const ProtocolSpec& spec);

}  // namespace lint
}  // namespace panda

// panda_lint rule registry and driver (tools/analyze).
//
// Each rule enforces one project invariant that the codebase previously
// relied on by convention (docs/ANALYSIS.md has the full catalogue):
//
//   wall-clock      no wall-clock reads outside src/sp2/, src/msg/,
//                   src/sched/ and the POSIX file-system backend —
//                   virtual time is the only clock the simulation may
//                   observe.
//   raw-io          every server disk op in src/panda/ goes through
//                   RetryPolicy::Run (transient faults must heal).
//   raw-send        mailbox/transport internals (Deposit, BlockingReceive,
//                   Poison, ...) are used only inside src/msg/ and
//                   src/sched/ (the WaitCV blocking seam).
//   raw-thread      OS threads (std::thread, std::jthread,
//                   pthread_create) are spawned only by src/msg/ and
//                   src/sched/ — everything else runs ranks through the
//                   scheduler backend seam.
//   span-coverage   protocol stage functions listed by the `stage`
//                   lines of tools/analyze/protocol.spec contain a
//                   PANDA_SPAN / RecordSpan instrumentation site.
//   tag-coverage    every MsgTag enumerator in src/msg/message.h has a
//                   `message <name> ... integrity=<class>` entry in
//                   tools/analyze/protocol.spec declaring how its
//                   payload is integrity-protected (wire-crc,
//                   header-checked, control, or unchecked).
//   header-hygiene  headers use #pragma once exactly once, never
//                   `using namespace`, and src/ headers never include
//                   <iostream>.
//   report-silence  no printf/cout/cerr in src/ outside the designated
//                   sinks (report.cc, trace/export.cc, util diagnostics)
//                   — reports stay silent-when-clean.
//   trace-no-clock  src/trace/ never advances a virtual clock — tracing
//                   observes time, it must not create it.
//
// Cross-file rules (two-phase: Scan every file, then Report with the
// whole tree in view):
//
//   error-caught    every PandaError subclass declared in src/ is
//                   caught by its exact name somewhere — an error type
//                   nobody catches is either dead weight or a protocol
//                   path nobody handles.
//   options-tested  every ServerOptions field is referenced by at least
//                   one test — an untested server knob is a config
//                   surface that can rot silently.
//
// Diagnostics are suppressible in source with
//   // panda-lint: allow(<rule>)        (this line and the next)
//   // panda-lint: allow-file(<rule>)   (whole file)
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/lexer.h"

namespace panda {
namespace lint {

struct Diagnostic {
  std::string rule;
  std::string file;  // relative to the lint root
  int line = 0;
  std::string message;

  std::string ToString() const;
};

struct LintConfig {
  // Directory walked by RunLint; rules see paths relative to it.
  std::string root = ".";
  // Subdirectories (relative to root) to scan.
  std::vector<std::string> dirs = {"src", "bench", "examples", "tests"};
  // span-coverage stage list: (relative file, function name). When
  // empty, RunLint loads the `stage` lines of tools/analyze/protocol.spec
  // under `root`; with span-coverage enabled, a missing spec or an empty
  // stage list is a usage error (RunLint throws) — the rule must never
  // pass by checking nothing.
  std::vector<std::pair<std::string, std::string>> stages;
  // tag-coverage manifest entries: (MsgTag enumerator, integrity
  // class). When empty, RunLint loads the non-aux `message` lines of
  // tools/analyze/protocol.spec under `root` (rule skipped when that
  // file does not exist).
  std::vector<std::pair<std::string, std::string>> tag_manifest;
  // Rule ids to skip entirely.
  std::set<std::string> disabled_rules;
};

struct Rule {
  std::string id;
  std::string description;
  // Appends diagnostics for one file (suppressions applied by caller).
  std::function<void(const SourceFile&, const LintConfig&,
                     std::vector<Diagnostic>*)>
      check;
};

// The registered rules, in reporting order.
const std::vector<Rule>& Registry();

// A cross-file check instance: Scan() observes each file in turn,
// Report() emits diagnostics once the whole corpus has been seen. One
// fresh instance per lint run (Scan accumulates state).
class CrossFileCheck {
 public:
  virtual ~CrossFileCheck() = default;
  virtual void Scan(const SourceFile& file, const LintConfig& config) = 0;
  virtual void Report(std::vector<Diagnostic>* out) = 0;
};

struct CrossFileRule {
  std::string id;
  std::string description;
  std::function<std::unique_ptr<CrossFileCheck>()> make;
};

// The registered cross-file rules, in reporting order.
const std::vector<CrossFileRule>& CrossFileRegistry();

// Runs every enabled rule over one tokenized file; returns unsuppressed
// diagnostics. (Unit-test entry point; RunLint uses it per file.)
std::vector<Diagnostic> CheckFile(const SourceFile& file,
                                  const LintConfig& config);

// Lints a whole corpus: per-file rules on each file plus the cross-file
// rules over the full set, suppressions applied, sorted by (file, line,
// rule). (Unit-test entry point; RunLint tokenizes the tree and calls
// this.)
std::vector<Diagnostic> CheckFiles(const std::vector<SourceFile>& files,
                                   const LintConfig& config);

// Walks config.root/config.dirs for *.h / *.cc files, lints each, and
// returns every unsuppressed diagnostic sorted by (file, line, rule).
// Throws std::runtime_error when span-coverage is enabled but no stage
// list can be loaded (the CLI's exit 2).
std::vector<Diagnostic> RunLint(const LintConfig& config);

// Walks config.root/config.dirs for *.h / *.cc files and tokenizes
// each, paths relative to root, sorted. Shared corpus loader for
// RunLint and panda_proto's RunProto.
std::vector<SourceFile> LoadCorpus(const LintConfig& config);

// Extracts span-coverage stages from protocol.spec text: each
// `stage <relative/path> <FunctionName>` line yields a (path, function)
// pair. Other lines, '#' comments and blanks are ignored.
std::vector<std::pair<std::string, std::string>> ParseStageManifest(
    const std::string& text);

// Extracts tag-coverage entries from protocol.spec text: each non-aux
// `message <tag> ... integrity=<class> ...` line yields a
// (tag, integrity class) pair. Other lines, '#' comments and blanks are
// ignored (full spec grammar: protocol_spec.h).
std::vector<std::pair<std::string, std::string>> ParseTagManifest(
    const std::string& text);

}  // namespace lint
}  // namespace panda

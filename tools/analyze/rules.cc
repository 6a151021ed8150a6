#include "analyze/rules.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace panda {
namespace lint {

namespace {

namespace fs = std::filesystem;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool AnyPrefix(const std::string& path, const std::vector<std::string>& pres) {
  for (const auto& p : pres) {
    if (StartsWith(path, p)) return true;
  }
  return false;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool IsPunct(const Token& t, char c) {
  return t.kind == TokKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}

// True when tokens[i] is an identifier immediately invoked: `ident(`.
bool IsCall(const std::vector<Token>& toks, size_t i) {
  return toks[i].kind == TokKind::kIdent && i + 1 < toks.size() &&
         IsPunct(toks[i + 1], '(');
}

// Backward lexical walk from `idx`: true when the token at `idx` sits
// inside the argument list (directly or via nested lambdas/calls) of a
// call whose callee identifier is `callee`. This is how raw-io decides
// that `file->WriteAt(...)` is wrapped by `retry.Run(..., [&] { ... })`.
// Bounded to `budget` tokens so a pathological file cannot stall lint.
bool EnclosedByCall(const std::vector<Token>& toks, size_t idx,
                    const char* callee, size_t budget = 800) {
  int depth = 0;
  size_t steps = 0;
  for (size_t j = idx; j-- > 0;) {
    if (++steps > budget) return false;
    const Token& t = toks[j];
    if (t.kind == TokKind::kPrepro) continue;
    if (t.kind != TokKind::kPunct || t.text.size() != 1) continue;
    const char c = t.text[0];
    if (c == ')' || c == ']' || c == '}') {
      ++depth;
    } else if (c == '(' || c == '[' || c == '{') {
      if (depth > 0) {
        --depth;
        continue;
      }
      // Unmatched opener: we just stepped out one enclosing level.
      if (c == '(') {
        // Find the callee identifier directly before the paren.
        size_t k = j;
        while (k-- > 0 && toks[k].kind == TokKind::kPrepro) {
        }
        if (k < toks.size() && toks[k].kind == TokKind::kIdent &&
            toks[k].text == callee) {
          return true;
        }
      }
      // Keep walking outward (depth stays 0).
    }
  }
  return false;
}

// A function definition's body: token index of its '{' and the def line.
struct BodyRange {
  size_t open = 0;   // index of '{'
  size_t close = 0;  // index of matching '}'
  int line = 0;
};

// Finds definitions of `name` in the token stream (heuristic: `name (`
// whose parameter list is followed by qualifiers and then '{'; a ';' or
// '=' means declaration/deleted — skipped, as are constructors with
// init lists).
std::vector<BodyRange> FindDefinitions(const std::vector<Token>& toks,
                                       const std::string& name) {
  std::vector<BodyRange> out;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != name) continue;
    if (!IsPunct(toks[i + 1], '(')) continue;
    // Match the parameter list.
    int depth = 0;
    size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      if (IsPunct(toks[j], '(')) ++depth;
      if (IsPunct(toks[j], ')') && --depth == 0) break;
    }
    if (j >= toks.size()) break;
    // Scan qualifiers until '{' (definition) or ';'/'='/':' (not one).
    size_t k = j + 1;
    bool is_def = false;
    for (size_t steps = 0; k < toks.size() && steps < 32; ++k, ++steps) {
      const Token& t = toks[k];
      if (IsPunct(t, '{')) {
        is_def = true;
        break;
      }
      if (IsPunct(t, ';') || IsPunct(t, '=') || IsPunct(t, ':') ||
          IsPunct(t, ',') || IsPunct(t, ')')) {
        break;
      }
      // const / noexcept / override / -> Type / && qualifiers: keep going.
    }
    if (!is_def) continue;
    // Match the body braces.
    size_t close = k;
    int bdepth = 0;
    for (; close < toks.size(); ++close) {
      if (IsPunct(toks[close], '{')) ++bdepth;
      if (IsPunct(toks[close], '}') && --bdepth == 0) break;
    }
    if (close >= toks.size()) break;
    out.push_back({k, close, toks[i].line});
    i = k;  // resume after the signature (bodies may nest lambdas)
  }
  return out;
}

void Diag(std::vector<Diagnostic>* out, const std::string& rule,
          const SourceFile& f, int line, std::string message) {
  out->push_back({rule, f.rel_path, line, std::move(message)});
}

// ---- wall-clock ------------------------------------------------------

void CheckWallClock(const SourceFile& f, const LintConfig&,
                    std::vector<Diagnostic>* out) {
  // src/sched/ is a wall-schedule layer like src/msg/: carrier dozing,
  // park deadlines and probe pacing are OS-thread mechanics, never part
  // of the virtual-time model.
  static const std::vector<std::string> kAllowed = {
      "src/sp2/", "src/msg/", "src/sched/", "src/iosim/posix_fs"};
  if (AnyPrefix(f.rel_path, kAllowed)) return;
  static const std::set<std::string> kBanned = {
      "gettimeofday",          "clock_gettime", "timespec_get",
      "system_clock",          "steady_clock",  "high_resolution_clock",
      "QueryPerformanceCounter"};
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const bool banned_name = kBanned.count(toks[i].text) != 0;
    const bool time_call = toks[i].text == "time" && IsCall(toks, i);
    if (banned_name || time_call) {
      Diag(out, "wall-clock", f, toks[i].line,
           "wall-clock source '" + toks[i].text +
               "' outside src/sp2//src/msg/ — the simulation may only "
               "observe virtual time");
    }
  }
}

// ---- raw-io ----------------------------------------------------------

void CheckRawIo(const SourceFile& f, const LintConfig&,
                std::vector<Diagnostic>* out) {
  if (!StartsWith(f.rel_path, "src/panda/") &&
      !StartsWith(f.rel_path, "src/store/")) {
    return;
  }
  // Designated raw-I/O layers: the WAL, schema metadata, the sequential
  // baseline and the shard-table codec (pure in-memory framing plus
  // table reads its callers wrap) own their durability story.
  static const std::vector<std::string> kAllowed = {
      "src/panda/journal.", "src/panda/schema_io.", "src/panda/sequential.",
      "src/store/shard_table."};
  if (AnyPrefix(f.rel_path, kAllowed)) return;
  static const std::set<std::string> kOps = {"WriteAt", "ReadAt", "Sync"};
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || kOps.count(toks[i].text) == 0) {
      continue;
    }
    if (!IsCall(toks, i)) continue;
    if (EnclosedByCall(toks, i, "Run")) continue;  // RetryPolicy::Run wrap
    Diag(out, "raw-io", f, toks[i].line,
         "direct FileSystem::" + toks[i].text +
             " outside RetryPolicy::Run — transient disk faults would "
             "not heal");
  }
}

// ---- raw-send --------------------------------------------------------

void CheckRawSend(const SourceFile& f, const LintConfig&,
                  std::vector<Diagnostic>* out) {
  // src/sched/ defines WaitCV::NotifyAll — the blocking-point seam the
  // mailbox parks fibers on — so it shares the transport's exemption.
  if (StartsWith(f.rel_path, "src/msg/") ||
      StartsWith(f.rel_path, "src/sched/")) {
    return;
  }
  static const std::set<std::string> kInternals = {
      "Deposit",        "BlockingReceive", "BlockingReceiveAny",
      "ReceiveWithin",  "ForceAbort",      "PurgeIf",
      "InstallHooks",   "NotifyAll",       "Poison"};
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        kInternals.count(toks[i].text) == 0) {
      continue;
    }
    if (!IsCall(toks, i)) continue;
    Diag(out, "raw-send", f, toks[i].line,
         "mailbox/transport internal '" + toks[i].text +
             "' used outside src/msg/ — go through Endpoint "
             "send/receive");
  }
}

// ---- raw-thread ------------------------------------------------------

// Rank concurrency belongs to the scheduler seam: src/sched/ owns the
// carriers (and the thread-per-rank backend), src/msg/ targets it. A
// bare std::thread anywhere else bypasses that seam — its blocking
// points would park a real OS thread the fiber backend cannot multiplex,
// quietly breaking the --sched=fiber 4096-rank scaling story. Auxiliary
// OS threads that are genuinely outside the rank world (a test poking a
// mailbox from the side) escape with `// panda-lint: allow(raw-thread)`.
void CheckRawThread(const SourceFile& f, const LintConfig&,
                    std::vector<Diagnostic>* out) {
  static const std::vector<std::string> kAllowed = {"src/msg/",
                                                    "src/sched/"};
  if (AnyPrefix(f.rel_path, kAllowed)) return;
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    const bool std_thread =
        (name == "thread" || name == "jthread") && i >= 3 &&
        IsIdent(toks[i - 3], "std") && IsPunct(toks[i - 2], ':') &&
        IsPunct(toks[i - 1], ':');
    const bool pthread = name == "pthread_create" && IsCall(toks, i);
    if (std_thread || pthread) {
      Diag(out, "raw-thread", f, toks[i].line,
           "raw OS thread '" + name +
               "' outside src/msg//src/sched/ — ranks run on the "
               "scheduler backend (Machine::SetSchedBackend), not ad-hoc "
               "threads");
    }
  }
}

// ---- span-coverage ---------------------------------------------------

void CheckSpanCoverage(const SourceFile& f, const LintConfig& config,
                       std::vector<Diagnostic>* out) {
  static const std::set<std::string> kSpanIdents = {
      "PANDA_SPAN", "RecordSpan", "RecordInstant", "SpanScope"};
  for (const auto& entry : config.stages) {
    if (entry.first != f.rel_path) continue;
    const std::vector<BodyRange> defs =
        FindDefinitions(f.tokens, entry.second);
    if (defs.empty()) {
      Diag(out, "span-coverage", f, 1,
           "stage function '" + entry.second +
               "' not found — update the `stage` lines of "
               "tools/analyze/protocol.spec");
      continue;
    }
    for (const BodyRange& body : defs) {
      bool has_span = false;
      for (size_t i = body.open; i <= body.close && i < f.tokens.size();
           ++i) {
        if (f.tokens[i].kind == TokKind::kIdent &&
            kSpanIdents.count(f.tokens[i].text) != 0) {
          has_span = true;
          break;
        }
      }
      if (!has_span) {
        Diag(out, "span-coverage", f, body.line,
             "protocol stage '" + entry.second +
                 "' has no PANDA_SPAN/RecordSpan — observability "
                 "coverage regressed (docs/OBSERVABILITY.md)");
      }
    }
  }
}

// ---- tag-coverage ----------------------------------------------------

// Every message tag must declare how its payload is integrity-protected
// (docs/PROTOCOL.md): `wire-crc` (payload carries a CRC32C checked by
// the receiver), `header-checked` (fixed framing fully validated on
// decode), `control` (no data payload to protect), or `unchecked`
// (application-owned payload the transport makes no promises about —
// the kTagApp space). A tag added to the enum without a spec entry is
// exactly the regression this rule exists to catch: data moving with no
// declared integrity story. The entries live in the `message` lines of
// tools/analyze/protocol.spec (which superseded the `tag` lines that
// used to sit in a separate manifest).
void CheckTagCoverage(const SourceFile& f, const LintConfig& config,
                      std::vector<Diagnostic>* out) {
  if (f.rel_path != "src/msg/message.h") return;
  if (config.tag_manifest.empty()) return;  // manifest not loaded
  static const std::set<std::string> kMechanisms = {
      "wire-crc", "header-checked", "control", "unchecked"};
  // Collect the MsgTag enumerators: identifiers directly following '{'
  // or ',' inside `enum ... MsgTag ... { ... }`.
  const auto& toks = f.tokens;
  std::vector<std::pair<std::string, int>> tags;  // (name, line)
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "enum")) continue;
    size_t j = i + 1;
    bool is_msgtag = false;
    for (; j < toks.size() && !IsPunct(toks[j], '{'); ++j) {
      if (IsIdent(toks[j], "MsgTag")) is_msgtag = true;
      if (IsPunct(toks[j], ';')) break;  // forward declaration
    }
    if (!is_msgtag || j >= toks.size() || !IsPunct(toks[j], '{')) continue;
    for (size_t k = j + 1; k < toks.size() && !IsPunct(toks[k], '}'); ++k) {
      if (toks[k].kind == TokKind::kIdent &&
          (IsPunct(toks[k - 1], '{') || IsPunct(toks[k - 1], ','))) {
        tags.emplace_back(toks[k].text, toks[k].line);
      }
    }
    i = j;
  }

  for (const auto& [name, line] : tags) {
    const auto it = std::find_if(
        config.tag_manifest.begin(), config.tag_manifest.end(),
        [&name](const auto& e) { return e.first == name; });
    if (it == config.tag_manifest.end()) {
      Diag(out, "tag-coverage", f, line,
           "message tag '" + name +
               "' has no coverage entry — declare it with a `message " +
               name + " ... integrity=<class>` line in "
               "tools/analyze/protocol.spec");
    } else if (kMechanisms.count(it->second) == 0) {
      Diag(out, "tag-coverage", f, line,
           "message tag '" + name + "' declares unknown integrity "
               "mechanism '" + it->second +
               "' (expected wire-crc, header-checked, control or "
               "unchecked)");
    }
  }
  // Stale manifest entries are as misleading as missing ones.
  for (const auto& entry : config.tag_manifest) {
    const auto it = std::find_if(
        tags.begin(), tags.end(),
        [&entry](const auto& t) { return t.first == entry.first; });
    if (it == tags.end()) {
      Diag(out, "tag-coverage", f, 1,
           "spec covers unknown message tag '" + entry.first +
               "' — remove it from tools/analyze/protocol.spec or mark "
               "it aux");
    }
  }
}

// ---- header-hygiene --------------------------------------------------

void CheckHeaderHygiene(const SourceFile& f, const LintConfig&,
                        std::vector<Diagnostic>* out) {
  if (!f.IsHeader()) return;
  if (f.pragma_once_count == 0) {
    Diag(out, "header-hygiene", f, 1,
         "header is missing #pragma once");
  } else if (f.pragma_once_count > 1) {
    Diag(out, "header-hygiene", f, f.pragma_once_line,
         "duplicate #pragma once");
  }
  const auto& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (IsIdent(toks[i], "using") && IsIdent(toks[i + 1], "namespace")) {
      Diag(out, "header-hygiene", f, toks[i].line,
           "'using namespace' in a header leaks into every includer");
    }
  }
  if (StartsWith(f.rel_path, "src/")) {
    for (const auto& inc : f.includes) {
      if (inc.second == "<iostream>") {
        Diag(out, "header-hygiene", f, inc.first,
             "<iostream> in a src/ header (static-initializer cost in "
             "every TU; include it in the .cc that prints)");
      }
    }
  }
}

// ---- report-silence --------------------------------------------------

void CheckReportSilence(const SourceFile& f, const LintConfig&,
                        std::vector<Diagnostic>* out) {
  if (!StartsWith(f.rel_path, "src/")) return;
  // Designated output sinks: the report printer, trace exporters and
  // the util diagnostics (PANDA_CHECK abort path, PANDA_LOG).
  static const std::vector<std::string> kAllowed = {
      "src/panda/report.cc", "src/trace/export.", "src/util/error.",
      "src/util/logging."};
  if (AnyPrefix(f.rel_path, kAllowed)) return;
  static const std::set<std::string> kPrintCalls = {
      "printf", "fprintf", "vprintf", "vfprintf", "puts", "fputs",
      "putchar"};
  static const std::set<std::string> kStreams = {"cout", "cerr", "clog"};
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (kPrintCalls.count(toks[i].text) != 0 && IsCall(toks, i)) {
      Diag(out, "report-silence", f, toks[i].line,
           "'" + toks[i].text +
               "' in src/ — reports are silent-when-clean; print only "
               "from report.cc / trace/export.cc");
    } else if (kStreams.count(toks[i].text) != 0) {
      Diag(out, "report-silence", f, toks[i].line,
           "std::" + toks[i].text +
               " in src/ — reports are silent-when-clean; print only "
               "from report.cc / trace/export.cc");
    }
  }
}

// ---- trace-no-clock --------------------------------------------------

void CheckTraceNoClock(const SourceFile& f, const LintConfig&,
                       std::vector<Diagnostic>* out) {
  if (!StartsWith(f.rel_path, "src/trace/")) return;
  const auto& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if ((toks[i].text == "Advance" || toks[i].text == "SyncTo") &&
        IsCall(toks, i)) {
      Diag(out, "trace-no-clock", f, toks[i].line,
           "src/trace/ calls VirtualClock::" + toks[i].text +
               " — tracing must observe time, never advance it "
               "(traced and untraced runs are bit-identical)");
    }
  }
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

const std::vector<Rule>& Registry() {
  static const std::vector<Rule>* kRules = new std::vector<Rule>{
      {"wall-clock",
       "no wall-clock sources outside src/sp2/, src/msg/, src/sched/, "
       "posix_fs",
       CheckWallClock},
      {"raw-io",
       "server disk ops in src/panda/ must go through RetryPolicy::Run",
       CheckRawIo},
      {"raw-send",
       "mailbox/transport internals stay inside src/msg/ and src/sched/",
       CheckRawSend},
      {"raw-thread",
       "OS threads are spawned only by src/msg/ and src/sched/",
       CheckRawThread},
      {"span-coverage",
       "manifest protocol stages carry PANDA_SPAN instrumentation",
       CheckSpanCoverage},
      {"tag-coverage",
       "every MsgTag declares its integrity mechanism in the manifest",
       CheckTagCoverage},
      {"header-hygiene",
       "#pragma once exactly once; no using-namespace / <iostream> in "
       "headers",
       CheckHeaderHygiene},
      {"report-silence",
       "no printing from src/ outside report.cc and trace/export.cc",
       CheckReportSilence},
      {"trace-no-clock",
       "src/trace/ never advances virtual clocks",
       CheckTraceNoClock},
  };
  return *kRules;
}

// ---- cross-file rules ------------------------------------------------

namespace {

// error-caught: every PandaError subclass declared in src/ must be
// caught by its exact name somewhere in the tree. Phase 1 collects
// class declarations (derived -> bases) and `catch (const X&)` names;
// phase 2 walks the inheritance edges transitively from PandaError and
// flags subclasses nobody names in a catch clause.
class ErrorCaughtCheck : public CrossFileCheck {
 public:
  void Scan(const SourceFile& file, const LintConfig&) override {
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
      // `class X : ... Base1 ... , ... Base2 ... {`
      if ((IsIdent(toks[i], "class") || IsIdent(toks[i], "struct")) &&
          toks[i + 1].kind == TokKind::kIdent && IsPunct(toks[i + 2], ':')) {
        Decl decl;
        decl.name = toks[i + 1].text;
        decl.file = file.rel_path;
        decl.line = toks[i + 1].line;
        decl.in_src = StartsWith(file.rel_path, "src/");
        for (size_t j = i + 3; j < toks.size() && !IsPunct(toks[j], '{') &&
                               !IsPunct(toks[j], ';');
             ++j) {
          if (toks[j].kind == TokKind::kIdent && !IsIdent(toks[j], "public") &&
              !IsIdent(toks[j], "protected") &&
              !IsIdent(toks[j], "private") && !IsIdent(toks[j], "virtual") &&
              !IsIdent(toks[j], "std")) {
            decl.bases.push_back(toks[j].text);
          }
        }
        decls_.push_back(std::move(decl));
      }
      // `catch ( const? Ns :: X &? name? )` — the caught type is the
      // last identifier inside the parens (skipping `const`).
      if (IsIdent(toks[i], "catch") && IsPunct(toks[i + 1], '(')) {
        std::string caught;
        for (size_t j = i + 2; j < toks.size() && !IsPunct(toks[j], ')');
             ++j) {
          if (toks[j].kind == TokKind::kIdent && !IsIdent(toks[j], "const")) {
            caught = toks[j].text;
          }
          if (IsPunct(toks[j], '&')) break;  // past the type, into the name
        }
        if (!caught.empty()) caught_.insert(caught);
      }
    }
  }

  void Report(std::vector<Diagnostic>* out) override {
    // Transitive closure of "derives from PandaError".
    std::set<std::string> error_types = {"PandaError"};
    for (bool grew = true; grew;) {
      grew = false;
      for (const Decl& decl : decls_) {
        if (error_types.count(decl.name) != 0) continue;
        for (const std::string& base : decl.bases) {
          if (error_types.count(base) != 0) {
            error_types.insert(decl.name);
            grew = true;
            break;
          }
        }
      }
    }
    for (const Decl& decl : decls_) {
      if (!decl.in_src || decl.name == "PandaError") continue;
      if (error_types.count(decl.name) == 0) continue;
      if (caught_.count(decl.name) != 0) continue;
      out->push_back(
          {"error-caught", decl.file, decl.line,
           "PandaError subclass '" + decl.name +
               "' is never caught by name anywhere in the tree — either "
               "some protocol path should handle it, or the type is dead"});
    }
  }

 private:
  struct Decl {
    std::string name;
    std::vector<std::string> bases;
    std::string file;
    int line = 0;
    bool in_src = false;
  };
  std::vector<Decl> decls_;
  std::set<std::string> caught_;
};

// options-tested: every field of `struct ServerOptions` (src/) must be
// referenced by at least one file under tests/. Phase 1 records the
// field declarations and every identifier the tests mention; phase 2
// flags unreferenced fields.
class OptionsTestedCheck : public CrossFileCheck {
 public:
  void Scan(const SourceFile& file, const LintConfig&) override {
    const std::vector<Token>& toks = file.tokens;
    if (StartsWith(file.rel_path, "tests/")) {
      for (const Token& t : toks) {
        if (t.kind == TokKind::kIdent) test_idents_.insert(t.text);
      }
    }
    if (!StartsWith(file.rel_path, "src/")) return;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "struct") ||
          !IsIdent(toks[i + 1], "ServerOptions") ||
          !IsPunct(toks[i + 2], '{')) {
        continue;
      }
      // Walk the struct body at depth 1. A field statement ends in `;`;
      // its name is the last identifier before the first `=` or the
      // terminating `;` (`bool x = false;`, `RetryPolicy retry;`,
      // `RobustnessStats* robustness = nullptr;`).
      int depth = 1;
      const Token* last_ident = nullptr;
      bool in_initializer = false;
      for (size_t j = i + 3; j < toks.size() && depth > 0; ++j) {
        const Token& t = toks[j];
        if (t.kind == TokKind::kPunct && t.text.size() == 1) {
          const char c = t.text[0];
          if (c == '{' || c == '(') ++depth;
          if (c == '}' || c == ')') --depth;
          if (depth == 1 && c == '=' && !in_initializer) {
            if (last_ident != nullptr) {
              fields_.push_back({last_ident->text, file.rel_path,
                                 last_ident->line});
            }
            in_initializer = true;
          }
          if (depth == 1 && c == ';') {
            if (!in_initializer && last_ident != nullptr) {
              fields_.push_back({last_ident->text, file.rel_path,
                                 last_ident->line});
            }
            in_initializer = false;
            last_ident = nullptr;
          }
        } else if (t.kind == TokKind::kIdent && depth == 1 &&
                   !in_initializer) {
          last_ident = &t;
        }
      }
    }
  }

  void Report(std::vector<Diagnostic>* out) override {
    for (const Field& field : fields_) {
      if (test_idents_.count(field.name) != 0) continue;
      out->push_back(
          {"options-tested", field.file, field.line,
           "ServerOptions field '" + field.name +
               "' is never referenced by any test — an untested server "
               "knob rots silently"});
    }
  }

 private:
  struct Field {
    std::string name;
    std::string file;
    int line = 0;
  };
  std::vector<Field> fields_;
  std::set<std::string> test_idents_;
};

}  // namespace

const std::vector<CrossFileRule>& CrossFileRegistry() {
  static const auto* kRules = new std::vector<CrossFileRule>{
      {"error-caught",
       "every PandaError subclass is caught by name somewhere",
       [] { return std::unique_ptr<CrossFileCheck>(new ErrorCaughtCheck); }},
      {"options-tested",
       "every ServerOptions field is referenced by a test",
       [] {
         return std::unique_ptr<CrossFileCheck>(new OptionsTestedCheck);
       }},
  };
  return *kRules;
}

std::vector<Diagnostic> CheckFiles(const std::vector<SourceFile>& files,
                                   const LintConfig& config) {
  std::vector<Diagnostic> diags;
  for (const SourceFile& file : files) {
    std::vector<Diagnostic> d = CheckFile(file, config);
    diags.insert(diags.end(), std::make_move_iterator(d.begin()),
                 std::make_move_iterator(d.end()));
  }

  std::vector<std::unique_ptr<CrossFileCheck>> checks;
  for (const CrossFileRule& rule : CrossFileRegistry()) {
    if (config.disabled_rules.count(rule.id) != 0) continue;
    checks.push_back(rule.make());
  }
  for (const SourceFile& file : files) {
    for (auto& check : checks) check->Scan(file, config);
  }
  std::vector<Diagnostic> cross;
  for (auto& check : checks) check->Report(&cross);
  // Suppressions for cross-file diagnostics resolve against the file
  // the diagnostic anchors to.
  for (Diagnostic& d : cross) {
    const SourceFile* anchor = nullptr;
    for (const SourceFile& file : files) {
      if (file.rel_path == d.file) {
        anchor = &file;
        break;
      }
    }
    if (anchor != nullptr && anchor->Suppressed(d.rule, d.line)) continue;
    diags.push_back(std::move(d));
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return diags;
}

std::vector<Diagnostic> CheckFile(const SourceFile& file,
                                  const LintConfig& config) {
  std::vector<Diagnostic> raw;
  for (const Rule& rule : Registry()) {
    if (config.disabled_rules.count(rule.id) != 0) continue;
    rule.check(file, config, &raw);
  }
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : raw) {
    if (!file.Suppressed(d.rule, d.line)) kept.push_back(std::move(d));
  }
  return kept;
}

std::vector<std::pair<std::string, std::string>> ParseStageManifest(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    std::string path;
    std::string fn;
    if ((fields >> keyword >> path >> fn) && keyword == "stage") {
      out.emplace_back(path, fn);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ParseTagManifest(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    std::string tag;
    if (!(fields >> keyword >> tag) || keyword != "message") continue;
    std::string attr;
    std::string integrity;
    bool aux = false;
    while (fields >> attr) {
      if (attr == "aux") aux = true;
      const std::string kKey = "integrity=";
      if (attr.rfind(kKey, 0) == 0) integrity = attr.substr(kKey.size());
    }
    // aux tags live outside the MsgTag enum (the kTagApp+n baseline
    // space) — the enum-coverage rule must not expect them there.
    if (!aux && !integrity.empty()) out.emplace_back(tag, integrity);
  }
  return out;
}

std::vector<SourceFile> LoadCorpus(const LintConfig& config) {
  // Deterministic file order: collect, sort, tokenize.
  std::vector<fs::path> files;
  for (const std::string& dir : config.dirs) {
    const fs::path base = fs::path(config.root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel =
        fs::path(fs::relative(path, config.root)).generic_string();
    sources.push_back(Tokenize(rel, buf.str()));
  }
  return sources;
}

std::vector<Diagnostic> RunLint(const LintConfig& config) {
  LintConfig cfg = config;
  // The stage list (span-coverage) and the tag integrity classes
  // (tag-coverage) both live in the wire spec.
  const fs::path spec_path =
      fs::path(cfg.root) / "tools" / "analyze" / "protocol.spec";
  std::string spec;
  {
    std::ifstream in(spec_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      spec = buf.str();
    }
  }
  if (cfg.stages.empty()) cfg.stages = ParseStageManifest(spec);
  if (cfg.stages.empty() && cfg.disabled_rules.count("span-coverage") == 0) {
    throw std::runtime_error("no `stage` lines in " + spec_path.string() +
                             ": span-coverage would check nothing");
  }
  if (cfg.tag_manifest.empty()) cfg.tag_manifest = ParseTagManifest(spec);

  // Tokenize the whole corpus first: the cross-file rules need every
  // file in view before they can report (CheckFiles runs both phases).
  return CheckFiles(LoadCorpus(cfg), cfg);
}

}  // namespace lint
}  // namespace panda

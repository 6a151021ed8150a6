// panda_lint (tools/analyze) unit tests: each project-invariant rule is
// exercised against a small fixture "tree" — one seeded violation per
// rule, asserting rule id, relative path, and line — plus the
// suppression contract (`// panda-lint: allow(...)` / allow-file) and
// the tokenizer's comment/string/raw-string handling that the rules
// depend on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/rules.h"

namespace panda {
namespace lint {
namespace {

// Lints one in-memory fixture file under `config`.
std::vector<Diagnostic> Lint(const std::string& rel_path,
                             const std::string& content,
                             LintConfig config = {}) {
  return CheckFile(Tokenize(rel_path, content), config);
}

bool HasRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return true;
  }
  return false;
}

// ---- tokenizer --------------------------------------------------------

TEST(LintLexer, CommentsAndStringsAreNotCode) {
  // The banned identifier appears only inside comments and literals:
  // the tokenizer must not surface it as an identifier token.
  const SourceFile f = Tokenize("src/panda/x.cc",
                                "// steady_clock in a line comment\n"
                                "/* steady_clock in a block\n"
                                "   comment */\n"
                                "const char* s = \"steady_clock\";\n"
                                "const char* r = R\"x(steady_clock)x\";\n");
  for (const Token& t : f.tokens) {
    EXPECT_FALSE(t.kind == TokKind::kIdent && t.text == "steady_clock")
        << "line " << t.line;
  }
  EXPECT_TRUE(Lint("src/panda/x.cc",
                   "// steady_clock\nconst char* s = \"steady_clock\";\n")
                  .empty());
}

TEST(LintLexer, PreprocessorContinuationsStayOneToken) {
  const SourceFile f = Tokenize("src/panda/x.cc",
                                "#define M(a) \\\n  do_thing(a)\n"
                                "int y = 0;\n");
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens[0].kind, TokKind::kPrepro);
  // The continuation is folded into the directive's logical line.
  EXPECT_NE(f.tokens[0].text.find("do_thing"), std::string::npos);
}

TEST(LintLexer, TracksPragmaOnceAndIncludes) {
  const SourceFile f = Tokenize("src/panda/x.h",
                                "#pragma once\n"
                                "#include <vector>\n"
                                "#include \"panda/server.h\"\n");
  EXPECT_TRUE(f.IsHeader());
  EXPECT_EQ(f.pragma_once_count, 1);
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].second, "<vector>");
  EXPECT_EQ(f.includes[1].second, "\"panda/server.h\"");
}

// ---- wall-clock -------------------------------------------------------

TEST(LintRules, WallClockBannedOutsideTimingLayers) {
  const std::vector<Diagnostic> diags =
      Lint("src/panda/client.cc",
           "void f() {\n"
           "  auto t0 = std::chrono::steady_clock::now();\n"
           "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "wall-clock");
  EXPECT_EQ(diags[0].file, "src/panda/client.cc");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintRules, WallClockAllowedInWhitelistedLayers) {
  const std::string code =
      "void f() { auto t = std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(Lint("src/sp2/params.cc", code).empty());
  EXPECT_TRUE(Lint("src/msg/mailbox.cc", code).empty());
  EXPECT_TRUE(Lint("src/sched/wait.cc", code).empty());
  EXPECT_TRUE(Lint("src/iosim/posix_fs.cc", code).empty());
}

TEST(LintRules, WallClockCatchesTimeCallNotTimeWord) {
  EXPECT_TRUE(HasRule(Lint("src/panda/x.cc", "long t = time(nullptr);\n"),
                      "wall-clock"));
  // `time` as a plain identifier (variable name, member) is fine.
  EXPECT_TRUE(Lint("src/panda/x.cc", "double time = 0.0;\n").empty());
}

// ---- raw-io -----------------------------------------------------------

TEST(LintRules, RawIoOutsideRetryRunFlagged) {
  const std::vector<Diagnostic> diags =
      Lint("src/panda/server.cc",
           "void f(File* file) {\n"
           "  file->WriteAt(0, data, 64);\n"
           "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "raw-io");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintRules, RawIoInsideRetryRunIsClean) {
  EXPECT_TRUE(Lint("src/panda/server.cc",
                   "void f(File* file) {\n"
                   "  retry.Run(&clock, stats, [&] {\n"
                   "    file->WriteAt(0, data, 64);\n"
                   "  });\n"
                   "}\n")
                  .empty());
}

TEST(LintRules, RawIoIgnoresDesignatedLayersAndOtherDirs) {
  const std::string code = "void f(File* file) { file->Sync(); }\n";
  EXPECT_TRUE(Lint("src/panda/journal.cc", code).empty());
  EXPECT_TRUE(Lint("src/panda/schema_io.cc", code).empty());
  EXPECT_TRUE(Lint("src/store/shard_table.cc", code).empty());
  EXPECT_TRUE(Lint("src/iosim/sim_fs.cc", code).empty());
  EXPECT_TRUE(HasRule(Lint("src/panda/server.cc", code), "raw-io"));
}

// ---- raw-send ---------------------------------------------------------

TEST(LintRules, RawSendInternalsFlaggedOutsideMsg) {
  const std::vector<Diagnostic> diags =
      Lint("src/panda/client.cc",
           "void f(Mailbox& mb, Message m) {\n"
           "  mb.Deposit(std::move(m));\n"
           "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "raw-send");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintRules, RawSendAllowedInsideMsg) {
  EXPECT_TRUE(Lint("src/msg/transport.cc",
                   "void f(Mailbox& mb, Message m) {\n"
                   "  mb.Deposit(std::move(m));\n"
                   "}\n")
                  .empty());
}

// ---- raw-thread -------------------------------------------------------

TEST(LintRules, RawThreadFlaggedOutsideSchedulerLayers) {
  const std::vector<Diagnostic> diags =
      Lint("src/panda/server.cc",
           "void f() {\n"
           "  std::thread t([] {});\n"
           "  t.join();\n"
           "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "raw-thread");
  EXPECT_EQ(diags[0].file, "src/panda/server.cc");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_TRUE(HasRule(Lint("bench/bench_x.cc",
                           "void f() { std::jthread t([] {}); }\n"),
                      "raw-thread"));
  EXPECT_TRUE(HasRule(
      Lint("src/panda/server.cc",
           "void f() { pthread_create(&tid, nullptr, run, nullptr); }\n"),
      "raw-thread"));
}

TEST(LintRules, RawThreadAllowedInSchedulerLayers) {
  const std::string code = "void f() { std::thread t([] {}); t.join(); }\n";
  EXPECT_TRUE(Lint("src/sched/fiber_scheduler.cc", code).empty());
  EXPECT_TRUE(Lint("src/msg/transport.cc", code).empty());
}

TEST(LintRules, RawThreadIgnoresUnqualifiedThreadIdent) {
  // A member/variable named `thread` and std::thread utility reads
  // (hardware_concurrency, this_thread) are not thread spawns.
  EXPECT_TRUE(Lint("src/panda/server.cc", "int thread = 0;\n").empty());
  EXPECT_TRUE(
      Lint("src/panda/server.cc",
           "void f() { std::this_thread::yield(); }\n")
          .empty());
}

TEST(LintRules, RawThreadSuppressibleInline) {
  EXPECT_TRUE(Lint("tests/x_test.cc",
                   "void f() {\n"
                   "  // panda-lint: allow(raw-thread)\n"
                   "  std::thread t([] {});\n"
                   "}\n")
                  .empty());
}

// ---- span-coverage ----------------------------------------------------

TEST(LintRules, SpanCoverageFlagsUninstrumentedStage) {
  LintConfig config;
  config.stages = {{"src/panda/server.cc", "ServerWriteArray"}};
  const std::vector<Diagnostic> diags =
      Lint("src/panda/server.cc",
           "void ServerWriteArray(Endpoint& ep) {\n"
           "  do_work(ep);\n"
           "}\n",
           config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "span-coverage");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, SpanCoverageAcceptsInstrumentedStage) {
  LintConfig config;
  config.stages = {{"src/panda/server.cc", "ServerWriteArray"}};
  EXPECT_TRUE(Lint("src/panda/server.cc",
                   "void ServerWriteArray(Endpoint& ep) {\n"
                   "  PANDA_SPAN(span, trace::SpanKind::kServerWrite, 0);\n"
                   "  do_work(ep);\n"
                   "}\n",
                   config)
                  .empty());
}

TEST(LintRules, SpanCoverageFlagsMissingManifestFunction) {
  LintConfig config;
  config.stages = {{"src/panda/server.cc", "NoSuchStage"}};
  const std::vector<Diagnostic> diags =
      Lint("src/panda/server.cc", "void Other() {}\n", config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "span-coverage");
  EXPECT_NE(diags[0].message.find("not found"), std::string::npos);
}

TEST(LintRules, SpanManifestParserSkipsCommentsAndBlanks) {
  // The stage list is the `stage` lines of protocol.spec; comments,
  // blanks and the spec's other line kinds are skipped.
  const auto entries = ParseStageManifest(
      "# protocol stages\n"
      "\n"
      "phase data\n"
      "stage src/panda/server.cc ServerWriteArray\n"
      "boundary ServerMain\n"
      "stage src/msg/transport.cc DoSend  # trailing comment\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "src/panda/server.cc");
  EXPECT_EQ(entries[0].second, "ServerWriteArray");
  EXPECT_EQ(entries[1].second, "DoSend");
}

// ---- tag-coverage -----------------------------------------------------

namespace {
const char kMsgTagFixture[] =
    "#pragma once\n"
    "enum MsgTag : int {\n"
    "  kTagPieceData = 4,\n"
    "  kTagBarrier = 8,\n"
    "};\n";
}  // namespace

TEST(LintRules, TagCoverageFlagsUncoveredTag) {
  LintConfig config;
  // Seeded violation: kTagBarrier exists in the enum but the manifest
  // declares no integrity mechanism for it.
  config.tag_manifest = {{"kTagPieceData", "wire-crc"}};
  const std::vector<Diagnostic> diags =
      Lint("src/msg/message.h", kMsgTagFixture, config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "tag-coverage");
  EXPECT_EQ(diags[0].file, "src/msg/message.h");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("kTagBarrier"), std::string::npos);
}

TEST(LintRules, TagCoverageAcceptsFullyCoveredEnum) {
  LintConfig config;
  config.tag_manifest = {{"kTagPieceData", "wire-crc"},
                         {"kTagBarrier", "control"}};
  EXPECT_TRUE(Lint("src/msg/message.h", kMsgTagFixture, config).empty());
}

TEST(LintRules, TagCoverageFlagsUnknownMechanismAndStaleEntry) {
  LintConfig config;
  config.tag_manifest = {{"kTagPieceData", "pinky-swear"},
                         {"kTagBarrier", "control"},
                         {"kTagGone", "control"}};
  const std::vector<Diagnostic> diags =
      Lint("src/msg/message.h", kMsgTagFixture, config);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(HasRule(diags, "tag-coverage"));
  bool saw_mechanism = false;
  bool saw_stale = false;
  for (const Diagnostic& d : diags) {
    if (d.message.find("pinky-swear") != std::string::npos) {
      saw_mechanism = true;
    }
    if (d.message.find("kTagGone") != std::string::npos) saw_stale = true;
  }
  EXPECT_TRUE(saw_mechanism);
  EXPECT_TRUE(saw_stale);
}

TEST(LintRules, TagCoverageOnlyAppliesToMessageHeader) {
  LintConfig config;
  config.tag_manifest = {{"kTagPieceData", "wire-crc"}};
  // Same enum elsewhere: not the protocol header, not this rule's
  // business.
  EXPECT_TRUE(Lint("src/panda/other.h", kMsgTagFixture, config).empty());
}

TEST(LintRules, TagManifestParserReadsProtocolSpecMessageLines) {
  // Tag-coverage entries come from protocol.spec since panda_proto
  // subsumed the old span_manifest `tag` lines: each non-aux message
  // line yields (tag, integrity class); aux tags live outside the
  // MsgTag enum and must not be expected there.
  const std::string text =
      "# spec\n"
      "phase data\n"
      "message kTagPieceData phase=data integrity=wire-crc "
      "send=client recv=server  # payload crc\n"
      "message kTagBarrier phase=data integrity=control "
      "send=server recv=server\n"
      "message kTagIoReply phase=data integrity=unchecked "
      "send=app recv=app aux\n"
      "boundary ServerMain\n";
  const auto tags = ParseTagManifest(text);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0].first, "kTagPieceData");
  EXPECT_EQ(tags[0].second, "wire-crc");
  EXPECT_EQ(tags[1].first, "kTagBarrier");
  EXPECT_EQ(tags[1].second, "control");
  // The same text declares no stages: span-coverage reads only the
  // `stage` lines.
  EXPECT_TRUE(ParseStageManifest(text).empty());
}

TEST(LintRules, MissingStageListIsAUsageError) {
  // A root without tools/analyze/protocol.spec (or whose spec declares
  // no stage) must not let span-coverage pass by checking nothing: the
  // CLI turns the throw into exit 2. Disabling the rule lifts the need.
  LintConfig config;
  config.root = ::testing::TempDir();
  config.dirs = {};
  EXPECT_THROW(RunLint(config), std::runtime_error);
  config.disabled_rules.insert("span-coverage");
  EXPECT_NO_THROW(RunLint(config));
}

// ---- header-hygiene ---------------------------------------------------

TEST(LintRules, HeaderHygieneMissingPragmaOnce) {
  const std::vector<Diagnostic> diags =
      Lint("src/panda/x.h", "int f();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "header-hygiene");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, HeaderHygieneUsingNamespaceAndIostream) {
  const std::vector<Diagnostic> diags =
      Lint("src/panda/x.h",
           "#pragma once\n"
           "#include <iostream>\n"
           "using namespace std;\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(HasRule(diags, "header-hygiene"));
  // Sources (.cc) may include <iostream> and use using-namespace.
  EXPECT_TRUE(Lint("src/panda/report.cc",
                   "#include <iostream>\nusing namespace std;\n")
                  .empty());
}

// ---- report-silence ---------------------------------------------------

TEST(LintRules, ReportSilenceFlagsPrintingInSrc) {
  EXPECT_TRUE(HasRule(
      Lint("src/panda/plan.cc", "void f() { printf(\"x\"); }\n"),
      "report-silence"));
  EXPECT_TRUE(HasRule(
      Lint("src/panda/plan.cc", "void f() { std::cerr << 1; }\n"),
      "report-silence"));
}

TEST(LintRules, ReportSilenceAllowsDesignatedSinksAndNonSrc) {
  const std::string code = "void f() { printf(\"x\"); }\n";
  EXPECT_TRUE(Lint("src/panda/report.cc", code).empty());
  EXPECT_TRUE(Lint("src/trace/export.cc", code).empty());
  EXPECT_TRUE(Lint("bench/bench_fig4.cc", code).empty());
  EXPECT_TRUE(Lint("examples/demo.cc", code).empty());
}

// ---- trace-no-clock ---------------------------------------------------

TEST(LintRules, TraceNeverAdvancesVirtualClocks) {
  const std::vector<Diagnostic> diags =
      Lint("src/trace/trace.cc", "void f(VirtualClock& c) { c.Advance(1.0); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "trace-no-clock");
  // Reading the clock is what tracing does — allowed.
  EXPECT_TRUE(
      Lint("src/trace/trace.cc", "double f(VirtualClock& c) { return c.Now(); }\n")
          .empty());
}

// ---- suppressions -----------------------------------------------------

TEST(LintSuppress, AllowOnSameLine) {
  EXPECT_TRUE(Lint("src/panda/x.cc",
                   "auto t = std::chrono::steady_clock::now();"
                   "  // panda-lint: allow(wall-clock)\n")
                  .empty());
}

TEST(LintSuppress, AllowOnPrecedingLineShieldsNextLine) {
  EXPECT_TRUE(Lint("src/panda/x.cc",
                   "// panda-lint: allow(wall-clock)\n"
                   "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(LintSuppress, AllowWrongRuleDoesNotSuppress) {
  EXPECT_TRUE(HasRule(Lint("src/panda/x.cc",
                           "// panda-lint: allow(raw-io)\n"
                           "auto t = std::chrono::steady_clock::now();\n"),
                      "wall-clock"));
}

TEST(LintSuppress, AllowStarSuppressesEveryRule) {
  EXPECT_TRUE(Lint("src/panda/x.cc",
                   "// panda-lint: allow(*)\n"
                   "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(LintSuppress, AllowFileCoversWholeFile) {
  EXPECT_TRUE(Lint("src/panda/x.cc",
                   "// panda-lint: allow-file(wall-clock)\n"
                   "void f() {\n"
                   "  auto a = std::chrono::steady_clock::now();\n"
                   "  auto b = std::chrono::system_clock::now();\n"
                   "}\n")
                  .empty());
}

TEST(LintSuppress, DisabledRulesAreSkipped) {
  LintConfig config;
  config.disabled_rules = {"wall-clock"};
  EXPECT_TRUE(Lint("src/panda/x.cc",
                   "auto t = std::chrono::steady_clock::now();\n", config)
                  .empty());
}

// ---- cross-file rules -------------------------------------------------

// Lints a fixture corpus through the two-phase cross-file path.
std::vector<Diagnostic> LintCorpus(
    const std::vector<std::pair<std::string, std::string>>& fixture,
    LintConfig config = {}) {
  std::vector<SourceFile> files;
  for (const auto& [rel, content] : fixture) {
    files.push_back(Tokenize(rel, content));
  }
  // The fixtures are tiny headerless snippets: disable the per-file
  // rules so only the cross-file phases speak.
  for (const Rule& rule : Registry()) config.disabled_rules.insert(rule.id);
  return CheckFiles(files, config);
}

TEST(LintCrossFile, UncaughtErrorSubclassFlagged) {
  const auto diags = LintCorpus(
      {{"src/util/error.h",
        "class PandaError {};\n"
        "class LonelyError : public PandaError {};\n"},
       {"src/panda/x.cc", "void f() { throw LonelyError(); }\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "error-caught");
  EXPECT_EQ(diags[0].file, "src/util/error.h");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("LonelyError"), std::string::npos);
}

TEST(LintCrossFile, CaughtAnywhereInTheTreeIsClean) {
  // The declaration and the catch live in different files — exactly the
  // case a per-file rule cannot see.
  EXPECT_TRUE(LintCorpus({{"src/util/error.h",
                           "class PandaError {};\n"
                           "class LonelyError : public PandaError {};\n"},
                          {"tests/x_test.cc",
                           "void f() {\n"
                           "  try { g(); } catch (const LonelyError& e) {}\n"
                           "}\n"}})
                  .empty());
}

TEST(LintCrossFile, TransitiveSubclassesAreCovered) {
  // B derives PandaError only through A: the closure must still reach
  // it, and catching A does not excuse B.
  const auto diags = LintCorpus(
      {{"src/util/error.h",
        "class PandaError {};\n"
        "class AError : public PandaError {};\n"
        "class BError : public AError {};\n"},
       {"src/panda/x.cc",
        "void f() { try { g(); } catch (const AError& e) {} }\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "error-caught");
  EXPECT_NE(diags[0].message.find("BError"), std::string::npos);
}

TEST(LintCrossFile, NonSrcErrorDeclarationsIgnored) {
  // A test-local error type is harness scaffolding, not protocol
  // surface: the rule only audits src/.
  EXPECT_TRUE(LintCorpus({{"src/util/error.h", "class PandaError {};\n"},
                          {"tests/x_test.cc",
                           "class FixtureError : public PandaError {};\n"}})
                  .empty());
}

TEST(LintCrossFile, UntestedServerOptionFlagged) {
  const auto diags = LintCorpus(
      {{"src/panda/server.h",
        "struct ServerOptions {\n"
        "  bool failover = false;\n"
        "  bool untested_knob = false;\n"
        "  RetryPolicy retry;\n"
        "};\n"},
       {"tests/x_test.cc",
        "void f() { ServerOptions o; o.failover = true; (void)o.retry; }\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "options-tested");
  EXPECT_EQ(diags[0].file, "src/panda/server.h");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("untested_knob"), std::string::npos);
}

TEST(LintCrossFile, PointerAndInitializerFieldsParse) {
  // Field extraction must see through `Type* name = nullptr;` and plain
  // `Type name;` declarations alike.
  const auto diags = LintCorpus(
      {{"src/panda/server.h",
        "struct ServerOptions {\n"
        "  RobustnessStats* robustness = nullptr;\n"
        "  int num_applications = 1;\n"
        "};\n"},
       {"tests/x_test.cc", "void f() { o.robustness = &stats; }\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("num_applications"), std::string::npos);
}

TEST(LintCrossFile, SuppressionsApplyToCrossFileDiagnostics) {
  EXPECT_TRUE(
      LintCorpus(
          {{"src/util/error.h",
            "class PandaError {};\n"
            "// panda-lint: allow(error-caught)\n"
            "class LonelyError : public PandaError {};\n"}})
          .empty());
}

TEST(LintCrossFile, DisabledCrossFileRulesAreSkipped) {
  LintConfig config;
  config.disabled_rules = {"error-caught", "options-tested"};
  EXPECT_TRUE(LintCorpus({{"src/util/error.h",
                           "class PandaError {};\n"
                           "class LonelyError : public PandaError {};\n"}},
                         config)
                  .empty());
}

TEST(LintCrossFile, RealTreeIsClean) {
  // The rules gate CI (tools/ci.sh): the actual repository must satisfy
  // both of them. Walk the real tree from the source root.
  LintConfig config;
  config.root = PANDA_LINT_ROOT;
  std::vector<Diagnostic> cross;
  for (const Diagnostic& d : RunLint(config)) {
    if (d.rule == "error-caught" || d.rule == "options-tested") {
      cross.push_back(d);
    }
  }
  for (const Diagnostic& d : cross) ADD_FAILURE() << d.ToString();
}

// ---- diagnostics ------------------------------------------------------

TEST(LintDiag, ToStringIsFileLineRuleMessage) {
  const Diagnostic d{"wall-clock", "src/panda/x.cc", 7, "boom"};
  EXPECT_EQ(d.ToString(), "src/panda/x.cc:7: [wall-clock] boom");
}

TEST(LintDiag, RegistryExposesAllRules) {
  std::vector<std::string> ids;
  for (const Rule& rule : Registry()) ids.push_back(rule.id);
  const std::vector<std::string> expected = {
      "wall-clock",     "raw-io",         "raw-send",
      "raw-thread",     "span-coverage",  "tag-coverage",
      "header-hygiene", "report-silence", "trace-no-clock"};
  EXPECT_EQ(ids, expected);
}

}  // namespace
}  // namespace lint
}  // namespace panda

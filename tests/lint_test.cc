// End-to-end tests for tools/kdsel_lint. The binary is run as a
// subprocess (paths injected by CMake via KDSEL_LINT_BIN /
// KDSEL_SOURCE_DIR) against the fixture sources in tests/lint_fixtures/
// and against the real tree in --self-check mode.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#ifndef KDSEL_LINT_BIN
#error "KDSEL_LINT_BIN must be defined by the build"
#endif
#ifndef KDSEL_SOURCE_DIR
#error "KDSEL_SOURCE_DIR must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs the lint binary with `args`, capturing stdout (diagnostics go to
// stdout; the summary line goes to stderr and is not captured).
RunResult RunLint(const std::string& args) {
  RunResult result;
  const std::string command = std::string(KDSEL_LINT_BIN) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.stdout_text.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

std::string FixturePath(const std::string& name) {
  return std::string(KDSEL_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

std::string RootArgs(const std::string& extra) {
  std::string args = "--root ";
  args += KDSEL_SOURCE_DIR;
  args += " ";
  args += extra;
  return args;
}

TEST(LintTest, ViolationsFixtureProducesExactDiagnostics) {
  const RunResult result = RunLint(RootArgs(FixturePath("violations.cc")));
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 9u) << result.stdout_text;

  const std::string prefix = "tests/lint_fixtures/violations.cc:";
  const std::vector<std::string> expected = {
      prefix +
          "21: discarded-status: result of Status-returning call 'DoWork' is "
          "discarded; check it, propagate it with KDSEL_RETURN_NOT_OK, or "
          "assert on it",
      prefix +
          "24: unchecked-value: .value() without a nearby ok()/has_value() "
          "check aborts on error; check first or propagate with "
          "KDSEL_ASSIGN_OR_RETURN",
      prefix +
          "26: naked-new: raw 'new' allocation; use "
          "std::make_unique/std::make_shared or a container",
      prefix +
          "28: raw-parse: 'stol' outside common/: it throws or silently "
          "wraps; use kdsel::ParseUint64 (stringutil.h)",
      prefix +
          "30: nonreproducible-random: unseeded/wall-clock randomness breaks "
          "bit-for-bit reproducibility; use kdsel::Rng with an explicit seed",
      prefix +
          "34: lock-across-score: detector Score() runs while a mutex guard "
          "is live; scoring is slow and must happen off-lock (clone or "
          "snapshot instead)",
      prefix +
          "37: raw-thread: 'std::thread' outside src/common/, src/serve/ and "
          "src/net/ bypasses the shared pool; use kdsel::ParallelFor or "
          "ThreadPool (common/parallel.h)",
      prefix +
          "40: raw-simd: raw SIMD outside src/nn/kernels/ bypasses runtime "
          "dispatch and the scalar fallback; add a kernel to nn::kernels and "
          "call it through Dispatch()",
      prefix +
          "43: raw-timing: 'steady_clock' outside src/obs/, src/common/ and "
          "bench/; time through obs::Clock/NowNs (obs/clock.h) or record a "
          "span/histogram so all durations share one timebase",
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "diagnostic " << i;
  }
}

// NDJSON hand-parsing on the streaming wire path is the raw-parse
// rule's marquee catch: strtod/atoi silently accept trailing garbage and
// locale-dependent formats. Stream input must flow through
// serve::Json::Parse + the strict kdsel::Parse* helpers instead.
TEST(LintTest, StreamNdjsonFixtureCatchesHandParsing) {
  const RunResult result = RunLint(RootArgs(FixturePath("stream_ndjson.cc")));
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 2u) << result.stdout_text;

  const std::string prefix = "tests/lint_fixtures/stream_ndjson.cc:";
  EXPECT_EQ(lines[0],
            prefix +
                "19: raw-parse: 'strtod' outside common/: it throws or "
                "silently wraps; use kdsel::ParseUint64 (stringutil.h)");
  EXPECT_EQ(lines[1],
            prefix +
                "25: raw-parse: 'atoi' outside common/: it throws or "
                "silently wraps; use kdsel::ParseUint64 (stringutil.h)");
}

// Ad-hoc socket plumbing outside src/net/ sidesteps the event loop's
// nonblocking setup, backpressure and SLO shedding; the raw-socket rule
// routes it to net::NetServer.
TEST(LintTest, RawSocketFixtureCatchesAdHocSockets) {
  const RunResult result = RunLint(RootArgs(FixturePath("raw_socket.cc")));
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 4u) << result.stdout_text;

  const std::string prefix = "tests/lint_fixtures/raw_socket.cc:";
  const std::string tail =
      "' outside src/net/ bypasses the event loop's nonblocking setup, "
      "backpressure and shedding; serve through net::NetServer "
      "(net/server.h)";
  EXPECT_EQ(lines[0], prefix + "17: raw-socket: 'socket" + tail);
  EXPECT_EQ(lines[1], prefix + "19: raw-socket: 'epoll_create1" + tail);
  EXPECT_EQ(lines[2], prefix + "24: raw-socket: 'epoll_ctl" + tail);
  EXPECT_EQ(lines[3], prefix + "25: raw-socket: 'accept4" + tail);
}

// Ad-hoc timestamping in net-layer code: the raw-timing rule catches
// the C-level bypasses (clock_gettime/gettimeofday) alongside the
// std::chrono clocks, so every request stage stamp flows through
// obs::NowNs and shares one steady timebase. Member declarations and
// member calls that merely reuse a syscall's name stay clean.
TEST(LintTest, NetClockFixtureCatchesAdHocTimestamps) {
  const RunResult result = RunLint(RootArgs(FixturePath("net_clock.cc")));
  EXPECT_EQ(result.exit_code, 1);

  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 3u) << result.stdout_text;

  const std::string prefix = "tests/lint_fixtures/net_clock.cc:";
  const std::string call_tail =
      "' outside src/obs/, src/common/ and bench/; stamp through "
      "obs::NowNs (obs/clock.h) so request stage timings share one "
      "steady timebase";
  EXPECT_EQ(lines[0],
            prefix + "21: raw-timing: 'clock_gettime" + call_tail);
  EXPECT_EQ(lines[1], prefix + "28: raw-timing: 'gettimeofday" + call_tail);
  EXPECT_EQ(lines[2],
            prefix +
                "35: raw-timing: 'steady_clock' outside src/obs/, "
                "src/common/ and bench/; time through obs::Clock/NowNs "
                "(obs/clock.h) or record a span/histogram so all durations "
                "share one timebase");
}

TEST(LintTest, SuppressedFixtureIsClean) {
  const RunResult result = RunLint(RootArgs(FixturePath("suppressed.cc")));
  EXPECT_EQ(result.exit_code, 0) << result.stdout_text;
  EXPECT_TRUE(result.stdout_text.empty()) << result.stdout_text;
}

TEST(LintTest, CleanFixtureIsClean) {
  const RunResult result = RunLint(RootArgs(FixturePath("clean.cc")));
  EXPECT_EQ(result.exit_code, 0) << result.stdout_text;
  EXPECT_TRUE(result.stdout_text.empty()) << result.stdout_text;
}

// The combined fixture directory scan sees all fixture files at once,
// so cross-file symbol collection (Status names, classes, the call
// graph) must not bleed findings between fixtures. Diagnostics sort by
// file: guarded_by (2), hot_alloc (6), lock_cycle_a (1), lock_cycle_b
// (1), net_clock (3), raw_socket (4), stream_ndjson (2), violations (9)
// -- 28 total.
TEST(LintTest, FixtureDirectoryScanMatchesPerFileResults) {
  const RunResult result =
      RunLint(RootArgs(std::string(KDSEL_SOURCE_DIR) + "/tests/lint_fixtures"));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 28u) << result.stdout_text;
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"guarded_by.cc", "guarded-by"},
      {"guarded_by.cc", "guarded-by"},
      {"hot_alloc.cc", "alloc-in-hot-path"},
      {"hot_alloc.cc", "alloc-in-hot-path"},
      {"hot_alloc.cc", "alloc-in-hot-path"},
      {"hot_alloc.cc", "alloc-in-hot-path"},
      {"hot_alloc.cc", "alloc-in-hot-path"},
      {"hot_alloc.cc", "alloc-in-hot-path"},
      {"lock_cycle_a.cc", "lock-order-inversion"},
      {"lock_cycle_b.cc", "lock-order-inversion"},
      {"net_clock.cc", "raw-timing"},
      {"net_clock.cc", "raw-timing"},
      {"net_clock.cc", "raw-timing"},
      {"raw_socket.cc", "raw-socket"},
      {"raw_socket.cc", "raw-socket"},
      {"raw_socket.cc", "raw-socket"},
      {"raw_socket.cc", "raw-socket"},
      {"stream_ndjson.cc", "raw-parse"},
      {"stream_ndjson.cc", "raw-parse"},
      {"violations.cc", "discarded-status"},
      {"violations.cc", "unchecked-value"},
      {"violations.cc", "naked-new"},
      {"violations.cc", "raw-parse"},
      {"violations.cc", "nonreproducible-random"},
      {"violations.cc", "lock-across-score"},
      {"violations.cc", "raw-thread"},
      {"violations.cc", "raw-simd"},
      {"violations.cc", "raw-timing"},
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NE(lines[i].find(expected[i].first), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find(expected[i].second), std::string::npos)
        << lines[i];
  }
}

// lock-order-inversion: the two fixture halves form a cross-file cycle.
// lock_cycle_a holds gm_first and calls into lock_cycle_b (transitive
// acquisition of gm_second through the call graph); lock_cycle_b nests
// the opposite direct order. Both edges of the cycle are diagnosed,
// each citing the opposite edge's location.
TEST(LintTest, LockCycleFixtureDiagnosesBothEdges) {
  const RunResult result = RunLint(
      RootArgs(FixturePath("lock_cycle_a.cc") + " " +
               FixturePath("lock_cycle_b.cc")));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 2u) << result.stdout_text;
  EXPECT_EQ(lines[0],
            "tests/lint_fixtures/lock_cycle_a.cc:22: lock-order-inversion: "
            "mutex 'gm_second' can be acquired (via call to "
            "'CrossLockSecond') while 'gm_first' is held, but the opposite "
            "order exists at tests/lint_fixtures/lock_cycle_b.cc:22; "
            "establish a single global lock order");
  EXPECT_EQ(lines[1],
            "tests/lint_fixtures/lock_cycle_b.cc:22: lock-order-inversion: "
            "mutex 'gm_first' is acquired while 'gm_second' is held, but "
            "the opposite order exists at "
            "tests/lint_fixtures/lock_cycle_a.cc:22; establish a single "
            "global lock order");
}

// A single consistent order (only lock_cycle_b's ReverseOrder nesting,
// without the opposing file) is NOT an inversion: the rule diagnoses
// cycles, not nesting.
TEST(LintTest, ConsistentLockOrderAloneIsClean) {
  const RunResult result = RunLint(RootArgs(FixturePath("lock_cycle_b.cc")));
  EXPECT_EQ(result.exit_code, 0) << result.stdout_text;
  EXPECT_TRUE(result.stdout_text.empty()) << result.stdout_text;
}

// guarded-by: a KDSEL_GUARDED_BY member accessed without its mutex and
// a KDSEL_REQUIRES helper called without the lock are both diagnosed;
// the locked accessor and the annotated helper body are not.
TEST(LintTest, GuardedByFixtureProducesExactDiagnostics) {
  const RunResult result = RunLint(RootArgs(FixturePath("guarded_by.cc")));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 2u) << result.stdout_text;
  EXPECT_EQ(lines[0],
            "tests/lint_fixtures/guarded_by.cc:27: guarded-by: member "
            "'hits_' is guarded by 'mu_' (KDSEL_GUARDED_BY) but accessed "
            "without it held; take the lock or annotate the function with "
            "KDSEL_REQUIRES(mu_)");
  EXPECT_EQ(lines[1],
            "tests/lint_fixtures/guarded_by.cc:31: guarded-by: call to "
            "'BumpLocked' requires 'mu_' held (KDSEL_REQUIRES) but it is "
            "not; take the lock before calling");
}

// alloc-in-hot-path: growth with no reserve anywhere, transitive
// reachability through the call graph (HotIngest -> AppendStaging),
// allocating std:: formatting, the KDSEL_ALLOC_OK pruning boundary, and
// the reserve-proven receiver exemption.
TEST(LintTest, HotAllocFixtureProducesExactDiagnostics) {
  const RunResult result = RunLint(RootArgs(FixturePath("hot_alloc.cc")));
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 6u) << result.stdout_text;
  EXPECT_EQ(lines[0],
            "tests/lint_fixtures/hot_alloc.cc:22: alloc-in-hot-path: "
            "'push_back' on 'g_staging' allocates (no reserve() for "
            "'g_staging' anywhere in the tree) on the hot path 'HotIngest "
            "-> AppendStaging'; reserve in setup or mark a KDSEL_ALLOC_OK "
            "boundary");
  EXPECT_EQ(lines[1],
            "tests/lint_fixtures/hot_alloc.cc:36: alloc-in-hot-path: "
            "'push_back' on 'ring' allocates (no reserve() for 'ring' "
            "anywhere in the tree) on the hot path 'HotIngest'; reserve in "
            "setup or mark a KDSEL_ALLOC_OK boundary");
  EXPECT_EQ(lines[2],
            "tests/lint_fixtures/hot_alloc.cc:39: alloc-in-hot-path: "
            "'std::to_string' allocates on the hot path 'HotIngest'; hoist "
            "the formatting off the steady-state path or mark a "
            "KDSEL_ALLOC_OK boundary");
  // Explicit template arguments do not hide std::make_unique/make_shared.
  EXPECT_EQ(lines[3],
            "tests/lint_fixtures/hot_alloc.cc:53: alloc-in-hot-path: raw "
            "'std::make_unique' allocates on the hot path 'HotMake'; pool "
            "it or mark a KDSEL_ALLOC_OK boundary");
  EXPECT_EQ(lines[4],
            "tests/lint_fixtures/hot_alloc.cc:54: alloc-in-hot-path: raw "
            "'std::make_unique' allocates on the hot path 'HotMake'; pool "
            "it or mark a KDSEL_ALLOC_OK boundary");
  EXPECT_EQ(lines[5],
            "tests/lint_fixtures/hot_alloc.cc:55: alloc-in-hot-path: raw "
            "'std::make_shared' allocates on the hot path 'HotMake'; pool "
            "it or mark a KDSEL_ALLOC_OK boundary");
}

// The real tree must stay clean: --self-check exits non-zero on any
// finding and refuses suppressions outside tests/.
TEST(LintTest, RealTreeSelfCheckIsClean) {
  const RunResult result = RunLint(RootArgs("--self-check"));
  EXPECT_EQ(result.exit_code, 0) << result.stdout_text;
  EXPECT_TRUE(result.stdout_text.empty()) << result.stdout_text;
}

// A seeded violation in a temp file under --root must be reported in the
// documented file:line: rule: message format with a non-zero exit.
TEST(LintTest, SeededViolationIsReported) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/kdsel_lint_seeded.cc";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "void Seeded() {\n";
    out << "  int* p = new int(7);\n";
    out << "  *p = rand();\n";
    out << "}\n";
  }
  const RunResult result = RunLint("--root " + dir + " " + path);
  std::remove(path.c_str());
  EXPECT_EQ(result.exit_code, 1);
  const std::vector<std::string> lines = SplitLines(result.stdout_text);
  ASSERT_EQ(lines.size(), 2u) << result.stdout_text;
  EXPECT_NE(lines[0].find("kdsel_lint_seeded.cc:2: naked-new:"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("kdsel_lint_seeded.cc:3: nonreproducible-random:"),
            std::string::npos)
      << lines[1];
}

// --self-check reports wall-clock timing on stderr; with --budget-ms it
// appends the budget and fails the run when exceeded (0 ms always
// trips, since scanning the tree takes at least 1 ms).
TEST(LintTest, SelfCheckReportsTimingAndEnforcesBudget) {
  const RunResult ok = RunLint(RootArgs("--self-check --budget-ms 5000 2>&1"));
  EXPECT_EQ(ok.exit_code, 0) << ok.stdout_text;
  EXPECT_NE(ok.stdout_text.find("full-tree lint took"), std::string::npos)
      << ok.stdout_text;
  EXPECT_NE(ok.stdout_text.find("(budget 5000 ms)"), std::string::npos)
      << ok.stdout_text;

  const RunResult trip = RunLint(RootArgs("--self-check --budget-ms 0 2>&1"));
  EXPECT_EQ(trip.exit_code, 1) << trip.stdout_text;
  EXPECT_NE(trip.stdout_text.find("budget exceeded"), std::string::npos)
      << trip.stdout_text;
}

// --format=json: a machine-readable array with file/line/rule/message
// keys; parse-light smoke check on a fixture with known findings.
TEST(LintTest, JsonFormatEmitsStructuredFindings) {
  const RunResult result =
      RunLint(RootArgs("--format=json " + FixturePath("guarded_by.cc")));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.stdout_text.compare(0, 2, "[\n"), 0) << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("\"rule\": \"guarded-by\""),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("\"line\": 27"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("\"file\": "
                                    "\"tests/lint_fixtures/guarded_by.cc\""),
            std::string::npos)
      << result.stdout_text;
}

// --format=sarif: SARIF 2.1.0 for CI code-scanning upload. Checks the
// schema header, the rule id, and a physicalLocation with the fixture
// line.
TEST(LintTest, SarifFormatEmitsCodeScanningReport) {
  const RunResult result =
      RunLint(RootArgs("--format=sarif " + FixturePath("hot_alloc.cc")));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stdout_text.find("\"version\": \"2.1.0\""),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("sarif-schema-2.1.0.json"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("\"ruleId\": \"alloc-in-hot-path\""),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("\"startLine\": 22"), std::string::npos)
      << result.stdout_text;
  // Empty results on a clean input must still be valid SARIF.
  const RunResult clean =
      RunLint(RootArgs("--format=sarif " + FixturePath("clean.cc")));
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_NE(clean.stdout_text.find("\"results\": []"), std::string::npos)
      << clean.stdout_text;
}

// The three semantic rules must not be silenced outside tests/:
// --self-check treats such a suppression as a finding in its own right.
TEST(LintTest, SemanticRuleSuppressionOutsideTestsIsForbidden) {
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/src";
  ::mkdir(src.c_str(), 0755);
  const std::string path = src + "/kdsel_lint_suppressed.cc";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "#include <mutex>\n";
    out << "void Sneaky() {\n";
    out << "  // kdsel-lint: allow(lock-order-inversion)\n";
    out << "}\n";
  }
  const RunResult result = RunLint("--root " + dir + " --self-check " + path);
  std::remove(path.c_str());
  ::rmdir(src.c_str());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(
      result.stdout_text.find(
          "suppressing lock-order-inversion outside tests/ is forbidden"),
      std::string::npos)
      << result.stdout_text;
}

TEST(LintTest, ListRulesNamesEveryRule) {
  const RunResult result = RunLint("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* rule :
       {"discarded-status", "unchecked-value", "naked-new", "raw-parse",
        "nonreproducible-random", "lock-across-score", "raw-thread",
        "raw-simd", "raw-socket", "raw-timing", "lock-order-inversion",
        "guarded-by", "alloc-in-hot-path"}) {
    EXPECT_NE(result.stdout_text.find(rule), std::string::npos) << rule;
  }
}

TEST(LintTest, UnknownPathExitsWithUsageError) {
  const RunResult result =
      RunLint(RootArgs(std::string(KDSEL_SOURCE_DIR) + "/no/such/file.cc"));
  EXPECT_EQ(result.exit_code, 2);
}

}  // namespace

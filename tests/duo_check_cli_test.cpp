// End-to-end tests for the duo_check CLI: exit codes (0 du-opaque /
// 2 violation / 1 input error), the empty-trace and missing-file
// distinction, --budget, and the multi-file / directory / --jobs batch
// modes; and for the duo_mond daemon CLI. The binary paths arrive via
// DUO_CHECK_BIN and DUO_MOND_BIN (set by CTest).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "gen/generator.hpp"
#include "history/printer.hpp"
#include "stm/registry.hpp"
#include "util/threading.hpp"

namespace {

namespace fs = std::filesystem;

class DuoCheckCli : public ::testing::Test {
 protected:
  /// Environment variable naming the binary under test.
  virtual const char* bin_var() const { return "DUO_CHECK_BIN"; }

  void SetUp() override {
    const char* bin = std::getenv(bin_var());
    ASSERT_NE(bin, nullptr)
        << bin_var() << " not set (run through CTest or export it)";
    bin_ = bin;
    ASSERT_TRUE(fs::exists(bin_)) << bin_;
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("duo_cli_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string write_trace(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p.string();
  }

  /// Runs the binary with `args`, returns the exit code; stdout is captured
  /// into `stdout_`.
  int run(const std::string& args) {
    const fs::path out = dir_ / "stdout.txt";
    const std::string cmd =
        bin_ + " " + args + " > " + out.string() + " 2> /dev/null";
    const int status = std::system(cmd.c_str());
    std::ifstream in(out);
    std::ostringstream ss;
    ss << in.rdbuf();
    stdout_ = ss.str();
    if (status == -1) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string bin_;
  fs::path dir_;
  std::string stdout_;
};

constexpr char kOpaque[] = "W1(X0,1) C1 R2(X0)=1 C2";
// Figure 3's shape: T2 reads T1's value before T1's tryC is invoked.
constexpr char kViolating[] = "W1(X0,1) R2(X0)=1 C1 C2";

TEST_F(DuoCheckCli, DuOpaqueTraceExitsZero) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run(trace), 0);
  EXPECT_NE(stdout_.find("du serialization"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, ViolationExitsTwo) {
  const auto trace = write_trace("bad.txt", kViolating);
  EXPECT_EQ(run(trace), 2);
  EXPECT_NE(stdout_.find("du-opacity violated"), std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, ViolationReportPinpointsTheFirstBadEvent) {
  // The single-trace report and --criterion du must pinpoint the shortest
  // rejected prefix (checker::first_bad_prefix), printed 1-based and equal
  // to the event --stream latches at: the 4th event (T2's read response).
  const auto trace = write_trace("bad.txt", kViolating);
  EXPECT_EQ(run(trace), 2);
  EXPECT_NE(stdout_.find("first violation at event 4"), std::string::npos)
      << stdout_;
  EXPECT_EQ(run("--criterion du " + trace), 2);
  EXPECT_NE(stdout_.find("first violation at event 4"), std::string::npos)
      << stdout_;
  EXPECT_EQ(run("--stream " + trace), 2);
  EXPECT_NE(stdout_.find("VIOLATION at event 4"), std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, TruncatedMarkerPoisonsCleanVerdicts) {
  // `truncated` marks a trace as the prefix of a longer run (an overflowed
  // recorder): a would-be "yes" must surface as inconclusive (exit 2) in
  // every mode, while a violation stays a violation (sound by prefix
  // closure).
  const auto clean =
      write_trace("trunc_ok.txt", std::string("truncated ") + kOpaque);
  EXPECT_EQ(run(clean), 2);
  EXPECT_NE(stdout_.find("inconclusive"), std::string::npos) << stdout_;
  EXPECT_EQ(run("--stream " + clean), 2);
  EXPECT_NE(stdout_.find("stream inconclusive"), std::string::npos)
      << stdout_;
  EXPECT_EQ(run("--criterion du " + clean), 2);
  EXPECT_NE(stdout_.find("inconclusive"), std::string::npos) << stdout_;

  const auto bad =
      write_trace("trunc_bad.txt", std::string("truncated ") + kViolating);
  EXPECT_EQ(run(bad), 2);
  EXPECT_NE(stdout_.find("du-opacity violated"), std::string::npos)
      << stdout_;

  // Violations survive truncation only for prefix-closed criteria.
  // Final-state opacity is the canonical non-prefix-closed one: a read of
  // a never-written value is fso-violating on the recorded prefix, but the
  // dropped tail could have contained the writer — inconclusive, not "no".
  const auto fso_bad = write_trace("trunc_fso.txt",
                                   "truncated W1(X0,1) C1 R2(X0)=2 C2");
  EXPECT_EQ(run("--criterion fso " + fso_bad), 2);
  EXPECT_NE(stdout_.find("not prefix-closed"), std::string::npos) << stdout_;
  EXPECT_EQ(run("--criterion du " + fso_bad), 2);
  EXPECT_NE(stdout_.find("du-opacity violated"), std::string::npos)
      << stdout_;
  EXPECT_EQ(run("--criterion fso " + fso_bad + " " + bad), 2);
  EXPECT_NE(stdout_.find("criterion is not prefix-closed"),
            std::string::npos)
      << stdout_;

  // Batch mode: the truncated-clean trace counts as unknown, not ok.
  const auto plain = write_trace("plain_ok.txt", kOpaque);
  EXPECT_EQ(run(clean + " " + plain), 2);
  EXPECT_NE(stdout_.find("inconclusive (trace marked truncated)"),
            std::string::npos)
      << stdout_;
  EXPECT_NE(stdout_.find("1 du-opaque, 0 violations, 1 unknown"),
            std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, MissingFileExitsOne) {
  EXPECT_EQ(run((dir_ / "does_not_exist.txt").string()), 1);
}

TEST_F(DuoCheckCli, ParseErrorExitsOne) {
  const auto trace = write_trace("garbage.txt", "this is not a trace @@@");
  EXPECT_EQ(run(trace), 1);
}

TEST_F(DuoCheckCli, NoArgumentsExitsOne) { EXPECT_EQ(run(""), 1); }

TEST_F(DuoCheckCli, EmptyTraceIsAVerdictNotAnError) {
  // An empty file is a legitimate (empty, trivially du-opaque) history —
  // previously conflated with an unreadable file.
  const auto trace = write_trace("empty.txt", "");
  EXPECT_EQ(run(trace), 0) << stdout_;
}

TEST_F(DuoCheckCli, BudgetFlagSurfacesExhaustion) {
  // A trace the DFS cannot decide in one node: must report unknown (exit 2)
  // rather than searching for a long time. Pinned to --engine dfs — the
  // graph engine never consumes the node budget, so auto routing could
  // legitimately decide this within budget 1.
  duo::util::Xoshiro256 rng(42);
  duo::gen::GenOptions opts;
  opts.num_txns = 8;
  const auto h = duo::gen::random_du_history(opts, rng);
  const auto trace = write_trace("hard.txt", duo::history::compact(h));
  EXPECT_EQ(run("--engine dfs --budget 1 " + trace), 2);
  EXPECT_NE(stdout_.find("unknown"), std::string::npos) << stdout_;
  // With the default budget the same trace is decidable.
  EXPECT_EQ(run(trace), 0) << stdout_;
}

TEST_F(DuoCheckCli, EngineFlagAndExplainEngine) {
  // A unique-writes trace: auto and graph must both decide it on the graph
  // engine; dfs must bypass it. --explain-engine surfaces the routing.
  const auto trace = write_trace("uw.txt", "W1(X0,1) C1 R2(X0)=1 C2");
  EXPECT_EQ(run("--explain-engine " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("engine: graph"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("unique writes"), std::string::npos) << stdout_;

  EXPECT_EQ(run("--engine dfs --explain-engine " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("engine: dfs"), std::string::npos) << stdout_;

  EXPECT_EQ(run("--engine graph " + trace), 0) << stdout_;
  EXPECT_EQ(run("--engine warp " + trace), 1);
}

TEST_F(DuoCheckCli, ForcedGraphOnNonUniqueWritesReportsUnknown) {
  // Duplicate write values: the graph engine cannot claim the trace, and a
  // forced --engine graph must say so instead of guessing.
  const auto trace =
      write_trace("dup.txt", "W1(X0,1) C1 W2(X0,1) C2 R3(X0)=1 C3");
  EXPECT_EQ(run("--engine graph --criterion du " + trace), 2);
  EXPECT_NE(stdout_.find("unknown"), std::string::npos) << stdout_;
  // Auto routing decides the same trace exactly (via the DFS).
  EXPECT_EQ(run("--criterion du " + trace), 0) << stdout_;
}

TEST_F(DuoCheckCli, VerbosePrintsSearchStats) {
  const auto trace = write_trace("uw.txt", "W1(X0,1) C1 R2(X0)=1 C2");
  EXPECT_EQ(run("-v --engine dfs " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("search stats: nodes="), std::string::npos)
      << stdout_;
  EXPECT_NE(stdout_.find("memo_hits="), std::string::npos) << stdout_;
  // Verbose implies --explain-engine.
  EXPECT_NE(stdout_.find("engine: dfs"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, BadBudgetValueExitsOne) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--budget zero " + trace), 1);
}

TEST_F(DuoCheckCli, BatchModeReportsPerFileAndSummary) {
  const auto a = write_trace("a.txt", kOpaque);
  const auto b = write_trace("b.txt", kViolating);
  const auto c = write_trace("c.txt", kOpaque);
  EXPECT_EQ(run(a + " " + b + " " + c + " --jobs 4"), 2);
  EXPECT_NE(stdout_.find("a.txt: du-opaque"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("b.txt: VIOLATION"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("checked 3 traces"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("1 violations"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, BatchAllCleanExitsZero) {
  const auto a = write_trace("a.txt", kOpaque);
  const auto b = write_trace("b.txt", kOpaque);
  EXPECT_EQ(run(a + " " + b), 0);
}

TEST_F(DuoCheckCli, DirectoryInputExpandsToSortedBatch) {
  fs::create_directories(dir_ / "traces");
  write_trace("traces/1.txt", kOpaque);
  write_trace("traces/2.txt", kViolating);
  write_trace("traces/3.txt", kOpaque);
  EXPECT_EQ(run((dir_ / "traces").string() + " -j 2"), 2);
  EXPECT_NE(stdout_.find("checked 3 traces"), std::string::npos) << stdout_;
  // Input order is sorted by name: 1 before 2 before 3.
  const auto p1 = stdout_.find("1.txt:");
  const auto p2 = stdout_.find("2.txt:");
  const auto p3 = stdout_.find("3.txt:");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
}

TEST_F(DuoCheckCli, SingleFileDirectoryStillUsesBatchFormat) {
  // The output format follows what was asked for (a directory), not how
  // many files the directory happens to hold.
  fs::create_directories(dir_ / "one");
  write_trace("one/only.txt", kOpaque);
  EXPECT_EQ(run((dir_ / "one").string()), 0);
  EXPECT_NE(stdout_.find("only.txt: du-opaque"), std::string::npos)
      << stdout_;
  EXPECT_NE(stdout_.find("checked 1 traces"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, NegativeOptionValuesAreRejected) {
  const auto a = write_trace("a.txt", kOpaque);
  const auto b = write_trace("b.txt", kOpaque);
  EXPECT_EQ(run(a + " " + b + " --jobs -3"), 1);
  EXPECT_EQ(run("--budget -1 " + a), 1);
}

TEST_F(DuoCheckCli, BatchInputErrorDominatesExitCode) {
  const auto a = write_trace("a.txt", kOpaque);
  const auto missing = (dir_ / "missing.txt").string();
  EXPECT_EQ(run(a + " " + missing), 1);
  EXPECT_NE(stdout_.find("ERROR"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, CriterionFlagSelectsTheChecker) {
  // Figure 3's full history separates the criteria: final-state opaque and
  // strictly serializable, but neither opaque nor du-opaque.
  const auto trace = write_trace("fig3.txt", kViolating);
  EXPECT_EQ(run("--criterion final-state-opacity " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("final-state-opacity: yes"), std::string::npos)
      << stdout_;
  EXPECT_EQ(run("--criterion opacity " + trace), 2) << stdout_;
  EXPECT_NE(stdout_.find("opacity: no"), std::string::npos) << stdout_;
  EXPECT_EQ(run("--criterion sser " + trace), 0) << stdout_;
  // Short alias for the default criterion keeps the du output.
  EXPECT_EQ(run("--criterion du " + trace), 2);
  EXPECT_NE(stdout_.find("du-opacity violated"), std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, CriterionFlagWiresIntoBatchMode) {
  const auto a = write_trace("a.txt", kOpaque);
  const auto b = write_trace("b.txt", kViolating);
  EXPECT_EQ(run("--criterion fso " + a + " " + b + " --jobs 2"), 0)
      << stdout_;
  EXPECT_NE(stdout_.find("a.txt: ok (final-state-opacity)"),
            std::string::npos)
      << stdout_;
  EXPECT_NE(stdout_.find("b.txt: ok (final-state-opacity)"),
            std::string::npos)
      << stdout_;
  EXPECT_EQ(run("--criterion opacity " + a + " " + b), 2) << stdout_;
  EXPECT_NE(stdout_.find("b.txt: VIOLATION"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, UnknownCriterionExitsOne) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--criterion bogus " + trace), 1);
}

TEST_F(DuoCheckCli, StreamModeAcceptsCleanStdin) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--stream - < " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("stream du-opaque after 8 events"),
            std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, StreamModeReportsFirstViolatingEvent) {
  // One token per line, as a live writer would emit them. The read response
  // is the 4th event: no writer with tryC invoked can have produced the 1.
  const auto trace =
      write_trace("bad.txt", "W1(X0,1)\nR2(X0)=1\nC1\nC2\n");
  EXPECT_EQ(run("--stream " + trace), 2) << stdout_;
  EXPECT_NE(stdout_.find("VIOLATION at event 4"), std::string::npos)
      << stdout_;
  EXPECT_NE(stdout_.find("no transaction that can commit"),
            std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, StreamModeAgreesWithOfflineOnEventLevelTokens) {
  // Event-level tokens split invocations from responses; du-opaque because
  // T1's tryC is invoked before T2's read responds.
  const auto trace = write_trace(
      "split.txt", "W1?(X0,5)\nW1!(X0)\nC1?\nR2?(X0)\nR2!(X0)=5\nC1!\nC2\n");
  EXPECT_EQ(run("--stream " + trace), 0) << stdout_;
}

TEST_F(DuoCheckCli, StreamModeRejectsMalformedStream) {
  const auto trace = write_trace("garbage.txt", "R2!(X0)=1\n");
  EXPECT_EQ(run("--stream " + trace), 1);  // response without invocation
  const auto parse = write_trace("parse.txt", "@@@\n");
  EXPECT_EQ(run("--stream " + parse), 1);
}

TEST_F(DuoCheckCli, StreamModeHonorsObjectDeclarations) {
  // objects=N must be enforced like the offline parser enforces it, even
  // when the declaration and the violating event arrive on different lines.
  const auto bad = write_trace("decl.txt", "objects=1\nW1(X5,1)\nC1\n");
  EXPECT_EQ(run("--stream " + bad), 1);
  EXPECT_EQ(run(bad), 1);  // offline agrees
  const auto late = write_trace("late.txt", "W1(X5,1) C1\nobjects=1\n");
  EXPECT_EQ(run("--stream " + late), 1);
  const auto ok = write_trace("declok.txt", "objects=6\nW1(X5,1)\nC1\n");
  EXPECT_EQ(run("--stream " + ok), 0) << stdout_;
}

TEST_F(DuoCheckCli, StreamModeRefusesNonPrefixClosedCriteria) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--stream --criterion fso " + trace), 1);
  EXPECT_EQ(run("--stream --criterion du " + trace), 0);
}

TEST_F(DuoCheckCli, FollowModeDrainsAGrowingFileUntilIdle) {
  // The file is complete before the run; --follow must drain it and stop
  // once it sees no growth for --idle-ms.
  const auto trace = write_trace("grow.txt", "W1(X0,1)\nC1\nR2(X0)=1\nC2\n");
  EXPECT_EQ(run("--stream --follow --idle-ms 50 " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("stream du-opaque after 8 events"),
            std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, FollowRequiresStreamAndAFile) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--follow " + trace), 1);
  EXPECT_EQ(run("--stream --follow - < " + trace), 1);
}

TEST_F(DuoCheckCli, FollowModeReportsTruncationAsInconclusive) {
  // Truncating the file mid-follow makes everything past the consumed
  // prefix unknowable: the run must end inconclusive (2), not clean.
  const auto trace = write_trace("trunc.txt", "W1(X0,1)\nC1\n");
  duo::util::ScopedThread truncator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::ofstream(trace, std::ios::trunc) << "W1(";
  });
  EXPECT_EQ(run("--stream --follow --idle-ms 5000 " + trace), 2) << stdout_;
  truncator.join();
  EXPECT_NE(stdout_.find("inconclusive"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("truncated"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, ServeIsNotAnOption) {
  // The daemon is duo_mond; duo_check has no in-process copy of it.
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--serve --idle-ms 100 " + trace), 1);
}

/// The same harness driving the duo_mond binary.
class DuoMondCli : public DuoCheckCli {
 protected:
  const char* bin_var() const override { return "DUO_MOND_BIN"; }
};

TEST_F(DuoMondCli, VerifiesATraceThroughThePipeline) {
  const auto trace = write_trace("ok.txt", kOpaque);
  EXPECT_EQ(run("--idle-ms 100 " + trace), 0) << stdout_;
  EXPECT_NE(stdout_.find("du-opaque after 8 events"), std::string::npos)
      << stdout_;
}

TEST_F(DuoMondCli, LatchesViolations) {
  const auto trace = write_trace("bad.txt", kViolating);
  EXPECT_EQ(run("--idle-ms 100 " + trace), 2) << stdout_;
  // Same 1-based phrasing as duo_check --stream ("event 4" = the read
  // response).
  EXPECT_NE(stdout_.find("VIOLATION at event 4"), std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, ListStmsPrintsTheBackendRegistry) {
  EXPECT_EQ(run("--list-stms"), 0) << stdout_;
  // Every registered backend must appear, with its metadata columns.
  for (const auto& b : duo::stm::registered_backends())
    EXPECT_NE(stdout_.find(b.name), std::string::npos) << b.name;
  EXPECT_NE(stdout_.find("deferred"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("direct"), std::string::npos) << stdout_;
  EXPECT_NE(stdout_.find("not du-opaque"), std::string::npos) << stdout_;
}

TEST_F(DuoCheckCli, StreamFlagsARecordedTwoPlUndoFaultyRun) {
  // End-to-end over a *real* recording: the faulty 2PL-Undo leaks T1's
  // in-place write the moment its lock is (wrongly) released, T2 reads and
  // commits it before T1 invokes tryC, and the streamed trace must latch at
  // exactly that read response.
  duo::stm::Recorder rec(64);
  auto stm = duo::stm::make_stm("2pl-undo-faulty", 2, &rec);
  ASSERT_NE(stm, nullptr);
  auto t1 = stm->begin();
  ASSERT_TRUE(t1->write(0, 7));
  auto t2 = stm->begin();
  const auto leaked = t2->read(0);
  ASSERT_TRUE(leaked.has_value());
  ASSERT_TRUE(t2->commit());
  ASSERT_TRUE(t1->write(1, 8));
  ASSERT_TRUE(t1->commit());
  const auto h = rec.finish(stm->num_objects());

  const auto trace =
      write_trace("faulty_2pl.txt", duo::history::compact(h) + "\n");
  EXPECT_EQ(run("--stream " + trace), 2) << stdout_;
  EXPECT_NE(stdout_.find("VIOLATION at event 4"), std::string::npos)
      << stdout_;
  // Batch mode and the full report flag the same recording.
  EXPECT_EQ(run(trace), 2);
  EXPECT_NE(stdout_.find("du-opacity violated"), std::string::npos)
      << stdout_;
}

TEST_F(DuoCheckCli, JobsCountsAreVerdictInvariant) {
  // The same batch must yield the same per-file verdicts for any --jobs.
  const auto a = write_trace("a.txt", kOpaque);
  const auto b = write_trace("b.txt", kViolating);
  ASSERT_EQ(run(a + " " + b + " --jobs 1"), 2);
  const std::string serial = stdout_;
  for (const char* jobs : {"2", "4", "8"}) {
    ASSERT_EQ(run(a + " " + b + " --jobs " + jobs), 2);
    // Strip the summary line (it names the job count) before comparing.
    const auto cut = [](const std::string& s) {
      return s.substr(0, s.rfind("checked "));
    };
    EXPECT_EQ(cut(stdout_), cut(serial)) << "jobs=" << jobs;
  }
}

}  // namespace

// Tests for the production monitor service layer (src/service/):
//
//   - IngestPipeline: a latch, a parse error or a bad objects= declaration
//     stops it at the submit that carries it. That its verdicts and
//     first-violation indices do not depend on chunking or shard count is
//     the differential oracle's job (tests/oracle_test.cpp).
//   - FollowReader: token-boundary chunking, idle cutoff, stop flag, and
//     the rotation/truncation terminal states.
//   - run_daemon: end-to-end over real files, including the inconclusive
//     verdict on rotation and the stats line format.
#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generator.hpp"
#include "history/parser.hpp"
#include "history/printer.hpp"
#include "monitor/monitor.hpp"
#include "service/daemon.hpp"
#include "service/pipeline.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace duo::service {
namespace {

namespace fs = std::filesystem;
using checker::Verdict;

TEST(IngestPipeline, RefusesChunksOnceLatched) {
  IngestPipeline pipeline;
  // Figure 3's shape: T2 reads T1's value before T1 invoked tryC. Event
  // index 3 (0-based) is T2's read response, carried by the second chunk.
  EXPECT_TRUE(pipeline.submit("W1(X0,1) "));   // events 0-1
  EXPECT_FALSE(pipeline.submit("R2(X0)=1 "));  // events 2-3: latches
  EXPECT_FALSE(pipeline.submit("C1 "));
  EXPECT_FALSE(pipeline.submit("C2 "));
  const PipelineResult r = pipeline.finish();
  EXPECT_EQ(r.verdict, Verdict::kNo);
  ASSERT_TRUE(r.first_violation.has_value());
  EXPECT_EQ(*r.first_violation, 3u);
  EXPECT_EQ(r.events, 4u);
  ASSERT_TRUE(r.violating_event.has_value());
  EXPECT_EQ(history::to_string(*r.violating_event), "resp R2(X0)->1");
  EXPECT_FALSE(pipeline.submit("W9(X1,9) "));  // after finish: refused
}

TEST(IngestPipeline, SurfacesParseErrors) {
  IngestPipeline pipeline;
  EXPECT_TRUE(pipeline.submit("W1(X0,1) C1 "));
  EXPECT_FALSE(pipeline.submit("this is not a trace "));
  const PipelineResult r = pipeline.finish();
  EXPECT_TRUE(r.error);
  EXPECT_NE(r.explanation.find("parse error"), std::string::npos)
      << r.explanation;
}

TEST(IngestPipeline, SurfacesObjectDeclarationViolations) {
  IngestPipeline pipeline;
  EXPECT_TRUE(pipeline.submit("objects=1 "));
  EXPECT_FALSE(pipeline.submit("W1(X3,1) C1 "));
  const PipelineResult r = pipeline.finish();
  EXPECT_TRUE(r.error);
  EXPECT_NE(r.explanation.find("objects="), std::string::npos)
      << r.explanation;
}

TEST(IngestPipeline, PropagatesTheTruncatedMarker) {
  IngestPipeline pipeline;
  EXPECT_TRUE(pipeline.submit("truncated W1(X0,1) C1 "));
  const PipelineResult r = pipeline.finish();
  EXPECT_FALSE(r.error);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.verdict, Verdict::kYes);
}

TEST(IngestPipeline, SnapshotReflectsAppliedWork) {
  PipelineOptions popts;
  popts.monitor.gc = true;
  IngestPipeline pipeline(popts);
  EXPECT_TRUE(pipeline.submit("W1(X0,1) C1 R2(X0)=1 C2 "));
  const PipelineResult r = pipeline.finish();
  ASSERT_FALSE(r.error);
  const PipelineSnapshot s = pipeline.snapshot();
  EXPECT_EQ(s.events, 8u);
  EXPECT_EQ(s.chunks, 1u);
  EXPECT_EQ(s.verdict, Verdict::kYes);
  EXPECT_EQ(r.events, 8u);
}

class ServiceFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("duo_service_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p.string();
  }

  fs::path dir_;
};

TEST_F(ServiceFiles, FollowReaderDeliversWholeTokensAndHonorsIdleCutoff) {
  const std::string path = write_file("t.txt", "W1(X0,1) C1 R2(X");
  FollowOptions fopts;
  fopts.idle_ms = 200;
  FollowReader reader(path, fopts);
  std::string out;

  // First poll: everything up to the last whitespace; "R2(X" is a partial
  // token and must be held back.
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  EXPECT_EQ(out, "W1(X0,1) C1 ");

  // The writer completes the token; the carried prefix is re-joined.
  {
    std::ofstream app(path, std::ios::app);
    app << "0)=1 C2 ";
  }
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  EXPECT_EQ(out, "R2(X0)=1 C2 ");

  // No more growth: the idle cutoff ends the follow.
  EXPECT_EQ(reader.poll(out), FollowStatus::kIdle);
  // Terminal statuses are sticky.
  EXPECT_EQ(reader.poll(out), FollowStatus::kIdle);
}

TEST_F(ServiceFiles, FollowReaderFlushesTheTrailingTokenAtIdle) {
  // A trace whose final token has no trailing whitespace must still be
  // delivered (as the final chunk) when the idle cutoff fires.
  const std::string path = write_file("t.txt", "W1(X0,1) C1");
  FollowOptions fopts;
  fopts.idle_ms = 100;
  FollowReader reader(path, fopts);
  std::string out;
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  EXPECT_EQ(out, "W1(X0,1) ");
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  EXPECT_EQ(out, "C1");
  EXPECT_EQ(reader.poll(out), FollowStatus::kIdle);
}

TEST_F(ServiceFiles, FollowReaderDetectsTruncation) {
  const std::string path = write_file("t.txt", "W1(X0,1) C1 ");
  FollowOptions fopts;
  fopts.idle_ms = 2000;  // ample: truncation must win, not the idle cutoff
  FollowReader reader(path, fopts);
  std::string out;
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  std::ofstream(path, std::ios::trunc) << "W1(";
  EXPECT_EQ(reader.poll(out), FollowStatus::kTruncated);
}

TEST_F(ServiceFiles, FollowReaderDetectsRotation) {
  const std::string path = write_file("t.txt", "W1(X0,1) C1 ");
  FollowOptions fopts;
  fopts.idle_ms = 2000;
  FollowReader reader(path, fopts);
  std::string out;
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  // Rotate: the path now names a fresh inode (classic logrotate move).
  fs::rename(path, dir_ / "t.txt.1");
  std::ofstream(path) << "W2(X0,2) C2 ";
  EXPECT_EQ(reader.poll(out), FollowStatus::kRotated);
}

TEST_F(ServiceFiles, FollowReaderHonorsTheStopFlag) {
  // The stop flag's contract is a signal handler running ON the polling
  // thread (sig_atomic_t is only async-signal-safe, not cross-thread), so
  // the helper thread must deliver a real signal to this thread rather
  // than write the flag itself — writing it directly would be a data race.
  static volatile std::sig_atomic_t stop = 0;
  stop = 0;
  const std::string path = write_file("t.txt", "W1(X0,1) C1 ");
  FollowOptions fopts;
  fopts.idle_ms = 0;  // would follow forever
  fopts.stop = &stop;
  FollowReader reader(path, fopts);
  std::string out;
  ASSERT_EQ(reader.poll(out), FollowStatus::kData);
  const auto prev = std::signal(SIGUSR1, [](int) { stop = 1; });
  ASSERT_NE(prev, SIG_ERR);
  const pthread_t poller = pthread_self();
  util::ScopedThread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pthread_kill(poller, SIGUSR1);
  });
  EXPECT_EQ(reader.poll(out), FollowStatus::kStopped);
  flipper.join();
  std::signal(SIGUSR1, prev);
}

TEST_F(ServiceFiles, DaemonVerifiesAGrowingTraceEndToEnd) {
  // A writer thread appends a du-opaque trace chunk by chunk while the
  // daemon follows; the daemon must consume all of it and report clean.
  util::Xoshiro256 rng(11);
  gen::GenOptions gopts;
  gopts.num_txns = 40;
  gopts.num_objects = 4;
  gopts.unique_writes = true;
  const std::string text =
      history::compact(gen::random_du_history(gopts, rng));
  const std::string path = write_file("grow.txt", "");

  util::ScopedThread writer([&] {
    std::ofstream out(path, std::ios::app);
    // 40-byte appends: most end mid-token, which the reader must hold back.
    for (std::size_t at = 0; at < text.size(); at += 40) {
      out << text.substr(at, 40) << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  DaemonOptions dopts;
  dopts.trace_path = path;
  dopts.follow.idle_ms = 500;
  dopts.pipeline.monitor.gc = true;
  dopts.stats_interval_ms = 0;
  std::FILE* sink = std::fopen((dir_ / "out.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  const DaemonReport report = run_daemon(dopts, sink);
  std::fclose(sink);
  writer.join();

  EXPECT_EQ(report.exit_code, 0) << report.result.explanation;
  EXPECT_EQ(report.ended_by, "eof-idle");
  EXPECT_EQ(report.result.verdict, Verdict::kYes);
  history::History h = history::parse_history_or_die(text);
  EXPECT_EQ(report.result.events, h.size());
}

TEST_F(ServiceFiles, DaemonLatchesViolationsWithTheMonitorIndex) {
  const std::string path =
      write_file("bad.txt", "W1(X0,1) R2(X0)=1 C1 C2 ");
  DaemonOptions dopts;
  dopts.trace_path = path;
  dopts.follow.idle_ms = 100;
  dopts.pipeline.monitor.gc = true;
  dopts.stats_interval_ms = 0;
  std::FILE* sink = std::fopen((dir_ / "out.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  const DaemonReport report = run_daemon(dopts, sink);
  std::fclose(sink);
  EXPECT_EQ(report.exit_code, 2);
  EXPECT_EQ(report.result.verdict, Verdict::kNo);
  ASSERT_TRUE(report.result.first_violation.has_value());
  EXPECT_EQ(*report.result.first_violation, 3u);
}

TEST_F(ServiceFiles, DaemonReportsRotationAsInconclusive) {
  const std::string path = write_file("rot.txt", "W1(X0,1) C1 ");
  DaemonOptions dopts;
  dopts.trace_path = path;
  dopts.follow.idle_ms = 2000;
  dopts.stats_interval_ms = 0;

  util::ScopedThread rotator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fs::rename(path, dir_ / "rot.txt.1");
    std::ofstream(path) << "W2(X0,2) C2 ";
  });
  std::FILE* sink = std::fopen((dir_ / "out.txt").c_str(), "w");
  ASSERT_NE(sink, nullptr);
  const DaemonReport report = run_daemon(dopts, sink);
  std::fclose(sink);
  rotator.join();

  EXPECT_EQ(report.exit_code, 2);
  EXPECT_EQ(report.ended_by, "rotated");
  EXPECT_EQ(report.result.verdict, Verdict::kYes);  // the consumed prefix

  std::ifstream in(dir_ / "out.txt");
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("inconclusive"), std::string::npos) << ss.str();
}

TEST(ServiceStats, StatsLineCarriesTheSchema) {
  PipelineSnapshot snap;
  snap.events = 1200;
  snap.live_transactions = 7;
  snap.retired_txns = 190;
  const std::string json = format_stats_line(snap, 2500.0, 4321, true);
  for (const char* key :
       {"\"events\":1200", "\"events_per_sec\":2500", "\"verdict\":\"yes\"",
        "\"live_txns\":7", "\"retired_txns\":190", "\"retained_events\":",
        "\"graph_nodes\":", "\"graph_edges\":", "\"pending_edges\":",
        "\"nonuw_debt\":", "\"gc_passes\":", "\"sealed_reads\":",
        "\"full_checks\":", "\"vm_hwm_kb\":4321"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  const std::string text = format_stats_line(snap, 2500.0, 4321, false);
  EXPECT_NE(text.find("events=1200"), std::string::npos) << text;
  EXPECT_NE(text.find("hwm_kb=4321"), std::string::npos) << text;
}

TEST(ServiceStats, StatsLineOmitsUnavailablePeakRss) {
  // hwm_kb == 0 means /proc/self/status was unreadable, not a zero-byte
  // peak: the key must be absent (in both formats) rather than reporting a
  // misleading measurement, and the JSON must stay well-formed.
  PipelineSnapshot snap;
  snap.events = 5;
  const std::string json = format_stats_line(snap, 0.0, 0, true);
  EXPECT_EQ(json.find("vm_hwm_kb"), std::string::npos) << json;
  EXPECT_NE(json.find("\"full_checks\":0}"), std::string::npos) << json;
  const std::string text = format_stats_line(snap, 0.0, 0, false);
  EXPECT_EQ(text.find("hwm_kb"), std::string::npos) << text;
}

TEST(ServiceStats, VmHwmIsAvailableOnLinux) {
  // The soak job's RSS ceiling reads this; it must not silently return 0
  // on the platforms CI runs on.
  EXPECT_GT(vm_hwm_kb(), 0u);
}

}  // namespace
}  // namespace duo::service

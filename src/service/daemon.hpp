// Long-running verification daemon: tail a growing trace file through the
// ingest pipeline indefinitely, with bounded memory and live stats.
//
// Two pieces:
//
//   FollowReader — tails a file with exponential-backoff polling (1ms
//   doubling to 250ms while idle; any growth resets the backoff), cutting
//   what it reads at whitespace boundaries so chunks always hold whole
//   tokens. It watches for the two ways a "growing" file lies: rotation
//   (the path now names a different inode) and truncation (the file got
//   shorter than what was already consumed). Both make everything after
//   the consumed prefix unknowable, so both end the follow — the daemon
//   reports inconclusive, never a confident "yes" (a latched violation
//   stands either way, by prefix closure).
//
//   MonitorDaemon — the duo_mond core: one loop of FollowReader::poll ->
//   IngestPipeline::submit in the calling thread, with GC defaulted on,
//   periodic stats snapshots (text or JSON lines; schema in
//   docs/service.md), and a final verdict flush when the input ends, an
//   idle cutoff expires, or a stop flag flips (the tool's SIGINT/SIGTERM
//   handler sets a volatile sig_atomic_t it hands in here — handlers must
//   not touch the pipeline themselves).
//
// Exit codes mirror duo_check: 0 clean, 2 violation/inconclusive, 1 input
// error.
#pragma once

#include <csignal>
#include <cstdio>
#include <string>

#include "service/pipeline.hpp"

namespace duo::service {

struct FollowOptions {
  /// Stop once the file has not grown for this long; 0 = follow forever
  /// (until rotation/truncation or the caller's stop flag).
  std::uint64_t idle_ms = 0;
  /// Poll backoff bounds. Doubles from min to max while idle.
  std::uint64_t min_poll_ms = 1;
  std::uint64_t max_poll_ms = 250;
  /// Largest chunk one poll() hands out. Catching up on a big pre-existing
  /// file yields a stream of chunks this size, keeping downstream memory
  /// bounded regardless of trace length.
  std::size_t max_chunk_bytes = 256 * 1024;
  /// Optional async stop flag (signal handlers write it; poll() reads it).
  const volatile std::sig_atomic_t* stop = nullptr;
};

enum class FollowStatus {
  kData,       // out holds newly appended token-aligned text
  kIdle,       // idle_ms expired with no growth
  kRotated,    // the path names a different file now
  kTruncated,  // the file shrank below the consumed offset
  kStopped,    // *stop became nonzero
  kError,      // open/read failed (diagnostic in error())
};

class FollowReader {
 public:
  FollowReader(std::string path, const FollowOptions& opts = {});
  ~FollowReader();

  FollowReader(const FollowReader&) = delete;
  FollowReader& operator=(const FollowReader&) = delete;

  /// Blocks (backoff-polling) until new data, a terminal condition, or the
  /// stop flag. On kData, `out` holds the new text, cut at the last
  /// whitespace boundary; the partial trailing token is carried into the
  /// next poll. Terminal statuses are sticky.
  FollowStatus poll(std::string& out);

  const std::string& error() const noexcept { return error_; }
  std::size_t bytes_consumed() const noexcept { return consumed_; }

 private:
  FollowStatus fail(std::string why);

  std::string path_;
  FollowOptions opts_;
  std::FILE* file_ = nullptr;
  unsigned long long inode_ = 0;  // inode at open, for rotation detection
  std::size_t consumed_ = 0;      // bytes handed out or carried
  std::string carry_;             // partial trailing token
  std::string error_;
  FollowStatus terminal_ = FollowStatus::kData;  // sticky once != kData
  bool terminated_ = false;
};

struct DaemonOptions {
  std::string trace_path;
  FollowOptions follow;
  PipelineOptions pipeline;  // callers default pipeline.monitor.gc = true
  /// Milliseconds between stats lines; 0 disables periodic stats.
  std::uint64_t stats_interval_ms = 5000;
  /// Emit stats as JSON lines instead of human-readable text.
  bool stats_json = false;
  /// Stats sink (default stderr, keeping stdout for the final verdict).
  std::FILE* stats_out = nullptr;
};

/// Outcome of one daemon run, for callers that embed it (tests).
struct DaemonReport {
  PipelineResult result;
  /// Why the follow ended: "eof-idle", "stopped", "rotated", "truncated",
  /// or "read-error".
  std::string ended_by;
  int exit_code = 0;
};

/// Runs the daemon loop to completion. Blocking; returns the final report
/// after the verdict flush. `out` receives the final verdict line
/// (default stdout).
DaemonReport run_daemon(const DaemonOptions& opts, std::FILE* out = nullptr);

/// Peak resident set size (VmHWM) of this process in kB, from
/// /proc/self/status; 0 if unavailable. The number duo_mond reports in
/// stats lines and the CI soak job bounds.
std::size_t vm_hwm_kb();

/// One stats line for a snapshot (exposed for tests; duo_mond emits this
/// every stats_interval_ms). JSON schema documented in docs/service.md.
std::string format_stats_line(const PipelineSnapshot& snap,
                              double events_per_sec, std::size_t hwm_kb,
                              bool json);

}  // namespace duo::service

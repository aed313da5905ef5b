// Synchronous ingest loop for trace verification.
//
// The monitor's verdict is serial by construction: there is one
// Pearce-Kelly order, and latching is sound only in event order (the
// paper's prefix closure, Corollary 2). IngestPipeline is therefore one
// loop in the caller's thread:
//
//   submit(chunk) --> parse_events --> objects= / truncated accounting
//                 --> OnlineMonitor::feed_batch (prescan / derive / apply)
//
// A chunk is any run of whitespace-separated trace tokens (producers cut
// at token boundaries; FollowReader does this). The monitor sees exactly
// the event order of the original text, so verdicts and first-violation
// indices are independent of how the text was chunked (the differential
// oracle, tests/oracle_test.cpp, holds this). Nothing is buffered beyond
// the one chunk being applied; MonitorOptions::gc retires settled
// transactions, though the monitor's retained state still grows with the
// object count and the trace length.
//
// A latched violation, a parse error, or a malformed event stream makes
// the pipeline *stop*: the submit() that hit it and every later one return
// false (per prefix closure the latched verdict covers everything unread).
// finish() returns the final result either way. duo_mond and duo_check
// --stream both ingest through this one loop.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "history/event.hpp"
#include "monitor/monitor.hpp"

namespace duo::service {

struct PipelineOptions {
  /// Monitor configuration. Long-running services want monitor.gc = true.
  monitor::MonitorOptions monitor;
};

/// Final outcome of one ingest run (finish()).
struct PipelineResult {
  checker::Verdict verdict = checker::Verdict::kYes;
  /// 0-based event index at which kNo latched (monitor convention).
  std::optional<std::size_t> first_violation;
  /// The event at first_violation, when kNo latched.
  std::optional<history::Event> violating_event;
  /// Violation reason, or the parse/stream diagnostic when error is set.
  std::string explanation;
  /// A chunk failed to parse or an event was malformed; verdict is
  /// meaningless beyond "the input is not a history".
  bool error = false;
  /// A `truncated` token appeared: a clean verdict covers only the
  /// recorded prefix (callers report inconclusive, as duo_check does).
  bool truncated = false;
  std::size_t events = 0;
  monitor::MonitorStats monitor;
};

/// Point-in-time counters for live observability (duo_mond stats dumps).
struct PipelineSnapshot {
  std::size_t events = 0;
  std::size_t chunks = 0;
  checker::Verdict verdict = checker::Verdict::kYes;
  // Monitor resident-state proxies (see monitor.hpp accessors).
  std::size_t retained_events = 0;
  std::size_t live_transactions = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  std::size_t pending_edges = 0;
  std::size_t nonuw_debt = 0;
  std::size_t retired_txns = 0;
  std::size_t sealed_reads = 0;
  std::size_t gc_passes = 0;
  std::size_t full_checks = 0;
};

class IngestPipeline {
 public:
  explicit IngestPipeline(const PipelineOptions& opts = {});

  /// Parses one chunk and feeds its events to the monitor. Returns false
  /// once the verdict is final or the input is bad, including for the
  /// chunk that latched or failed, and for every chunk after it or after
  /// finish(); such later chunks are dropped, soundly by prefix closure.
  bool submit(std::string chunk);

  /// Marks end of input and returns the final result. Idempotent.
  PipelineResult finish();

  /// Live counters (duo_mond's periodic stats lines).
  PipelineSnapshot snapshot() const;

 private:
  /// Stops the pipeline on bad input; returns false for submit().
  bool fail(std::string why);

  monitor::OnlineMonitor monitor_;
  history::ObjId declared_objects_ = -1;
  history::ObjId max_obj_ = -1;
  bool truncated_ = false;
  bool error_ = false;
  bool stopped_ = false;
  std::string diagnostic_;
  std::optional<history::Event> violating_event_;
  std::size_t chunks_applied_ = 0;
};

}  // namespace duo::service

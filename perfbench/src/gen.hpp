// Seeded trace generator for the benchmark.
//
// Simulates an idealized deferred-update STM (value-validating, atomic
// install at the C response) over many logical threads interleaved at
// event granularity, and writes the compact event-level trace text
// (src/history/parser.hpp) directly — never through History, whose
// construction is quadratic in the transaction count.
//
// Every read response re-validates the transaction's earlier reads and
// aborts it if one is stale; tryC re-validates at the C response. Each
// transaction therefore reads one consistent snapshot, committed writes
// install atomically in commit order, and reads see only committed values:
// every prefix is du-opaque by construction. The generator records that
// fact, plus the exact 0-based index of an injected violation, in a
// TraceRecord the benchmark checks the program's verdicts against.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

namespace perfbench {

enum class Inject : std::uint8_t {
  kNone,
  /// A fresh transaction writes a fresh value; another reads it before the
  /// writer invokes tryC (Def. 3(3) rules that read out).
  kUncommittedRead,
  /// A fresh transaction reads a value only an aborted transaction wrote
  /// (unique-writes mode only: in counter mode a committed transaction
  /// writes the same value).
  kAbortedRead,
};

struct TraceSpec {
  std::uint64_t seed = 1;
  /// Events simulated before the trace ends (the injection adds a few).
  std::size_t events = 10000;
  /// Logical threads; each step advances one, chosen uniformly.
  int threads = 8;
  int objects = 64;
  /// Zipf skew of object choice (0 = uniform).
  double zipf_theta = 0.8;
  /// Operations per transaction, uniform in [min_ops, max_ops]; each is a
  /// write with probability 1/2.
  int min_ops = 1;
  int max_ops = 8;
  /// Counter mode: every transaction reads one object and writes the value
  /// read plus one. Concurrent attempts then write the same value as the
  /// transaction that wins, so aborted attempts break unique writes.
  bool counters = false;
  /// Counter mode, when > 0: the threads take one step each in turn, so
  /// their transactions run in lockstep rounds, and every conflict_every-th
  /// round increments one shared counter (every committer after the first
  /// aborts, having written the winner's value) while the other rounds use
  /// distinct counters (while there are at least as many counters as
  /// threads). Conflicts then come at a fixed rate, not a seeded one.
  int conflict_every = 0;
  Inject inject = Inject::kNone;
  /// Fraction of `events` after which the violation is injected; 1.0 makes
  /// the violating read the trace's last event.
  double inject_at = 1.0;
};

/// What the generator knows about a trace from its own construction.
struct TraceRecord {
  std::size_t events = 0;
  std::size_t commits = 0;
  /// No two writes of one object share a value and none writes 0 (the
  /// History::has_unique_writes property).
  bool unique_writes = true;
  /// 0-based index of the first event whose prefix is not du-opaque.
  std::optional<std::size_t> first_violation;
};

/// Buffered destination for trace text: kept in memory when `file` is null,
/// otherwise flushed to it in blocks so memory stays flat.
class TextSink {
 public:
  explicit TextSink(std::FILE* file = nullptr) : file_(file) {}
  void put(const char* data, std::size_t n);
  /// Writes out whatever is buffered; false on a write error.
  bool flush();
  const std::string& text() const noexcept { return buf_; }

 private:
  std::FILE* file_;
  std::string buf_;
};

TraceRecord generate(const TraceSpec& spec, TextSink& sink);

/// Convenience: generate into memory.
std::string generate_text(const TraceSpec& spec, TraceRecord& record);

}  // namespace perfbench

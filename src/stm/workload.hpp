// Multithreaded workloads for STM testing and for perfbench's stm-tap.
//
// Each workload runs `threads` threads, each executing `txns_per_thread`
// transactions against the given STM (optionally recorded), and returns
// commit/abort counts plus workload-specific invariant checks.
#pragma once

#include <cstdint>
#include <string>

#include "stm/api.hpp"
#include "util/rng.hpp"

namespace duo::stm {

struct WorkloadOptions {
  std::size_t threads = 4;
  std::size_t txns_per_thread = 100;
  ObjId objects = 16;
  int ops_per_txn = 4;
  double write_fraction = 0.5;  // probability an op is a write
  double zipf_theta = 0.0;      // access skew (0 = uniform)
  int max_attempts = 10000;     // per logical transaction
  std::uint64_t seed = 42;
};

struct WorkloadStats {
  std::uint64_t committed = 0;  // successful logical transactions
  std::uint64_t aborted = 0;    // aborted attempts (before a success)
  std::uint64_t abandoned = 0;  // logical transactions that gave up
  double seconds = 0.0;

  double throughput() const noexcept {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0.0;
  }
};

/// Random mix of reads and writes with optional zipfian skew; each
/// transaction touches `ops_per_txn` distinct objects. Values written are
/// globally unique per run (thread id and sequence encoded), so checker
/// verdicts on recorded histories benefit from the unique-writes fast path.
WorkloadStats run_random_mix(Stm& stm, const WorkloadOptions& opts);

/// Counter increments: every transaction reads an object and writes value+1.
/// After the run, the sum of all counters must equal the number of commits
/// (the classic lost-update detector). `counters_sum_ok` below verifies.
WorkloadStats run_counters(Stm& stm, const WorkloadOptions& opts);

/// True when the committed state's total equals the commit count.
bool counters_sum_ok(Stm& stm, const WorkloadStats& stats);

/// Bank transfers: objects are accounts seeded with `initial_balance` via
/// one setup transaction; each transaction moves a random amount between
/// two accounts; concurrent auditor transactions read-sum all accounts and
/// count how many audits saw a total different from the invariant.
struct BankStats : WorkloadStats {
  std::uint64_t audits = 0;
  std::uint64_t broken_audits = 0;  // audits that observed a wrong total
};
BankStats run_bank(Stm& stm, const WorkloadOptions& opts,
                   Value initial_balance = 1000);

}  // namespace duo::stm

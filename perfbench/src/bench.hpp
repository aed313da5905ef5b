// Shared pieces of the benchmark: workload interface, per-layer ledger,
// timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One judged operation: one trace, or one tapped STM run, judged.
struct OpResult {
  bool ok = false;
  std::string why;         // diagnostic when !ok
  std::size_t events = 0;  // events judged
  std::size_t commits = 0; // committed transactions judged
  double phase_s = 0;      // timed phase of this operation
  double commit_s = 0;     // time base of the commits; phase_s when 0
  double setup_s = 0;      // set-up the operation did before its phase
};

/// Per-layer metrics of a traced run: every name the benchmark declares,
/// each accumulated from 0.
class Ledger {
 public:
  Ledger();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  void max(const std::string& name, double value);
  double get(const std::string& name) const;
  /// JSON object of {"name": {"value": v, "unit": u}, ...}.
  std::string json() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// The q-quantile of a sample (nearest rank); 0 when empty.
double percentile(std::vector<double> v, double q);

/// Ops counted by a traced run (its untraced round and its traced passes).
struct TraceCounts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void note(const OpResult& r);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates this run's inputs from the seed and prepares what the timed
  /// phase needs. Called several times; each call is timed as set-up.
  virtual void setup() = 0;
  /// True when each operation sets itself up (OpResult::setup_s) and
  /// setup() has nothing to time.
  virtual bool sets_up_per_op() const { return false; }
  /// Operations in one round; a run attempts whole rounds.
  virtual std::size_t round_size() const = 0;
  virtual OpResult op(std::size_t i) = 0;
  /// Traced run: one untraced round, then the same inputs through each
  /// layer's public functions one call at a time.
  virtual void trace(Ledger& ledger, TraceCounts& counts) = 0;
};

/// nullptr for an unknown name. `work_dir` holds generated input files.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

/// Compares generator records against the brute-force oracle on small
/// seeded traces; returns the number of mismatches (printed to stderr).
int selfcheck(std::uint64_t seeds);

}  // namespace perfbench

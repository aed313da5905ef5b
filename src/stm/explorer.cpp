#include "stm/explorer.hpp"

#include "checker/engine.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace duo::stm {

namespace {

/// One worker's share of the sweep, plus the bookkeeping needed to merge
/// shards back into a report identical to the serial one.
struct ShardReport {
  std::uint64_t seen = 0;  // complete schedules enumerated (all shards equal)
  std::uint64_t cap_hit = 0;
  std::uint64_t du_violations = 0;
  std::uint64_t unknown = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t first_violation_index = 0;  // valid iff first_violation set
  std::optional<history::History> first_violation;
};

/// Recursive schedule enumerator. `steps[t]` is how many steps transaction
/// t has executed; a schedule is complete when every transaction has run
/// ops.size() + 1 steps (the +1 is tryC) or has aborted.
///
/// Sharding: every shard performs the identical depth-first enumeration
/// (enumeration is cheap; executing + checking a schedule dominates) and
/// executes the complete schedules whose running index falls in its residue
/// class. The serial sweep is the one-shard case.
class Driver {
 public:
  Driver(const std::vector<Program>& programs, const ExplorerOptions& opts,
         std::size_t shard_index, std::size_t shard_count,
         ShardReport& report)
      : programs_(programs),
        opts_(opts),
        shard_index_(shard_index),
        shard_count_(shard_count),
        report_(report) {}

  void run() {
    schedule_.clear();
    steps_taken_.assign(programs_.size(), 0);
    enumerate();
  }

 private:
  /// Depth-first enumeration over which transaction takes the next step.
  void enumerate() {
    if (report_.seen >= opts_.max_schedules) {
      report_.cap_hit = 1;
      return;
    }
    bool any = false;
    for (std::size_t t = 0; t < programs_.size(); ++t) {
      if (remaining_steps(t) == 0) continue;
      any = true;
      schedule_.push_back(t);
      steps_taken_[t] += 1;
      enumerate();
      steps_taken_[t] -= 1;
      schedule_.pop_back();
      if (report_.cap_hit) return;
    }
    if (!any) {
      const std::uint64_t index = report_.seen++;
      if (index % shard_count_ == shard_index_) execute_schedule(index);
    }
  }

  std::size_t remaining_steps(std::size_t t) const {
    const std::size_t total = programs_[t].size() + 1;  // ops + tryC
    return total - steps_taken_[t];
  }

  void execute_schedule(std::uint64_t index) {
    Recorder rec(1024);
    auto stm = opts_.make_stm(opts_.num_objects, &rec);
    // Transactions begin lazily at their first scheduled step, so begin
    // times (and hence read-version snapshots) vary across schedules.
    std::vector<std::unique_ptr<Transaction>> txns(programs_.size());
    std::vector<std::size_t> pc(programs_.size(), 0);

    for (const std::size_t t : schedule_) {
      if (txns[t] == nullptr) txns[t] = stm->begin();
      Transaction& tx = *txns[t];
      if (tx.finished()) continue;  // aborted earlier: skip its steps
      const std::size_t i = pc[t]++;
      if (i < programs_[t].size()) {
        const ProgramOp& op = programs_[t][i];
        if (op.kind == ProgramOp::Kind::kRead) {
          (void)tx.read(op.obj);
        } else {
          (void)tx.write(op.obj, op.value);
        }
      } else {
        if (tx.commit())
          ++report_.committed;
        else
          ++report_.aborted;
      }
    }

    const auto h = rec.finish(opts_.num_objects);
    checker::CheckOptions copts;
    copts.node_budget = opts_.check_budget;
    const auto verdict = checker::check_du_opacity(h, copts);
    if (verdict.verdict == checker::Verdict::kUnknown) {
      ++report_.unknown;
    } else if (verdict.no()) {
      ++report_.du_violations;
      if (!report_.first_violation.has_value()) {
        report_.first_violation = h;
        report_.first_violation_index = index;
      }
    }
  }

  const std::vector<Program>& programs_;
  const ExplorerOptions& opts_;
  const std::size_t shard_index_;
  const std::size_t shard_count_;
  ShardReport& report_;
  std::vector<std::size_t> schedule_;
  std::vector<std::size_t> steps_taken_;
};

ExplorerReport merge_shards(std::vector<ShardReport>& shards) {
  ExplorerReport report;
  report.schedules = shards.front().seen;
  std::uint64_t first_index = 0;
  for (auto& s : shards) {
    // Every shard walks the same enumeration, so all agree on the totals.
    DUO_ASSERT(s.seen == report.schedules);
    report.schedule_cap_hit |= s.cap_hit;
    report.du_violations += s.du_violations;
    report.unknown += s.unknown;
    report.committed += s.committed;
    report.aborted += s.aborted;
    if (s.first_violation.has_value() &&
        (!report.first_violation.has_value() ||
         s.first_violation_index < first_index)) {
      first_index = s.first_violation_index;
      report.first_violation = std::move(s.first_violation);
    }
  }
  return report;
}

}  // namespace

ExplorerReport explore_interleavings(const std::vector<Program>& programs,
                                     const ExplorerOptions& opts) {
  return explore_all_parallel(programs, opts, 1);
}

ExplorerReport explore_all_parallel(const std::vector<Program>& programs,
                                    const ExplorerOptions& opts,
                                    std::size_t num_threads) {
  DUO_EXPECTS(opts.make_stm != nullptr);
  DUO_EXPECTS(!programs.empty());
  num_threads = util::resolve_threads(num_threads);

  std::vector<ShardReport> shards(num_threads);
  if (num_threads == 1) {
    Driver(programs, opts, 0, 1, shards[0]).run();
  } else {
    util::run_threads(num_threads, [&](std::size_t i) {
      Driver(programs, opts, i, num_threads, shards[i]).run();
    });
  }
  return merge_shards(shards);
}

std::uint64_t schedule_count(const std::vector<Program>& programs) {
  // Multinomial coefficient: (sum of steps)! / prod(steps!).
  std::uint64_t total = 0;
  for (const auto& p : programs) total += p.size() + 1;
  // Compute iteratively: prod over programs of C(running_total, steps).
  auto choose = [](std::uint64_t n, std::uint64_t k) {
    std::uint64_t r = 1;
    for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
    return r;
  };
  std::uint64_t result = 1;
  std::uint64_t used = 0;
  for (const auto& p : programs) {
    const std::uint64_t steps = p.size() + 1;
    used += steps;
    result *= choose(used, steps);
  }
  return result;
}

}  // namespace duo::stm

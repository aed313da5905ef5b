#include "stm/explorer.hpp"

#include "checker/engine.hpp"
#include "util/assert.hpp"

namespace duo::stm {

namespace {

/// Recursive schedule enumerator. `steps[t]` is how many steps transaction
/// t has executed; a schedule is complete when every transaction has run
/// ops.size() + 1 steps (the +1 is tryC) or has aborted.
class Driver {
 public:
  Driver(const std::vector<Program>& programs, const ExplorerOptions& opts,
         ExplorerReport& report)
      : programs_(programs), opts_(opts), report_(report) {}

  void run() {
    schedule_.clear();
    steps_taken_.assign(programs_.size(), 0);
    enumerate();
  }

 private:
  /// Depth-first enumeration over which transaction takes the next step.
  void enumerate() {
    if (report_.schedules >= opts_.max_schedules) {
      report_.schedule_cap_hit = 1;
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
      if (report_.schedule_cap_hit) return;
    }
    if (!any) {
      ++report_.schedules;
      execute_schedule();
    }
  }

  std::size_t remaining_steps(std::size_t t) const {
    const std::size_t total = programs_[t].size() + 1;  // ops + tryC
    return total - steps_taken_[t];
  }

  void execute_schedule() {
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
      if (!report_.first_violation.has_value()) report_.first_violation = h;
    }
  }

  const std::vector<Program>& programs_;
  const ExplorerOptions& opts_;
  ExplorerReport& report_;
  std::vector<std::size_t> schedule_;
  std::vector<std::size_t> steps_taken_;
};

}  // namespace

ExplorerReport explore_interleavings(const std::vector<Program>& programs,
                                     const ExplorerOptions& opts) {
  DUO_EXPECTS(opts.make_stm != nullptr);
  DUO_EXPECTS(!programs.empty());
  ExplorerReport report;
  Driver(programs, opts, report).run();
  return report;
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

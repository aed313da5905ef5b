#include "checker/prefix_closure.hpp"

#include "checker/engine.hpp"

namespace duo::checker {

PrefixReport check_all_prefixes(const History& h, const CriterionFn& fn) {
  PrefixReport report;
  report.verdicts.reserve(h.size() + 1);
  bool saw_no = false;
  for (std::size_t n = 0; n <= h.size(); ++n) {
    const Verdict v = fn(h.prefix(n));
    report.verdicts.push_back(v);
    if (v == Verdict::kNo && !report.first_no.has_value())
      report.first_no = n;
    if (v == Verdict::kNo) saw_no = true;
    if (v == Verdict::kYes && saw_no) report.downward_closed = false;
  }
  return report;
}

CriterionFn criterion_fn(Criterion c, std::uint64_t node_budget) {
  return [c, node_budget](const History& h) {
    return check_with_engine(h, c, CheckOptions(node_budget)).verdict;
  };
}

}  // namespace duo::checker

// Safety-property harness (paper §2, Definition 1): evaluate a criterion on
// every event prefix of a history and report the closure structure. Used to
// reproduce Figure 3 (final-state opacity is not prefix-closed), Corollary 2
// (du-opacity is), and to monitor live recorded executions.
#pragma once

#include <functional>
#include <vector>

#include "checker/criteria.hpp"

namespace duo::checker {

/// Evaluates a criterion on a (prefix) history.
using CriterionFn = std::function<Verdict(const History&)>;

struct PrefixReport {
  /// verdicts[n] is the verdict on the prefix of length n (0..size).
  std::vector<Verdict> verdicts;
  /// Shortest length whose prefix verdict is kNo, if any.
  std::optional<std::size_t> first_no;
  /// True when the set of kYes prefixes is downward-closed (never a kNo
  /// followed by a kYes) — the signature of a prefix-closed property.
  bool downward_closed = true;
};

PrefixReport check_all_prefixes(const History& h, const CriterionFn& fn);

/// Criterion c through check_with_engine, with the given node budget.
CriterionFn criterion_fn(Criterion c, std::uint64_t node_budget = 50'000'000);

}  // namespace duo::checker

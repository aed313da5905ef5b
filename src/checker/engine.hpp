// Pluggable checker engines.
//
// Every correctness criterion in this repository reduces to "does a
// serialization satisfying a set of conditions exist?". Two engines decide
// that question:
//
//   - DfsEngine: the exponential backtracking search (checker/search.hpp).
//     Exact on every input; may exhaust its node budget (Verdict::kUnknown).
//
//   - GraphEngine (checker/graph_engine.hpp): polynomial-time decision for
//     histories with the unique-writes property. Under unique writes the
//     reads-from relation is fully determined, so the criterion reduces to
//     choosing per-object version orders and testing a precedence graph for
//     acyclicity — the specialization that makes view-serializability
//     tractable, and the reason recorded workloads (whose writes are unique
//     by construction, see stm/workload.hpp) check in near-linear time.
//
// The router (select_engine / check_with_engine) implements the policy:
// EngineKind::kAuto picks the graph engine whenever it supports the
// (history, criterion) pair and the DFS otherwise; a graph-engine decline —
// it refuses to guess when the version order is genuinely under-determined —
// falls back to the DFS, so auto-routed verdicts are always exact. Forcing
// kGraph surfaces the decline as kUnknown instead. check_with_engine is the
// single entry point: CheckerPool, OnlineMonitor's bounded-search fallback
// and duo_check all funnel through it. Both engines read the criterion's
// CriterionRow (checker/criteria.hpp); neither has per-criterion code.
#pragma once

#include "checker/criteria.hpp"

namespace duo::checker {

/// Strategy interface: one way of deciding a criterion on a history.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual const char* name() const noexcept = 0;

  /// True when the engine decides (h, c) exactly — a cheap structural test
  /// (the graph engine: unique writes), not a resource estimate.
  virtual bool supports(const history::History& h, Criterion c) const = 0;

  /// Decide. kUnknown means the engine could not decide (DFS: budget
  /// exhausted; graph: unsupported input or under-determined version
  /// order) — never a wrong verdict.
  virtual CheckResult check(const history::History& h, Criterion c,
                            const CheckOptions& opts) const = 0;
};

/// The engines are stateless; shared singletons.
const Engine& dfs_engine();
const Engine& graph_engine();  // defined in graph_engine.cpp

struct EngineChoice {
  const Engine* engine = nullptr;
  std::string reason;  // routing rationale for --explain-engine
};

/// Resolve opts.engine against (h, c): kAuto prefers the graph engine when
/// it supports the pair; forced kinds select unconditionally (a forced but
/// unsupported graph engine will then report kUnknown from check()).
EngineChoice select_engine(const history::History& h, Criterion c,
                           const CheckOptions& opts);

/// Route, run, and — in auto mode — fall back to the DFS when the graph
/// engine declines. Fills CheckResult::engine with the trace.
CheckResult check_with_engine(const history::History& h, Criterion c,
                              const CheckOptions& opts = {});

/// The paper's criterion (Definition 3), which the monitor also decides.
inline CheckResult check_du_opacity(const history::History& h,
                                    const CheckOptions& opts = {}) {
  return check_with_engine(h, Criterion::kDuOpacity, opts);
}

/// Shortest rejected prefix of `h` under `c`, as the 0-based index of the
/// event whose arrival first makes the verdict kNo — the same convention as
/// monitor::OnlineMonitor::first_violation(). nullopt when the full history
/// is not rejected.
///
/// Requires a prefix-closed criterion (CriterionRow::prefix_closed:
/// du-opacity per the paper's Corollary 2, opacity by definition), as the
/// search is sound only for those: prefix closure makes the per-length
/// verdict sequence monotone (kYes* then kNo*), so the index is found by
/// binary search — O(log n) engine-routed checks, which on unique-writes
/// histories means graph-engine speed end to end. An undecided probe
/// (budget exhaustion on a DFS-routed prefix) is treated as not-rejected,
/// so under budget pressure the result is the first *provably* bad prefix.
std::optional<std::size_t> first_bad_prefix(const history::History& h,
                                            Criterion c,
                                            const CheckOptions& opts = {});

}  // namespace duo::checker

#include "checker/engine.hpp"

#include "checker/graph_engine.hpp"
#include "checker/legality.hpp"
#include "checker/opacity.hpp"
#include "util/assert.hpp"

namespace duo::checker {

namespace {

/// Why a deferred-update row said "no", when a final-state witness shows it:
/// the paper's Figure 4 narrative. Falls back to the row's text.
std::string du_no_explanation(const history::History& h,
                              const CriterionRow& row,
                              const CheckOptions& opts) {
  const CheckResult fs =
      check_with_engine(h, Criterion::kFinalStateOpacity, opts);
  if (fs.no()) return "not even final-state opaque";
  if (fs.yes() && fs.witness.has_value()) {
    const auto violations = deferred_update_violations(h, *fs.witness);
    // An empty list: this witness is du-legal read by read, yet the
    // exhaustive search proved no serialization meets Def. 3 at once.
    if (!violations.empty())
      return "final-state opaque, but not du-opaque; for one final-state "
             "serialization: " + violations.front();
  }
  return row.no_explanation;
}

class DfsEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "dfs"; }

  bool supports(const history::History&, Criterion) const override {
    return true;  // exact on every input, within budget
  }

  CheckResult check(const history::History& h, Criterion c,
                    const CheckOptions& opts) const override {
    const CriterionRow& row = criterion_row(c);
    CheckResult out;
    if (row.per_prefix) {
      // The per-prefix scan. opts.engine propagates into its sub-checks,
      // so with kAuto even this path decides unique-writes prefixes on the
      // graph engine.
      const OpacityResult r = check_opacity(h, opts);
      out.verdict = r.verdict;
      out.stats.nodes = r.total_nodes;
      if (r.no() && r.first_bad_prefix.has_value())
        out.explanation = std::string(row.no_explanation) + " " +
                          std::to_string(*r.first_bad_prefix);
      return out;
    }
    std::optional<history::History> projection;
    if (row.committed_projection) projection = committed_projection(h);
    const history::History& target = projection ? *projection : h;
    SearchOptions so;
    so.deferred_update = row.deferred_update;
    if (row.commit_edges != nullptr)
      so.commit_edges = commit_pairs(row.commit_edges(target));
    so.node_budget = opts.node_budget;
    so.memo_cap = opts.memo_cap;
    SearchResult r = find_serialization(target, so);

    out.stats = r.stats;
    switch (r.outcome) {
      case Outcome::kSerializable:
        out.verdict = Verdict::kYes;
        out.witness = std::move(r.witness);
        break;
      case Outcome::kNotSerializable:
        out.verdict = Verdict::kNo;
        out.explanation = row.deferred_update
                              ? du_no_explanation(h, row, opts)
                              : row.no_explanation;
        break;
      case Outcome::kBudgetExhausted:
        out.verdict = Verdict::kUnknown;
        out.explanation = "search budget exhausted";
        break;
    }
    return out;
  }
};

}  // namespace

const Engine& dfs_engine() {
  static const DfsEngine kEngine;
  return kEngine;
}

EngineChoice select_engine(const history::History& h, Criterion c,
                           const CheckOptions& opts) {
  switch (opts.engine) {
    case EngineKind::kGraph:
      return {&graph_engine(), "forced (--engine=graph)"};
    case EngineKind::kDfs:
      return {&dfs_engine(), "forced (--engine=dfs)"};
    case EngineKind::kAuto:
      break;
  }
  if (graph_engine().supports(h, c))
    return {&graph_engine(),
            "auto: history has unique writes; criterion reduces to "
            "precedence-graph acyclicity"};
  return {&dfs_engine(), "auto: history lacks unique writes"};
}

CheckResult check_with_engine(const history::History& h, Criterion c,
                              const CheckOptions& opts) {
  const EngineChoice choice = select_engine(h, c, opts);
  // Auto routing just established supports(); skip the graph engine's own
  // re-verification (kOpacity would otherwise repeat the unique-writes
  // sort). The singleton's concrete type is known, so the cast is safe.
  const bool auto_graph = opts.engine == EngineKind::kAuto &&
                          choice.engine == &graph_engine();
  CheckResult result =
      auto_graph ? static_cast<const GraphEngine*>(choice.engine)
                       ->check_supported(h, c, opts)
                 : choice.engine->check(h, c, opts);
  result.engine.engine = choice.engine->name();
  result.engine.reason = choice.reason;

  // Auto-mode exactness guarantee: a graph-engine decline (kUnknown) is
  // answered by the DFS instead of surfacing. Forced kGraph keeps the
  // decline visible.
  if (opts.engine == EngineKind::kAuto &&
      choice.engine == &graph_engine() &&
      result.verdict == Verdict::kUnknown) {
    const std::string decline = result.explanation;
    const EngineTrace graph_trace = result.engine;
    result = dfs_engine().check(h, c, opts);
    result.engine.engine = "graph->dfs";
    result.engine.reason =
        "graph engine declined (" + decline + "); fell back to dfs";
    result.engine.graph_nodes = graph_trace.graph_nodes;
    result.engine.graph_edges = graph_trace.graph_edges;
  }
  return result;
}

std::optional<std::size_t> first_bad_prefix(const history::History& h,
                                            Criterion c,
                                            const CheckOptions& opts) {
  DUO_EXPECTS(criterion_row(c).prefix_closed);
  if (h.size() == 0 || !check_with_engine(h, c, opts).no())
    return std::nullopt;
  // Invariant: the prefix of length hi is rejected (prefix closure then
  // rejects every longer one), every probe of length < lo was not.
  std::size_t lo = 1;
  std::size_t hi = h.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (check_with_engine(h.prefix(mid), c, opts).no())
      hi = mid;
    else
      lo = mid + 1;
  }
  return hi - 1;  // the 0-based index of the prefix's last event
}

}  // namespace duo::checker

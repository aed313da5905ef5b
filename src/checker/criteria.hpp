// The criteria, as data, and the result type every check returns.
//
// Every criterion the paper compares asks one question: does a legal
// serialization that respects the real-time order exist, under a few extra
// conditions? Each criterion is one CriterionRow naming those conditions;
// both engines (checker/engine.hpp) and every front end read the row.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/constraints.hpp"
#include "checker/search.hpp"

namespace duo::checker {

enum class Criterion : std::uint8_t {
  kFinalStateOpacity,   // Definition 4 [8]
  kOpacity,             // Definition 5 [8]: every prefix final-state opaque
  kDuOpacity,           // Definition 3 (this paper)
  kRcoOpacity,          // read-commit-order opacity of [6] (§4.2)
  kTms2,                // TMS2 of [5] (§4.2)
  kStrictSerializability,  // committed projection only (baseline)
};

/// One criterion: the conditions it adds to "a legal serialization that
/// respects the real-time order exists".
struct CriterionRow {
  Criterion criterion;
  const char* name;                              // to_string
  std::array<std::string_view, 2> aliases = {};  // extra CLI names
  /// Def. 3(3): every read legal in its local serialization.
  bool deferred_update = false;
  /// Conditional order: a precedes b if b commits in the completion, in
  /// CommitOrder's chain form (the graph engine reads it as is, the DFS
  /// through commit_pairs). rco_commit_edges, tms2_edges, or nullptr for
  /// none.
  CommitOrder (*commit_edges)(const history::History&) = nullptr;
  /// Judge the committed projection instead of the history.
  bool committed_projection = false;
  /// Every prefix must satisfy the row (opacity, Def. 5).
  bool per_prefix = false;
  /// A rejected history stays rejected in every extension.
  bool prefix_closed = false;
  /// The DFS's explanation of a "no" (the per-prefix row appends the
  /// index of the first bad prefix).
  const char* no_explanation = "";
};

const CriterionRow& criterion_row(Criterion c);

std::string to_string(Criterion c);

/// Inverse of to_string, case-insensitive, accepting each row's aliases
/// (du, fso, opaque, rco, sser, ...). nullopt for unknown names.
std::optional<Criterion> criterion_from_name(const std::string& name);

/// All six criteria, in declaration order (for CLI help / sweeps).
const std::vector<Criterion>& all_criteria();

/// The committed projection: events of committed and commit-pending
/// transactions only. Commit-pending ones stay because their tryC may have
/// taken effect and committed transactions may have read their writes;
/// keeping them is what makes final-state opacity imply strict
/// serializability of the projection.
History committed_projection(const History& h);

/// Tri-state verdict: budget exhaustion is reported, never silently turned
/// into a verdict.
enum class [[nodiscard]] Verdict : std::uint8_t { kYes, kNo, kUnknown };

std::string to_string(Verdict v);

/// Which decision engine a check runs on (see checker/engine.hpp):
///   - kAuto routes to the polynomial graph engine when the history has the
///     unique-writes property (the class every workload and STM backend in
///     this repository produces) and to the DFS otherwise;
///   - kGraph / kDfs force one engine. A forced graph engine on an input it
///     cannot decide reports kUnknown instead of silently searching.
enum class EngineKind : std::uint8_t { kAuto, kGraph, kDfs };

std::string to_string(EngineKind k);

/// Inverse of to_string, case-insensitive (auto, graph, dfs); nullopt for
/// unknown names. Used by the duo_check --engine flag.
std::optional<EngineKind> engine_from_name(const std::string& name);

/// Options of every check, whichever criterion and engine run it.
/// Implicitly constructible from a bare node budget for the
/// `check_x(h, {budget})` call shape.
struct CheckOptions {
  CheckOptions() = default;
  CheckOptions(std::uint64_t budget) : node_budget(budget) {}  // NOLINT

  /// DFS node budget (graph-engine checks never consume it).
  std::uint64_t node_budget = 50'000'000;
  /// Engine routing policy.
  EngineKind engine = EngineKind::kAuto;
  /// DFS memo-table entry cap (see SearchOptions::memo_cap).
  std::size_t memo_cap = 1u << 22;
};

/// How a verdict was produced: which engine ran, why it was selected, and —
/// for the graph engine — the constraint-graph size. Powers the duo_check
/// --explain-engine output.
struct EngineTrace {
  std::string engine;  // "graph", "dfs", or "graph->dfs" after a fallback
  std::string reason;  // routing rationale, human-readable
  std::uint64_t graph_nodes = 0;  // graph engine only: node count
  std::uint64_t graph_edges = 0;  // graph engine only: edge count
};

struct [[nodiscard]] CheckResult {
  Verdict verdict = Verdict::kUnknown;
  /// Witness serialization (present when verdict == kYes and the criterion
  /// is serialization-based on the full history).
  std::optional<Serialization> witness;
  /// Human-readable explanation of a kNo verdict when one is cheap to
  /// produce (e.g. the du-opacity analysis of a final-state witness).
  std::string explanation;
  SearchStats stats;
  EngineTrace engine;

  bool yes() const noexcept { return verdict == Verdict::kYes; }
  bool no() const noexcept { return verdict == Verdict::kNo; }
};

}  // namespace duo::checker

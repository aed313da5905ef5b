// Backtracking search for serializations.
//
// The decision problem (does a final-state / du-opaque serialization exist?)
// generalizes view-serializability testing and is NP-hard, so the engine is
// an exhaustive DFS over topological extensions of the precedence relation
// with three accelerations:
//
//   1. Constraint propagation: real-time order and caller-supplied edges
//      (RCO, TMS2, ≺LS) restrict the candidate set at every step. ≺RT is
//      checked against a cursor over History::completion_order(), so it
//      costs O(1) per candidate and no per-transaction set.
//   2. Exact incremental legality: a transaction's reads are checked at the
//      moment it is placed. Both the global and the deferred-update local
//      condition depend only on the committed writers placed *before* the
//      reader, so placement-time checking prunes without losing solutions.
//   3. Sound memoization: a search state is identified by the set of placed
//      transactions, their commit decisions, and the per-object sequences of
//      committed writers; distinct interleavings reaching an equal state are
//      explored once. Keys are stored exactly (no lossy hashing).
//
// The node budget guards against pathological inputs; exceeding it yields
// Outcome::kBudgetExhausted rather than a wrong verdict.
#pragma once

#include <cstdint>
#include <optional>

#include "checker/serialization.hpp"
#include "history/history.hpp"

namespace duo::checker {

struct SearchOptions {
  /// Require Def. 3(3): every read legal in its local serialization.
  bool deferred_update = false;
  /// Additional precedence edges (a must precede b), tix space.
  std::vector<std::pair<std::size_t, std::size_t>> extra_edges;
  /// Conditional edges (a, b): a must precede b *if b commits in S*. Used
  /// for the RCO and TMS2 rows, whose targets are constrained only in
  /// completions that commit them.
  std::vector<std::pair<std::size_t, std::size_t>> commit_edges;
  /// Maximum DFS nodes before giving up.
  std::uint64_t node_budget = 50'000'000;
  /// Enable the memo table. Disabling it gives the plain search that tests
  /// compare the memoized one against.
  bool memoize = true;
  /// Maximum memo-table entries; past the cap failed subtrees are no longer
  /// recorded (sound — memoization only skips work) but lookups continue.
  std::size_t memo_cap = 1u << 22;
  /// Run the necessary-edge pre-pass (fast_reject.hpp) before searching.
  /// Disabling it gives the reference search that tests compare against.
  bool use_fast_reject = true;
  /// Candidate ordering heuristic: try transactions in commit order first
  /// (tryC invocation index; falls back to first event). Matches the
  /// serialization order deferred-update STMs actually produce, so live
  /// recorded histories verify near-greedily.
  bool commit_order_heuristic = true;
};

enum class Outcome : std::uint8_t {
  kSerializable,
  kNotSerializable,
  kBudgetExhausted,
};

struct SearchStats {
  std::uint64_t nodes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_entries = 0;
  /// True when the necessary-edge pre-pass decided the instance (no DFS).
  bool fast_rejected = false;
};

struct SearchResult {
  Outcome outcome = Outcome::kNotSerializable;
  std::optional<Serialization> witness;  // set iff kSerializable
  SearchStats stats;

  bool found() const noexcept { return outcome == Outcome::kSerializable; }
};

/// Search for a serialization of `h` satisfying real-time order, global
/// legality, and the options' extra conditions.
SearchResult find_serialization(const History& h, const SearchOptions& opts);

}  // namespace duo::checker

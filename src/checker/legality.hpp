// Legality of t-sequential histories (paper §2) and of serializations, plus
// the deferred-update local-serialization condition (paper §3, Def. 3(3)).
//
// These functions form an *independent verification path*: the search engine
// (search.hpp) finds candidate serializations with its own incremental
// checks, and tests re-validate every witness through this module, which
// works directly from the definitions.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "checker/serialization.hpp"
#include "history/history.hpp"

namespace duo::checker {

/// Which conditions verify_serialization should enforce.
struct SerializationRules {
  bool real_time = true;        // Def. 3(2): respect ≺RT of H
  bool global_legality = true;  // S legal (every value read legal in S)
  bool deferred_update = false;  // Def. 3(3): local-serialization legality
  /// Additional required precedence edges (a before b), in tix space; used
  /// for Lemma-4-style tests.
  std::vector<std::pair<std::size_t, std::size_t>> extra_edges;
  /// Conditional edges (a, b): a before b required only when b is committed
  /// in the serialization's completion (commit_pairs of the RCO and TMS2
  /// rows).
  std::vector<std::pair<std::size_t, std::size_t>> commit_edges;
};

/// Check a proposed serialization of `h` against the rules, returning a list
/// of human-readable violations (empty means the serialization is valid).
std::vector<std::string> verify_serialization(const History& h,
                                              const Serialization& s,
                                              const SerializationRules& rules);

/// Legality of an already t-sequential, t-complete history (paper §2):
/// every value-returning read returns the latest written value. Used to
/// cross-check materialize() + verify_serialization() against each other.
bool legal_t_sequential(const History& s);

/// The latest written value of object x at the point just before the
/// transaction at order position `upto` (exclusive), considering only
/// transactions committed in s; falls back to the initial value.
Value latest_committed_value(const History& h, const Serialization& s,
                             std::size_t upto, ObjId x);

/// Diagnose why a final-state serialization fails the deferred-update
/// condition: returns the violations of Def. 3(3) alone for the given
/// witness. Used for paper-style explanations (e.g. Figure 4's narrative).
std::vector<std::string> deferred_update_violations(const History& h,
                                                    const Serialization& s);

}  // namespace duo::checker

// Fast rejection: a linear pre-pass that derives *necessary* conditions any
// serialization must satisfy, and rejects when they are contradictory —
// before the exponential search runs.
//
// Derived facts (each provably necessary; see fast_reject.cpp):
//   - a value-returning external read of v needs a can-commit writer of
//     (X, v) — none: reject;
//   - under deferred update, that writer must additionally have invoked
//     tryC before the read's response — none: reject;
//   - a unique candidate writer must be serialized before the reader (edge)
//     and must commit (activating its conditional commit edges);
//   - a read of a value that no can-commit transaction writes forces every
//     committed-in-H writer of a different value to serialize after the
//     reader (edges);
//   - real-time order (the completion chain of real_time_chain_edges) and
//     caller-supplied edges.
// A cycle among necessary edges means no serialization exists.
//
// The pre-pass is what makes "no" verdicts on recorded histories from
// broken STMs cheap: lost updates and doomed reads both produce 2-cycles,
// and deferred-update leaks from the pessimistic STM are rejected with no
// graph at all.
#pragma once

#include <string>

#include "checker/search.hpp"

namespace duo::checker {

struct FastRejectResult {
  bool rejected = false;
  std::string reason;  // human-readable, set when rejected
};

/// Analyze `h` under the options' rules (deferred_update, extra_edges,
/// commit_edges). `rejected == true` is a sound "not serializable";
/// `rejected == false` is inconclusive.
FastRejectResult fast_reject(const History& h, const SearchOptions& opts);

}  // namespace duo::checker

// GraphEngine: polynomial-time criterion checking for unique-writes
// histories.
//
// The paper's du-opacity decision problem is NP-hard in general, but under
// the unique-writes condition (§4.1 — no two transactions write the same
// value to the same object, no write reuses an initial value; the property
// every workload generator and recorded STM run in this repository
// satisfies) the structure collapses:
//
//   1. Reads-from is fully determined: a value-returning external read of
//      (X, v) can only be served by the unique can-commit transaction whose
//      final write to X is v (or by the imaginary initial writer T0). No
//      candidate => no serialization, exactly as in fast_reject.cpp.
//
//   2. The completion choice is forced: committing a commit-pending
//      transaction nobody reads from only adds constraints (its writes
//      interfere, its conditional edges activate) and relaxes none, so
//      the dominant completion commits exactly the committed-in-H
//      transactions plus the read-from writers.
//
//   3. The deferred-update local-read condition (Def. 3(3)) reduces to a
//      per-read timing predicate: given global legality, the local
//      serialization S^{k,X} sees the same last committed writer as S
//      whenever that writer's tryC invocation precedes the read's response
//      — which stage 1 already requires. No additional search dimension.
//
//   4. What remains is choosing, per object, a total order over its
//      committed writers (the version order) and testing acyclicity of the
//      precedence graph over: real-time edges (sparsified through the
//      completion chain of checker::real_time_chain_edges, shared with
//      fast_reject, so the quadratic ≺RT relation costs O(n) edges),
//      reads-from edges, initial-read ordering edges, criterion edges (TMS2
//      and read-commit-order, in CommitOrder's per-object chain form,
//      activated by the completion), version-chain edges, and per-read
//      anti-dependency edges to the next version. If that graph is
//      acyclic, ANY topological order is a valid serialization (the
//      witness); the engine emits one.
//
//      Node layout: tix 0..n-1, then one node per entry of the completion
//      order (real-time chain), then the criterion's CommitOrder chain
//      nodes (none for the other four criteria). Only tix enter the
//      witness; the Kahn keys put each criterion chain node first as soon
//      as it is ready, so the witness equals the one the expanded pairs
//      would give.
//
// Version orders are resolved in two tiers:
//
//   - Tier A guesses the canonical install order (committed writers sorted
//     by tryC response) — the order every deferred-update STM actually
//     installs versions in — and accepts on acyclicity. This is the
//     near-linear fast path that recorded histories take.
//
//   - Tier B, on a Tier-A cycle, first rejects when the *necessary* edges
//     alone are cyclic (sound "no"), then saturates forced version-order
//     facts to a fixpoint on a Pearce-Kelly IncrementalGraph using its
//     order-pruned reachability: writer-vs-writer reachability orders a
//     pair; a reader k of version w orders every writer that must precede k
//     before w, and every writer after w behind k. If the chains come out
//     total, the verdict is exact either way; a residual genuinely
//     under-determined order makes the engine DECLINE (Verdict::kUnknown
//     with an explanation) rather than guess wrong — the router then falls
//     back to the DFS, keeping auto-mode verdicts exact on every input.
//
// Criteria: all six, read from their CriterionRow: the deferred-update
// flag selects the stage-3 timing predicate, the row's conditional edges
// (RCO, TMS2) join the base graph, a committed-projection row runs on that
// projection, and the per-prefix row (opacity) runs as du-opacity by the
// paper's Theorem 11 (Opacity_ut = DU-Opacity under unique writes).
//
// The online monitor (monitor/monitor.hpp) maintains this engine's Tier-A
// edge set *incrementally* as its streaming fast path — the two must stay
// in lockstep edge-for-edge (real-time sparsification, reads-from,
// version chains from the canonical install key, anti-dependency skip
// rule, initial-read edges), which tests/oracle_test.cpp enforces by
// per-prefix verdict equality. Change the Tier-A derivation here and the
// monitor's maintenance rules must follow.
#pragma once

#include "checker/engine.hpp"

namespace duo::checker {

class GraphEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "graph"; }

  /// Unique-writes histories only (all six criteria).
  bool supports(const history::History& h, Criterion c) const override;

  CheckResult check(const history::History& h, Criterion c,
                    const CheckOptions& opts) const override;

  /// As check(), but the caller vouches that supports(h, c) just held —
  /// the auto router calls this right after routing, skipping the repeated
  /// O(W log W) Theorem-11 unique-writes gate that kOpacity otherwise
  /// re-verifies for direct/forced calls.
  CheckResult check_supported(const history::History& h, Criterion c,
                              const CheckOptions& opts) const;
};

}  // namespace duo::checker

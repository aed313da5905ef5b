// Static precedence-edge generators. Real-time order (paper §2), which
// every criterion enforces, as a completion chain. And the constraints of
// criteria that strengthen final-state opacity with an order condition on
// specific transaction pairs: the read-commit-order definition of
// Guerraoui, Henzinger, Singh [6] and the TMS2 condition of Doherty,
// Groves, Luchangco, Moir [5] (both as described in §4.2 of the paper).
// Both are conditional: a pair (a, b) binds only in completions that commit
// b (SearchOptions::commit_edges).
#pragma once

#include <utility>
#include <vector>

#include "history/history.hpp"

namespace duo::checker {

using Edges = std::vector<std::pair<std::size_t, std::size_t>>;

/// Real-time order as O(n) edges through a completion chain. Nodes 0..n-1
/// are tix; node n + i stands for the i-th entry c_i of
/// h.completion_order(), so the graph has n + completion_order().size()
/// nodes. Edges: c_i -> n + i (a completion reaches its chain node),
/// n + i -> n + i + 1 (the chain), and n + j - 1 -> b for every b with
/// j = h.rt_pred_count(b) > 0. A tix a reaches a tix b through chain nodes
/// iff a ≺RT b, so reachability among tix, and with it acyclicity and
/// every topological order, equals that of the quadratic relation.
Edges real_time_chain_edges(const history::History& h);

/// Read-commit-order edges ([6], §4.2): if a value-returning t-read of X by
/// T_k responds before the tryC invocation of a transaction T_m that commits
/// on X, then T_k must precede T_m in the serialization.
///
/// "Commits" is evaluated against the *serialization's completion*: a
/// commit-pending writer that the completion commits is constrained exactly
/// like one committed in H (otherwise RCO would not imply du-opacity in the
/// presence of commit-pending transactions — a subtlety our random-corpus
/// tests surfaced). The returned pairs (k, m) are therefore conditional:
/// enforce k before m only when m is committed in S. For writers committed
/// in H the condition is vacuous and the edge is effectively static.
Edges rco_commit_edges(const history::History& h);

/// TMS2 edges (§4.2): if T_a and T_b conflict on X with X ∈ Wset(T_a) ∩
/// Rset(T_b), T_a successfully commits on X in H, and T_a's tryC response
/// precedes T_b's tryC invocation, then T_a must precede T_b in the
/// serialization. Rset is taken literally (paper §2: the objects the
/// transaction reads), so reads of one's own writes count.
///
/// Only update readers are ordered, and only when they commit. TMS2
/// (Doherty, Groves, Luchangco & Moir, "Towards formally specifying and
/// verifying transactional memory", the paper's [5]) serializes an update
/// transaction at its commit, but lets a read-only or aborted transaction
/// serialize at an earlier snapshot, where it may miss T_a's write. So T_b
/// must write at least one object, and the pairs (a, b) are conditional
/// like rco_commit_edges: enforce them only when b commits in S.
Edges tms2_edges(const history::History& h);

}  // namespace duo::checker

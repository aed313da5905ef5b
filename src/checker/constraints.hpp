// Static precedence-edge generators. Real-time order (paper §2), which
// every criterion enforces, as a completion chain. And the constraints of
// criteria that strengthen final-state opacity with an order condition on
// specific transaction pairs: the read-commit-order definition of
// Guerraoui, Henzinger, Singh [6] and the TMS2 condition of Doherty,
// Groves, Luchangco, Moir [5] (both as described in §4.2 of the paper).
// Both are conditional: a must precede b only in completions that commit b
// (see CommitOrder).
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

/// A conditional order over transactions, as a DAG through chain nodes.
/// Nodes 0..num_txns-1 are tix; nodes num_txns..num_txns+chain_nodes-1 are
/// auxiliary chain nodes. The binding rule: an edge into a tix binds only
/// in completions that commit that tix; an edge into a chain node always
/// binds. So a tix a must precede a tix b in S exactly when b commits in S
/// and b is reachable from a by one edge or by a path whose interior nodes
/// are all chain nodes (commit_pairs lists those pairs). No tix reaches
/// itself.
///
/// Both criteria below lay one chain per object X over a list of
/// transactions sorted by tryC invocation: chain node c_i has the edges
/// c_i -> c_{i+1} and c_i -> (i-th listed transaction). A source whose
/// rule covers "every listed transaction whose tryC comes after event e"
/// enters the chain with one edge at the first such position, so the
/// encoding has O(events) edges (plus RCO's direct edges, below) where the
/// pairs it stands for can be quadratic.
struct CommitOrder {
  std::size_t num_txns = 0;
  std::size_t chain_nodes = 0;
  Edges edges;
};

/// Read-commit-order edges ([6], §4.2): if a value-returning t-read of X by
/// T_k responds before the tryC invocation of a transaction T_m that commits
/// on X, then T_k must precede T_m in the serialization.
///
/// "Commits" is evaluated against the *serialization's completion*: a
/// commit-pending writer that the completion commits is constrained exactly
/// like one committed in H (otherwise RCO would not imply du-opacity in the
/// presence of commit-pending transactions — a subtlety our random-corpus
/// tests surfaced). The order is therefore conditional: enforce k before m
/// only when m is committed in S. For writers committed in H the condition
/// is vacuous and the edge is effectively static.
///
/// Encoding: per object X, a chain over the committed and commit-pending
/// X-writers. A read of X by T_k enters it at the first writer whose tryC
/// invocation follows the read's response. If T_k is itself such an
/// X-writer, at position p, it must not reach itself: it gets direct edges
/// to the writers before p and enters the chain at p + 1.
CommitOrder rco_commit_edges(const history::History& h);

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
/// must write at least one object, and the order is conditional like
/// rco_commit_edges: enforce it only when b commits in S.
///
/// Encoding: per object X, a chain over the committed and commit-pending
/// update transactions that read X. A committed X-writer T_a enters it at
/// the first reader whose tryC invocation follows T_a's tryC response;
/// T_a's own tryC comes earlier, so T_a is never in its own suffix.
CommitOrder tms2_edges(const history::History& h);

/// The conditional pairs (a, b) of `order`, each once: b is a tix reachable
/// from the tix a by one edge or through chain nodes only. What the DFS
/// (SearchOptions::commit_edges) and verify_serialization consume; the
/// output can be quadratic in the size of `order`.
Edges commit_pairs(const CommitOrder& order);

}  // namespace duo::checker

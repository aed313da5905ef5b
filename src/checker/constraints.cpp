#include "checker/constraints.hpp"

#include <algorithm>

namespace duo::checker {

using history::History;
using history::Op;
using history::OpKind;
using history::Transaction;

namespace {

using PerObject = std::vector<std::vector<std::size_t>>;

/// Sorts each object's list of tix by tryC invocation (event indices are
/// unique, so each list is a total order).
void sort_by_tryc(const History& h, PerObject& lists) {
  for (auto& list : lists)
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return *h.txn(a).tryc_inv < *h.txn(b).tryc_inv;
    });
}

/// Lays one chain per object over `lists`: chain node c_i of list X gets
/// c_i -> c_{i+1} and c_i -> X[i]. Returns each list's first chain node.
std::vector<std::size_t> lay_chains(const PerObject& lists, CommitOrder& out) {
  std::vector<std::size_t> first(lists.size());
  for (std::size_t x = 0; x < lists.size(); ++x) {
    first[x] = out.num_txns + out.chain_nodes;
    for (std::size_t i = 0; i < lists[x].size(); ++i) {
      const std::size_t c = first[x] + i;
      if (i + 1 < lists[x].size()) out.edges.emplace_back(c, c + 1);
      out.edges.emplace_back(c, lists[x][i]);
    }
    out.chain_nodes += lists[x].size();
  }
  return first;
}

/// Position of the first entry of `list` whose tryC invocation comes after
/// event `after`.
std::size_t first_tryc_after(const History& h,
                             const std::vector<std::size_t>& list,
                             std::size_t after) {
  return static_cast<std::size_t>(
      std::upper_bound(list.begin(), list.end(), after,
                       [&](std::size_t e, std::size_t t) {
                         return e < *h.txn(t).tryc_inv;
                       }) -
      list.begin());
}

bool can_commit(const Transaction& t) {
  return t.committed() || t.commit_pending();
}

}  // namespace

Edges real_time_chain_edges(const History& h) {
  const std::size_t n = h.num_txns();
  const std::vector<std::size_t>& done = h.completion_order();
  Edges edges;
  edges.reserve(n + 2 * done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    edges.emplace_back(done[i], n + i);
    if (i + 1 < done.size()) edges.emplace_back(n + i, n + i + 1);
  }
  for (std::size_t b = 0; b < n; ++b)
    if (const std::size_t j = h.rt_pred_count(b); j > 0)
      edges.emplace_back(n + j - 1, b);
  return edges;
}

CommitOrder rco_commit_edges(const History& h) {
  CommitOrder out;
  out.num_txns = h.num_txns();
  // Candidates that can commit in some completion: committed in H or
  // commit-pending. Aborted/running transactions never commit.
  PerObject writers(static_cast<std::size_t>(h.num_objects()));
  for (std::size_t m = 0; m < out.num_txns; ++m)
    if (can_commit(h.txn(m)))
      for (const auto& [obj, v] : h.txn(m).final_writes)
        writers[static_cast<std::size_t>(obj)].push_back(m);
  sort_by_tryc(h, writers);
  const std::vector<std::size_t> first = lay_chains(writers, out);
  for (std::size_t k = 0; k < out.num_txns; ++k) {
    const Transaction& reader = h.txn(k);
    for (const Op& op : reader.ops) {
      if (!op.value_response()) continue;
      const auto x = static_cast<std::size_t>(op.obj);
      const auto& list = writers[x];
      const std::size_t j = first_tryc_after(h, list, op.resp_index);
      if (j == list.size()) continue;
      if (!can_commit(reader) || !reader.writes(op.obj)) {
        out.edges.emplace_back(k, first[x] + j);
        continue;
      }
      // k writes X itself, at a position p >= j (its tryC follows its
      // read): order it before the others directly, skipping itself.
      const std::size_t p = first_tryc_after(h, list, *reader.tryc_inv) - 1;
      DUO_ASSERT(p >= j && list[p] == k);
      for (std::size_t i = j; i < p; ++i) out.edges.emplace_back(k, list[i]);
      if (p + 1 < list.size()) out.edges.emplace_back(k, first[x] + p + 1);
    }
  }
  return out;
}

CommitOrder tms2_edges(const History& h) {
  CommitOrder out;
  out.num_txns = h.num_txns();
  // Update readers that can commit; an edge into one binds only if it does.
  PerObject readers(static_cast<std::size_t>(h.num_objects()));
  for (std::size_t b = 0; b < out.num_txns; ++b) {
    const Transaction& tb = h.txn(b);
    if (!can_commit(tb) || tb.final_writes.empty()) continue;
    for (const Op& op : tb.ops)
      if (op.value_response())
        readers[static_cast<std::size_t>(op.obj)].push_back(b);
  }
  sort_by_tryc(h, readers);
  const std::vector<std::size_t> first = lay_chains(readers, out);
  for (std::size_t a = 0; a < out.num_txns; ++a) {
    const Transaction& ta = h.txn(a);
    if (!ta.committed()) continue;
    const Op& tryc = ta.ops.back();
    DUO_ASSERT(tryc.kind == OpKind::kTryCommit && tryc.has_response);
    // T_a's own tryC precedes its response, so T_a is never in the suffix.
    for (const auto& [obj, v] : ta.final_writes) {
      const auto x = static_cast<std::size_t>(obj);
      const std::size_t j = first_tryc_after(h, readers[x], tryc.resp_index);
      if (j < readers[x].size()) out.edges.emplace_back(a, first[x] + j);
    }
  }
  return out;
}

Edges commit_pairs(const CommitOrder& order) {
  const std::size_t n = order.num_txns;
  const std::size_t num_nodes = n + order.chain_nodes;
  std::vector<std::size_t> head(num_nodes + 1, 0);
  for (const auto& [a, b] : order.edges) ++head[a + 1];
  for (std::size_t v = 0; v < num_nodes; ++v) head[v + 1] += head[v];
  std::vector<std::size_t> succ(order.edges.size());
  {
    std::vector<std::size_t> fill = head;
    for (const auto& [a, b] : order.edges) succ[fill[a]++] = b;
  }
  // Per source a: every tix one edge away, or reached through chain nodes
  // only. seen[v] == a + 1 marks v as visited from a.
  Edges pairs;
  std::vector<std::size_t> seen(num_nodes, 0);
  std::vector<std::size_t> stack;
  for (std::size_t a = 0; a < n; ++a) {
    stack.assign(1, a);
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (std::size_t i = head[u]; i < head[u + 1]; ++i) {
        const std::size_t v = succ[i];
        if (seen[v] == a + 1) continue;
        seen[v] = a + 1;
        if (v >= n) {
          stack.push_back(v);
        } else {
          DUO_ASSERT(v != a);  // no encoding orders a transaction before itself
          pairs.emplace_back(a, v);
        }
      }
    }
  }
  return pairs;
}

}  // namespace duo::checker

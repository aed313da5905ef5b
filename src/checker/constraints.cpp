#include "checker/constraints.hpp"

namespace duo::checker {

using history::History;
using history::Op;
using history::OpKind;
using history::Transaction;

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

Edges rco_commit_edges(const History& h) {
  Edges edges;
  const std::size_t n = h.num_txns();
  for (std::size_t k = 0; k < n; ++k) {
    const Transaction& reader = h.txn(k);
    for (const Op& op : reader.ops) {
      if (!op.value_response()) continue;
      for (std::size_t m = 0; m < n; ++m) {
        if (m == k) continue;
        const Transaction& writer = h.txn(m);
        // Candidates that can commit in some completion: committed in H or
        // commit-pending. Aborted/running transactions never commit.
        if (!(writer.committed() || writer.commit_pending())) continue;
        if (!writer.writes(op.obj)) continue;
        DUO_ASSERT(writer.tryc_inv.has_value());
        if (op.resp_index < *writer.tryc_inv) edges.emplace_back(k, m);
      }
    }
  }
  return edges;
}

Edges tms2_edges(const History& h) {
  Edges edges;
  const std::size_t n = h.num_txns();
  for (std::size_t a = 0; a < n; ++a) {
    const Transaction& ta = h.txn(a);
    if (!ta.committed()) continue;
    // tryC response index of T_a: the response of its tryC operation.
    std::size_t ca_resp = 0;
    bool found = false;
    for (const Op& op : ta.ops)
      if (op.kind == OpKind::kTryCommit && op.has_response) {
        ca_resp = op.resp_index;
        found = true;
      }
    DUO_ASSERT(found);
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const Transaction& tb = h.txn(b);
      // Update readers that can commit; the edge binds only if b does.
      if (!(tb.committed() || tb.commit_pending())) continue;
      if (tb.final_writes.empty()) continue;
      DUO_ASSERT(tb.tryc_inv.has_value());
      if (ca_resp >= *tb.tryc_inv) continue;
      // Does T_b read an object T_a writes?
      bool conflict = false;
      for (const Op& op : tb.ops) {
        if (op.value_response() && ta.writes(op.obj)) {
          conflict = true;
          break;
        }
      }
      if (conflict) edges.emplace_back(a, b);
    }
  }
  return edges;
}

}  // namespace duo::checker

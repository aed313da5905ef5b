#include "checker/fast_reject.hpp"

#include <sstream>
#include <vector>

#include "checker/constraints.hpp"
#include "history/transaction.hpp"

namespace duo::checker {

using history::Op;
using history::OpKind;

namespace {

/// Iterative three-color DFS cycle detection.
bool has_cycle(const std::vector<std::vector<std::size_t>>& adj) {
  const std::size_t n = adj.size();
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (node, edge idx)
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    stack.emplace_back(root, 0);
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [u, i] = stack.back();
      if (i < adj[u].size()) {
        const std::size_t v = adj[u][i++];
        if (color[v] == kGray) return true;
        if (color[v] == kWhite) {
          color[v] = kGray;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

std::string read_desc(const History& h, std::size_t k, const Op& op) {
  std::ostringstream out;
  out << "read" << h.txn(k).id << "(X" << op.obj << ")=" << op.result;
  return out.str();
}

}  // namespace

FastRejectResult fast_reject(const History& h, const SearchOptions& opts) {
  FastRejectResult result;
  const std::size_t n = h.num_txns();
  // Nodes 0..n-1 are tix; the rest are real-time completion-chain nodes.
  std::vector<std::vector<std::size_t>> adj(n + h.completion_order().size());

  auto add_edge = [&](std::size_t a, std::size_t b) {
    adj[a].push_back(b);
  };

  // Real-time order and caller-supplied static edges.
  for (const auto& [a, b] : real_time_chain_edges(h)) add_edge(a, b);
  for (const auto& [a, b] : opts.extra_edges) add_edge(a, b);

  // Transactions that must commit in every completion: committed in H, plus
  // unique candidate writers discovered below.
  std::vector<bool> must_commit(n, false);
  for (std::size_t tix = 0; tix < n; ++tix)
    must_commit[tix] = h.txn(tix).committed();

  for (std::size_t k = 0; k < n; ++k) {
    const Transaction& reader = h.txn(k);
    for (const std::size_t oi : reader.external_reads) {
      const Op& op = reader.ops[oi];
      const bool is_initial = op.result == h.initial_value(op.obj);

      // Candidate writers that can commit (X, v).
      std::vector<std::size_t> candidates;
      bool local_candidate = false;  // one with tryC invoked before the read
      for (std::size_t m = 0; m < n; ++m) {
        if (m == k) continue;
        const Transaction& w = h.txn(m);
        if (!(w.committed() || w.commit_pending())) continue;
        const auto fv = w.final_write_value(op.obj);
        if (!fv.has_value() || *fv != op.result) continue;
        candidates.push_back(m);
        DUO_ASSERT(w.tryc_inv.has_value());
        if (*w.tryc_inv < op.resp_index) local_candidate = true;
      }

      if (!is_initial && candidates.empty()) {
        result.rejected = true;
        result.reason = read_desc(h, k, op) +
                        ": no transaction that can commit writes this value";
        return result;
      }
      if (!is_initial && opts.deferred_update && !local_candidate) {
        result.rejected = true;
        result.reason =
            read_desc(h, k, op) +
            ": no candidate writer invoked tryC before the read's response "
            "(deferred-update violation)";
        return result;
      }
      if (!is_initial && candidates.size() == 1) {
        // The unique writer must precede the reader and must commit.
        add_edge(candidates[0], k);
        must_commit[candidates[0]] = true;
      }
      if (is_initial && candidates.empty()) {
        // Nothing can restore the initial value: every committed-in-H
        // writer of a different value to this object must follow the read.
        for (std::size_t m = 0; m < n; ++m) {
          if (m == k || !h.txn(m).committed()) continue;
          const auto fv = h.txn(m).final_write_value(op.obj);
          if (fv.has_value() && *fv != op.result) add_edge(k, m);
        }
      }
    }
  }

  // Conditional commit edges become necessary when their target must
  // commit in every completion.
  for (const auto& [a, b] : opts.commit_edges)
    if (must_commit[b]) add_edge(a, b);

  if (has_cycle(adj)) {
    result.rejected = true;
    result.reason = "necessary serialization edges form a cycle";
  }
  return result;
}

}  // namespace duo::checker

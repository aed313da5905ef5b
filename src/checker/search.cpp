#include "checker/search.hpp"

#include <algorithm>
#include <unordered_set>

#include "checker/fast_reject.hpp"
#include "history/transaction.hpp"

namespace duo::checker {

using history::Op;
using history::OpKind;

namespace {

constexpr std::size_t kNotCompletion = static_cast<std::size_t>(-1);

/// A read constraint of one transaction, precomputed for the inner loop.
struct ReadConstraint {
  ObjId obj;
  Value value;
  std::size_t resp_index;  // response position in H (du filter cutoff)
};

struct TxnNode {
  std::vector<ReadConstraint> reads;           // external value reads
  std::vector<std::pair<ObjId, Value>> writes;  // final writes
  std::optional<std::size_t> tryc_inv;
  bool forced_committed = false;
  bool forced_aborted = false;  // aborted or running in H
  std::size_t sort_key = 0;     // candidate ordering heuristic
  /// Number of ≺RT predecessors: the first rt_pred_count entries of the
  /// completion order must be placed before this one.
  std::size_t rt_pred_count = 0;
  /// Transactions that must already be placed (SearchOptions::extra_edges
  /// sources), and those that must be if this one commits in S
  /// (SearchOptions::commit_edges sources).
  std::vector<std::size_t> preds;
  std::vector<std::size_t> commit_preds;
};

/// Exact memo key: placed set, commit decisions, per-object committed-writer
/// sequences. Stored as a flat word vector (sound: equality is exact).
struct MemoKey {
  std::vector<std::uint32_t> words;
  bool operator==(const MemoKey& other) const noexcept {
    return words == other.words;
  }
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint32_t w : k.words) {
      h ^= w;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

class Searcher {
 public:
  Searcher(const History& h, const SearchOptions& opts) : h_(h), opts_(opts) {
    const std::size_t n = h.num_txns();
    nodes_.resize(n);
    completion_rank_.assign(n, kNotCompletion);
    for (std::size_t i = 0; i < h.completion_order().size(); ++i)
      completion_rank_[h.completion_order()[i]] = i;
    for (std::size_t tix = 0; tix < n; ++tix) {
      const Transaction& t = h.txn(tix);
      TxnNode& node = nodes_[tix];
      for (const std::size_t oi : t.external_reads) {
        const Op& op = t.ops[oi];
        node.reads.push_back({op.obj, op.result, op.resp_index});
      }
      node.writes = t.final_writes;
      node.tryc_inv = t.tryc_inv;
      node.forced_committed = t.status == TxnStatus::kCommitted;
      node.forced_aborted = t.status == TxnStatus::kAborted ||
                            t.status == TxnStatus::kRunning;
      node.sort_key = (opts.commit_order_heuristic && t.tryc_inv.has_value())
                          ? *t.tryc_inv
                          : t.first_event;
      node.rt_pred_count = h.rt_pred_count(tix);
    }
    for (const auto& [a, b] : opts.extra_edges) {
      DUO_EXPECTS(a < n && b < n);
      nodes_[b].preds.push_back(a);
    }
    for (const auto& [a, b] : opts.commit_edges) {
      DUO_EXPECTS(a < n && b < n);
      nodes_[b].commit_preds.push_back(a);
    }
    // Candidate visit order.
    order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return nodes_[a].sort_key < nodes_[b].sort_key;
    });
  }

  SearchResult run() {
    SearchResult result;
    const std::size_t n = h_.num_txns();

    // Internal reads are placement-independent; if any is wrong, no legal
    // serialization exists at all.
    for (const Transaction& t : h_.transactions()) {
      for (const std::size_t oi : t.internal_reads) {
        const Op& op = t.ops[oi];
        std::optional<Value> own;
        for (std::size_t j = 0; j < oi; ++j) {
          const Op& w = t.ops[j];
          if (w.kind == OpKind::kWrite && w.has_response && !w.aborted &&
              w.obj == op.obj)
            own = w.arg;
        }
        if (!own.has_value() || *own != op.result) {
          result.outcome = Outcome::kNotSerializable;
          result.stats = stats_;
          return result;
        }
      }
    }

    placed_ = util::DynamicBitset(n);
    committed_ = util::DynamicBitset(n);
    first_unplaced_completion_ = 0;
    writers_.assign(static_cast<std::size_t>(h_.num_objects()), {});
    seq_.clear();
    seq_.reserve(n);
    budget_exhausted_ = false;

    const bool found = dfs();
    result.stats = stats_;
    if (found) {
      result.outcome = Outcome::kSerializable;
      Serialization s;
      s.order = seq_;
      s.committed = committed_;
      result.witness = std::move(s);
    } else {
      result.outcome = budget_exhausted_ ? Outcome::kBudgetExhausted
                                         : Outcome::kNotSerializable;
    }
    return result;
  }

 private:
  bool dfs() {
    if (seq_.size() == h_.num_txns()) return true;
    if (++stats_.nodes > opts_.node_budget) {
      budget_exhausted_ = true;
      return false;
    }
    MemoKey key;
    if (opts_.memoize) {
      key = make_key();
      if (memo_.contains(key)) {
        ++stats_.memo_hits;
        return false;
      }
    }

    // Effect-free greedy placement. A transaction is *eligible* when every
    // decision a solution could take for it leaves the search state
    // untouched: aborted/running transactions (their writes never install),
    // and read-only transactions (commit-pending read-only ones can always
    // be switched to the abort completion, which only relaxes constraints).
    // If an eligible transaction is placeable and its reads are legal right
    // now, it can be placed immediately WITHOUT exploring alternatives: by
    // an exchange argument any solution can be rewritten to place it here
    // first — it contributes nothing anyone could depend on, and every
    // precedence into it is already satisfied. This collapses the
    // exponential interleavings of aborted/read-only transactions that
    // dominate recorded STM histories and the paper's Figure 2 family.
    //
    // The chain is built ITERATIVELY, not by recursing per placement:
    // recorded STM histories under contention are dominated by aborted
    // attempts, so the chain routinely runs to tens of thousands of
    // placements, and one stack frame per placement overflows the stack
    // under ASan's enlarged frames (surfaced by the asan-ubsan CI job on
    // stm_conformance_test). The chain never branches — a failed tip
    // refutes every state along it by the same exchange argument — so a
    // loop expresses it exactly. Node accounting is unchanged: one node
    // per non-terminal placement, as the recursive form charged on entry.
    std::vector<std::pair<std::size_t, bool>> chain;
    bool complete = false;
    // `placed_` only grows inside this loop, so the fully-placed prefix of
    // order_ can be skipped permanently — rescans stay linear overall on
    // the sequential histories where the chain is longest.
    std::size_t skip = 0;
    for (bool progress = true; progress && !budget_exhausted_;) {
      progress = false;
      while (skip < order_.size() && placed_.test(order_[skip])) ++skip;
      for (std::size_t oi = skip; oi < order_.size(); ++oi) {
        const std::size_t tix = order_[oi];
        if (placed_.test(tix)) continue;
        if (!ready(tix)) continue;
        const TxnNode& node = nodes_[tix];
        const bool eligible = node.forced_aborted || node.writes.empty();
        if (!eligible) continue;
        // The effect-free decision: commit only when abort is disallowed
        // (committed-in-H read-only); otherwise abort (dominates committing
        // for read-only commit-pending transactions).
        const bool commit = node.forced_committed;
        if (place(tix, commit)) {
          chain.emplace_back(tix, commit);
          if (seq_.size() == h_.num_txns()) {
            complete = true;
          } else if (++stats_.nodes > opts_.node_budget) {
            budget_exhausted_ = true;
          } else {
            progress = true;  // rescan (a placement can unblock others)
          }
          break;
        }
      }
    }
    if (complete) return true;

    if (!budget_exhausted_) {
      // Branch at the chain tip (or at the entry state when no effect-free
      // placement was possible): commit/abort decisions for the remaining
      // contended transactions.
      for (const std::size_t tix : order_) {
        if (placed_.test(tix)) continue;
        if (!ready(tix)) continue;
        const TxnNode& node = nodes_[tix];

        // Commit decision branches: forced for all but commit-pending txns.
        const bool try_commit = !node.forced_aborted;
        const bool try_abort = !node.forced_committed;

        if (try_commit && place(tix, /*commit=*/true)) {
          if (dfs()) return true;
          unplace(tix, true);
          if (budget_exhausted_) break;
        }
        if (try_abort && place(tix, /*commit=*/false)) {
          if (dfs()) return true;
          unplace(tix, false);
          if (budget_exhausted_) break;
        }
      }
    }

    // Failed (or out of budget): unwind the greedy chain — the branching
    // phase above already unwound its own placements.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      unplace(it->first, it->second);
    if (budget_exhausted_) return false;

    // Only fully-failed subtrees are memoized (success returns early above).
    if (opts_.memoize && memo_.size() < opts_.memo_cap) {
      memo_.insert(std::move(key));
      stats_.memo_entries = memo_.size();
    }
    return false;
  }

  /// Every unconditional predecessor of `tix` is placed: all its ≺RT
  /// predecessors (a prefix of the completion order, so one comparison with
  /// the cursor) and every extra_edges source.
  bool ready(std::size_t tix) const {
    const TxnNode& node = nodes_[tix];
    if (node.rt_pred_count > first_unplaced_completion_) return false;
    for (const std::size_t k : node.preds)
      if (!placed_.test(k)) return false;
    return true;
  }

  /// Try to place `tix`; returns false (without side effects) if its reads
  /// would be illegal at this position.
  bool place(std::size_t tix, bool commit) {
    const TxnNode& node = nodes_[tix];
    if (commit) {
      // Conditional predecessors apply only to committing placements.
      for (const std::size_t k : node.commit_preds)
        if (!placed_.test(k)) return false;
    }
    for (const ReadConstraint& r : node.reads) {
      const auto& stack = writers_[static_cast<std::size_t>(r.obj)];
      // Global legality: latest committed writer (if any), else initial.
      const Value global = stack.empty()
                               ? h_.initial_value(r.obj)
                               : writer_value(stack.back(), r.obj);
      if (global != r.value) return false;
      if (opts_.deferred_update) {
        // Local-serialization legality: latest committed writer whose tryC
        // invocation precedes the read's response in H.
        Value local = h_.initial_value(r.obj);
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          const TxnNode& w = nodes_[*it];
          DUO_ASSERT(w.tryc_inv.has_value());
          if (*w.tryc_inv < r.resp_index) {
            local = writer_value(*it, r.obj);
            break;
          }
        }
        if (local != r.value) return false;
      }
    }
    placed_.set(tix);
    if (commit) {
      committed_.set(tix);
      for (const auto& w : node.writes)
        writers_[static_cast<std::size_t>(w.first)].push_back(tix);
    }
    seq_.push_back(tix);
    const auto& done = h_.completion_order();
    while (first_unplaced_completion_ < done.size() &&
           placed_.test(done[first_unplaced_completion_]))
      ++first_unplaced_completion_;
    return true;
  }

  void unplace(std::size_t tix, bool commit) {
    DUO_ASSERT(!seq_.empty() && seq_.back() == tix);
    seq_.pop_back();
    placed_.reset(tix);
    // Only `tix` became unplaced: the cursor falls back to its rank if that
    // is lower.
    first_unplaced_completion_ =
        std::min(first_unplaced_completion_, completion_rank_[tix]);
    if (commit) {
      committed_.reset(tix);
      for (const auto& w : nodes_[tix].writes) {
        auto& stack = writers_[static_cast<std::size_t>(w.first)];
        DUO_ASSERT(!stack.empty() && stack.back() == tix);
        stack.pop_back();
      }
    }
  }

  Value writer_value(std::size_t tix, ObjId obj) const {
    for (const auto& [o, v] : nodes_[tix].writes)
      if (o == obj) return v;
    DUO_UNREACHABLE("writer stack entry does not write object");
  }

  MemoKey make_key() const {
    MemoKey key;
    const std::size_t n = h_.num_txns();
    key.words.reserve(n / 16 + writers_.size() + seq_.size() + 4);
    // Placed + decisions, 2 bits per transaction packed into words.
    std::uint32_t acc = 0;
    int fill = 0;
    for (std::size_t tix = 0; tix < n; ++tix) {
      acc = (acc << 2) | (static_cast<std::uint32_t>(placed_.test(tix)) << 1 |
                          static_cast<std::uint32_t>(committed_.test(tix)));
      if (++fill == 16) {
        key.words.push_back(acc);
        acc = 0;
        fill = 0;
      }
    }
    if (fill > 0) key.words.push_back(acc);
    // Per-object committed writer sequences (order matters for du checks).
    for (const auto& stack : writers_) {
      for (const std::size_t w : stack)
        key.words.push_back(static_cast<std::uint32_t>(w));
      key.words.push_back(0xffffffffu);  // separator
    }
    return key;
  }

  const History& h_;
  const SearchOptions& opts_;
  std::vector<TxnNode> nodes_;
  std::vector<std::size_t> completion_rank_;  // index in completion order
  std::vector<std::size_t> order_;

  util::DynamicBitset placed_;
  util::DynamicBitset committed_;
  std::vector<std::vector<std::size_t>> writers_;  // per object
  std::vector<std::size_t> seq_;
  /// Rank of the first unplaced completion: the completions ranked below it
  /// are all placed, so a transaction with k ≺RT predecessors is
  /// real-time-ready iff k <= this.
  std::size_t first_unplaced_completion_ = 0;
  std::unordered_set<MemoKey, MemoKeyHash> memo_;
  SearchStats stats_;
  bool budget_exhausted_ = false;
};

}  // namespace

SearchResult find_serialization(const History& h, const SearchOptions& opts) {
  if (opts.use_fast_reject) {
    const FastRejectResult fr = fast_reject(h, opts);
    if (fr.rejected) {
      SearchResult result;
      result.outcome = Outcome::kNotSerializable;
      result.stats.fast_rejected = true;
      return result;
    }
  }
  Searcher searcher(h, opts);
  return searcher.run();
}

}  // namespace duo::checker

#include "monitor/monitor.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "checker/engine.hpp"
#include "util/assert.hpp"

namespace duo::monitor {

using history::EventKind;
using history::OpKind;

OnlineMonitor::OnlineMonitor(const MonitorOptions& opts) : opts_(opts) {
  gc_trigger_ = opts_.gc_retain_events;
  num_shards_ = util::resolve_threads(opts_.shards);
  shards_.resize(num_shards_);
}

// ---------------------------------------------------------------------------
// Validation (mirrors History::make, but one event at a time). Diagnostics
// are human-readable text, so events are numbered from 1 here; the
// machine-facing first_violation() index is 0-based (see monitor.hpp).

std::string OnlineMonitor::fail_msg(const char* why, const Event& e) const {
  // Built only on failure: the success path of validate() must not pay for
  // an ostringstream per event (it used to, and it was a measurable slice
  // of the per-event feed cost).
  std::ostringstream msg;
  msg << why << " at event " << total_events_ + 1 << " ("
      << history::to_string(e) << ")";
  return msg.str();
}

std::string OnlineMonitor::validate(const Event& e) const {
  if (e.txn < 0) return fail_msg("negative transaction id", e);
  if (e.op == OpKind::kRead || e.op == OpKind::kWrite) {
    if (e.obj < 0) return fail_msg("object id out of range", e);
  }
  const auto it = tix_of_.find(e.txn);
  const Txn* t = it == tix_of_.end() ? nullptr : &txns_[it->second];
  if (t != nullptr && t->finished)
    return fail_msg("event after C/A response", e);
  if (e.is_invocation()) {
    if (t != nullptr && t->has_pending)
      return fail_msg("invocation while operation pending", e);
    if (e.op == OpKind::kRead && t != nullptr &&
        std::find(t->objects_read.begin(), t->objects_read.end(), e.obj) !=
            t->objects_read.end())
      return fail_msg("repeated read of same object (model assumes read-once)",
                      e);
  } else {
    if (t == nullptr || !t->has_pending)
      return fail_msg("response without pending invocation", e);
    if (t->pending_inv.op != e.op)
      return fail_msg("response kind mismatch", e);
    if ((e.op == OpKind::kRead || e.op == OpKind::kWrite) &&
        t->pending_inv.obj != e.obj)
      return fail_msg("response object mismatch", e);
    if (e.op == OpKind::kTryAbort && !e.aborted)
      return fail_msg("tryA must respond with A", e);
  }
  return std::string();
}

std::size_t OnlineMonitor::txn_index(TxnId id) {
  const auto it = tix_of_.find(id);
  if (it != tix_of_.end()) return it->second;
  std::size_t k;
  if (!free_txns_.empty()) {
    k = free_txns_.back();
    free_txns_.pop_back();
    txns_[k].reset();
  } else {
    k = txns_.size();
    txns_.emplace_back();
  }
  txns_[k].id = id;
  txns_[k].node = graph_.add_node();
  txns_[k].start_index = total_events_;  // the current event's index
  max_txn_id_seen_ = std::max(max_txn_id_seen_, id);
  tix_of_.emplace(id, k);
  if (opts_.gc) open_txns_.emplace_back(k, total_events_);
  return k;
}

// ---------------------------------------------------------------------------
// Helpers

void OnlineMonitor::latch_at(std::size_t index, std::string reason,
                             bool by_fast_path) {
  DUO_ASSERT(index < total_events_);
  verdict_ = Verdict::kNo;
  stats_.latched_by_fast_path = by_fast_path;
  first_violation_ = index;
  explanation_ = std::move(reason);
}

std::optional<Value> OnlineMonitor::final_write_value(std::size_t tix,
                                                      ObjId x) const {
  for (const auto& [obj, v] : txns_[tix].final_writes)
    if (obj == x) return v;
  return std::nullopt;
}

std::string OnlineMonitor::read_desc(const Read& r) const {
  std::ostringstream out;
  out << "read" << txns_[r.reader].id << "(X" << r.obj << ")=" << r.value;
  return out.str();
}

// ---------------------------------------------------------------------------
// Edge bookkeeping (the apply phase and GC). Every edge the maintained
// Tier-A constraint graph wants goes through link/unlink, so the graph's
// edge multiset equals the desired multiset exactly — except for edges
// parked in pending_ because inserting them would have closed a cycle.
// pending_ non-empty suspends the fast path (the graph then
// under-approximates the constraints); removals re-try the parked edges,
// and the fast path resumes when the set drains.

void OnlineMonitor::link(std::size_t a, std::size_t b) {
  DUO_ASSERT(a != b);
  if (graph_.add_edge(a, b)) {
    ++stats_.edges_added;
    if (pending_.empty()) return;  // the hot case: no parked edges at all
    const auto it = pending_.find({a, b});
    if (it != pending_.end()) {
      // Identical parked references ride along: once one (a, b) edge is in,
      // further references only bump its refcount.
      for (std::uint32_t i = 0; i < it->second; ++i) {
        const bool ok = graph_.add_edge(a, b);
        DUO_ASSERT(ok);
        ++stats_.edges_added;
      }
      pending_.erase(it);
    }
    return;
  }
  ++pending_[{a, b}];
  ++stats_.deferred_edges;
}

void OnlineMonitor::unlink(std::size_t a, std::size_t b) {
  if (!pending_.empty()) {
    const auto it = pending_.find({a, b});
    if (it != pending_.end()) {
      if (--it->second == 0) pending_.erase(it);
      return;
    }
  }
  graph_.remove_edge(a, b);
  ++stats_.edges_removed;
  removed_this_event_ = true;
}

void OnlineMonitor::retry_pending() {
  bool progress = true;
  while (progress && !pending_.empty()) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      const auto [a, b] = it->first;
      if (!graph_.add_edge(a, b)) {
        ++it;
        continue;
      }
      ++stats_.edges_added;
      for (std::uint32_t i = 1; i < it->second; ++i) {
        const bool ok = graph_.add_edge(a, b);
        DUO_ASSERT(ok);
        ++stats_.edges_added;
      }
      it = pending_.erase(it);
      progress = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Prescan (phase 1). Runs the serial monitor's transaction-global logic —
// validation, status bookkeeping, node allocation, reads-from candidate
// resolution decisions, the event-local latches — and compiles the batch
// into the slot list. Per-object work (chain maintenance, anti-dependency
// derivation) is not executed here; it is emitted as shard tasks carrying
// everything the shard needs as values (install keys, node ids), because
// the coordinator's transaction table keeps mutating through the batch
// while a task must see the state as of its point in the serial order.
//
// Graph node allocation happens here, not in apply: add_node neither reads
// nor perturbs edge state (new nodes enter isolated at the top of the
// order, and the priority counter advances only on allocation), so
// allocating a batch's nodes before applying the batch's edges yields the
// same node ids and the same Pearce-Kelly behavior as the strict
// interleaving — which is what keeps verdicts independent of batch size.

OnlineMonitor::Slot& OnlineMonitor::emit(Slot::Kind kind) {
  if (slots_used_ == slots_.size()) slots_.emplace_back();
  Slot& s = slots_[slots_used_++];
  s.kind = kind;
  s.ops.clear();
  s.splices = 0;
  s.frozen = false;
  s.latch = false;
  return s;
}

OnlineMonitor::Slot& OnlineMonitor::emit_task(Slot::Kind kind, ObjId x) {
  Slot& s = emit(kind);
  s.obj = x;
  ++shard_task_count_;
  return s;
}

void OnlineMonitor::emit_direct(Slot::Kind kind, std::size_t a,
                                std::size_t b) {
  Slot& s = emit(kind);
  s.a = a;
  s.b = b;
}

void OnlineMonitor::pre_latch(std::string reason) {
  if (pre_latched_) return;
  pre_latched_ = true;
  pre_latch_reason_ = std::move(reason);
}

void OnlineMonitor::pre_enter_chains(std::size_t tix) {
  Txn& t = txns_[tix];
  DUO_ASSERT(!t.in_chain);
  t.in_chain = true;
  for (const auto& [x, v] : t.final_writes) {
    (void)v;
    Slot& s = emit_task(Slot::Kind::kChainInsert, x);
    s.tix = tix;
    s.node = t.node;
    s.key = t.install_key;
  }
}

void OnlineMonitor::pre_leave_chains(std::size_t tix) {
  Txn& t = txns_[tix];
  DUO_ASSERT(t.in_chain);
  for (const auto& [x, v] : t.final_writes) {
    (void)v;
    Slot& s = emit_task(Slot::Kind::kChainRemove, x);
    s.tix = tix;
    s.node = t.node;
    s.key = t.install_key;
  }
  t.in_chain = false;
}

void OnlineMonitor::pre_resolve_read(std::size_t rid, std::size_t w) {
  {
    Read& r = reads_[rid];
    DUO_ASSERT(r.writer == kNone);
    r.writer = w;
  }
  Txn& wt = txns_[w];
  if (!wt.in_chain) {
    DUO_ASSERT(wt.tryc_inv.has_value());
    wt.install_key = *wt.tryc_inv;  // commit-pending: install at tryC inv
    pre_enter_chains(w);
  }
  wt.rf_reads.push_back(rid);
  const Read& r = reads_[rid];
  emit_direct(Slot::Kind::kDirectLink, wt.node, txns_[r.reader].node);
  Slot& s = emit_task(Slot::Kind::kResolve, r.obj);
  s.rid = rid;
  s.reader = r.reader;
  s.reader_node = txns_[r.reader].node;
  s.writer = w;
  s.key = wt.install_key;
}

void OnlineMonitor::pre_unresolve_read(std::size_t rid) {
  Read& r = reads_[rid];
  DUO_ASSERT(r.writer != kNone);
  const std::size_t w = r.writer;
  Txn& wt = txns_[w];
  emit_direct(Slot::Kind::kDirectUnlink, wt.node, txns_[r.reader].node);
  {
    Slot& s = emit_task(Slot::Kind::kUnresolve, r.obj);
    s.rid = rid;
    s.reader = r.reader;
    s.reader_node = txns_[r.reader].node;
    s.writer = w;
  }
  auto& rf = wt.rf_reads;
  rf.erase(std::find(rf.begin(), rf.end(), rid));
  r.writer = kNone;
  if (rf.empty() && wt.status != TxnStatus::kCommitted && wt.in_chain)
    pre_leave_chains(w);
}

void OnlineMonitor::pre_reject_or_resolve(std::size_t rid) {
  Read& r = reads_[rid];
  DUO_ASSERT(!r.is_initial);
  if (r.cands.empty()) {
    pre_latch(read_desc(r) +
              ": no transaction that can commit writes this value");
    return;
  }
  if (r.local_count == 0) {
    pre_latch(read_desc(r) +
              ": no candidate writer invoked tryC before the read's response "
              "(deferred-update violation)");
    return;
  }
  if (r.cands.size() == 1 && r.writer == kNone)
    pre_resolve_read(rid, r.cands.front());
}

void OnlineMonitor::pre_new_transaction(std::size_t tix) {
  // Real-time order, sparsified: a ≺RT b iff a t-completes before b's first
  // event. Each completion appends a fresh chain node c_i with edges
  // completer -> c_i and c_{i-1} -> c_i; a new transaction gets one edge
  // from the latest chain node, inheriting every earlier completion
  // transitively. Edges into a fresh node can never close a cycle.
  if (!completion_log_.empty())
    emit_direct(Slot::Kind::kDirectLink, completion_log_.back().node,
                txns_[tix].node);
}

void OnlineMonitor::pre_t_complete(std::size_t tix) {
  const std::size_t c = graph_.add_node();
  if (!completion_log_.empty())
    emit_direct(Slot::Kind::kDirectLink, completion_log_.back().node, c);
  emit_direct(Slot::Kind::kDirectLink, txns_[tix].node, c);
  txns_[tix].completion_seq = completion_base_ + completion_log_.size();
  completion_log_.push_back(CompletionEntry{c, false});
}

void OnlineMonitor::pre_read_response(std::size_t tix, ObjId x, Value v,
                                      std::size_t resp_index) {
  if (const auto own = final_write_value(tix, x)) {
    // Internal read: it must return the transaction's own latest prior
    // write in *every* equivalent t-sequential history, so a mismatch
    // admits no serialization at all.
    if (*own != v) {
      std::ostringstream msg;
      msg << "internal read" << txns_[tix].id << "(X" << x << ")=" << v
          << " must return own write " << *own;
      pre_latch(msg.str());
    }
    return;
  }

  std::size_t rid;
  if (!free_reads_.empty()) {
    rid = free_reads_.back();
    free_reads_.pop_back();
    reads_[rid].reset();
  } else {
    rid = reads_.size();
    reads_.push_back(Read{});
  }
  Read& r = reads_[rid];
  txns_[tix].my_reads.push_back(rid);
  r.reader = tix;
  r.obj = x;
  r.value = v;
  r.resp_index = resp_index;
  r.is_initial = v == 0;  // initial values are 0 throughout

  if (r.is_initial) {
    // Initial-value read: the reader precedes every (current and future)
    // chain writer of the object. A can-commit writer of the initial value
    // would put the prefix outside the unique-writes class; that case is
    // carried by nonuw_ and decided by the fallback checks.
    Slot& s = emit_task(Slot::Kind::kInitialRead, x);
    s.rid = rid;
    s.reader = tix;
    s.reader_node = txns_[tix].node;
    return;
  }

  reads_of_[{x, v}].push_back(rid);
  if (const auto it = writers_of_.find({x, v}); it != writers_of_.end()) {
    for (const std::size_t w : it->second) {
      if (w == tix) continue;
      r.cands.push_back(w);
      DUO_ASSERT(txns_[w].tryc_inv.has_value());
      if (*txns_[w].tryc_inv < resp_index) ++r.local_count;
    }
  }
  pre_reject_or_resolve(rid);
}

void OnlineMonitor::pre_tryc_invoked(std::size_t tix) {
  // The transaction becomes a can-commit candidate writer for every value
  // in its (now frozen) write set. Its tryC invocation is the latest
  // event, so it never joins a read's *local* candidate set — but a second
  // candidate makes the read ambiguous (and the prefix non-unique-writes),
  // which unresolves the read and suspends the fast path via nonuw_.
  for (const auto& [x, v] : txns_[tix].final_writes) {
    if (v == 0) ++nonuw_;
    auto& ws = writers_of_[{x, v}];
    ws.push_back(tix);
    if (ws.size() == 2) ++nonuw_;
    const auto it = reads_of_.find({x, v});
    if (it == reads_of_.end()) continue;
    for (const std::size_t rid : it->second) {
      Read& r = reads_[rid];
      if (r.reader == tix) continue;
      r.cands.push_back(tix);
      if (r.writer != kNone && r.cands.size() >= 2) pre_unresolve_read(rid);
    }
  }
}

void OnlineMonitor::pre_committed(std::size_t tix, std::size_t resp_index) {
  // The install key becomes the tryC response index — the maximum so far —
  // so a member already in the chains (it was read from while pending)
  // moves to the end, and a fresh member appends. Both shapes are the
  // no-op/append fast case for recorded runs, where the canonical order is
  // the order the STM actually installed.
  Txn& t = txns_[tix];
  if (t.in_chain) pre_leave_chains(tix);
  t.install_key = resp_index;
  pre_enter_chains(tix);
}

void OnlineMonitor::pre_aborted(std::size_t tix, bool was_commit_pending) {
  if (!was_commit_pending) return;
  for (const auto& [x, v] : txns_[tix].final_writes) {
    if (v == 0) --nonuw_;
    auto& ws = writers_of_[{x, v}];
    ws.erase(std::find(ws.begin(), ws.end(), tix));
    if (ws.size() == 1) --nonuw_;
    const auto it = reads_of_.find({x, v});
    if (it == reads_of_.end()) continue;
    for (const std::size_t rid : it->second) {
      Read& r = reads_[rid];
      if (r.reader == tix) continue;
      if (r.writer == tix) pre_unresolve_read(rid);
      r.cands.erase(std::find(r.cands.begin(), r.cands.end(), tix));
      DUO_ASSERT(txns_[tix].tryc_inv.has_value());
      if (*txns_[tix].tryc_inv < r.resp_index) --r.local_count;
      pre_reject_or_resolve(rid);
      if (pre_latched_) return;
    }
  }
  // Every read resolved to this writer just lost its only candidate (and
  // latched); without a latch the writer has no readers left and cannot be
  // in any chain.
  DUO_ASSERT(!txns_[tix].in_chain);
}

std::size_t OnlineMonitor::prescan(const Event* events, std::size_t n,
                                   std::string& error) {
  // Latched prefixes stay latched (prefix closure); only the validation
  // state keeps advancing so malformed suffixes are still diagnosed.
  const bool frozen = latched();
  std::size_t prescanned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = events[i];
    if (std::string err = validate(e); !err.empty()) {
      error = std::move(err);
      break;
    }
    if ((e.op == OpKind::kRead || e.op == OpKind::kWrite) &&
        e.obj >= num_objects_)
      num_objects_ = e.obj + 1;

    const bool is_new_txn = !tix_of_.contains(e.txn);
    const std::size_t k = txn_index(e.txn);  // reads total_events_
    const std::size_t index = total_events_;
    ++total_events_;

    if (!frozen && is_new_txn) pre_new_transaction(k);

    Txn& t = txns_[k];
    if (e.is_invocation()) {
      t.has_pending = true;
      t.pending_inv = e;
      if (e.op == OpKind::kRead) t.objects_read.push_back(e.obj);
      if (e.op == OpKind::kTryCommit) {
        t.tryc_inv = index;
        t.status = TxnStatus::kCommitPending;
        if (!frozen) pre_tryc_invoked(k);
      }
    } else {
      const Event inv = t.pending_inv;
      t.has_pending = false;
      if (e.aborted || e.op == OpKind::kTryCommit) {
        t.finished = true;
        t.complete_index = index;
      }
      if (e.aborted) {
        const bool was_commit_pending = t.status == TxnStatus::kCommitPending;
        t.status = TxnStatus::kAborted;
        if (!frozen) {
          pre_aborted(k, was_commit_pending);
          if (!pre_latched_) pre_t_complete(k);
        }
      } else {
        switch (e.op) {
          case OpKind::kRead:
            if (!frozen) pre_read_response(k, e.obj, e.value, index);
            break;
          case OpKind::kWrite: {
            // Record the final write value. The transaction is necessarily
            // still running here, so its writes are invisible to every
            // constraint until its tryC invocation freezes the write set.
            bool found = false;
            for (auto& [obj, v] : t.final_writes)
              if (obj == e.obj) {
                v = inv.value;
                found = true;
              }
            if (!found) t.final_writes.emplace_back(e.obj, inv.value);
            break;
          }
          case OpKind::kTryCommit:
            t.status = TxnStatus::kCommitted;
            if (!frozen) {
              pre_committed(k, index);
              pre_t_complete(k);
            }
            break;
          case OpKind::kTryAbort:
            DUO_UNREACHABLE("tryA response is always aborted (validated)");
        }
      }
    }

    Slot& b = emit(Slot::Kind::kBoundary);
    b.index = index;
    b.event_pos = i;
    b.nonuw = nonuw_;
    b.num_objects = num_objects_;
    b.max_txn_id = max_txn_id_seen_;
    b.frozen = frozen;
    b.latch = pre_latched_;
    if (pre_latched_) b.latch_reason = std::move(pre_latch_reason_);
    prescanned = i + 1;
    // Stop compiling after a latching event: the latch is terminal, so the
    // tail of the batch is covered by prefix closure and never consumed.
    if (pre_latched_) break;
  }
  return prescanned;
}

// ---------------------------------------------------------------------------
// Derive (phase 2). Each shard walks the slot list in order and executes
// the per-object tasks it owns against its chains, initial-read lists and
// per-object resolved-read lists, recording each task's graph effects as
// ops. Everything a task reads is either frozen for the whole phase (the
// transaction table — prescan is done, GC only runs between batches), a
// task payload copied at emission time (install keys), or shard-owned
// sequential state (chains, rf lists, Read::antidep) — so shards never
// synchronize, and the op list each task produces is a pure function of
// the slot list, independent of shard count.

std::size_t OnlineMonitor::chain_lower_bound(
    const std::vector<ChainEntry>& chain, std::uint64_t key) {
  const auto it = std::lower_bound(
      chain.begin(), chain.end(), key,
      [](const ChainEntry& m, std::uint64_t k) { return m.key < k; });
  return static_cast<std::size_t>(it - chain.begin());
}

std::size_t OnlineMonitor::chain_find(const std::vector<ChainEntry>& chain,
                                      std::uint64_t key, std::size_t tix) {
  const std::size_t pos = chain_lower_bound(chain, key);
  DUO_ASSERT(pos < chain.size() && chain[pos].tix == tix);
  return pos;
}

void OnlineMonitor::derive_shard(std::size_t shard) {
  ShardState& st = shards_[shard];
  for (std::size_t i = 0; i < slots_used_; ++i) {
    Slot& s = slots_[i];
    if (!is_shard_task(s.kind) || shard_of(s.obj) != shard) continue;
    derive_slot(st.objs[s.obj], s);
  }
}

void OnlineMonitor::derive_slot(ObjShard& os, Slot& s) {
  switch (s.kind) {
    case Slot::Kind::kChainInsert:
      derive_chain_insert(os, s);
      break;
    case Slot::Kind::kChainRemove:
      derive_chain_remove(os, s);
      break;
    case Slot::Kind::kResolve:
      derive_resolve(os, s);
      break;
    case Slot::Kind::kUnresolve:
      derive_unresolve(os, s);
      break;
    case Slot::Kind::kInitialRead:
      derive_initial_read(os, s);
      break;
    default:
      DUO_UNREACHABLE("not a shard task");
  }
}

// Anti-dependency retarget: point the read's edge at the first chain
// successor of its writer (position wpos), skipping the reader itself. The
// skip looks one past the immediate successor, which is why splices only
// retarget reads of writers within two positions of the splice point.

void OnlineMonitor::derive_retarget_read(const ObjShard& os, Slot& out,
                                         std::size_t rid, std::size_t wpos) {
  Read& r = reads_[rid];
  std::size_t succ = wpos + 1;
  if (succ < os.chain.size() && os.chain[succ].tix == r.reader) ++succ;
  const bool has_target = succ < os.chain.size();
  const std::size_t target = has_target ? os.chain[succ].tix : kNone;
  if (target == r.antidep) return;
  const std::size_t reader_node = txns_[r.reader].node;
  if (r.antidep != kNone) {
    out.ops.push_back(
        Op{Op::Kind::kUnlink, 0, reader_node, txns_[r.antidep].node});
    out.ops.push_back(Op{Op::Kind::kAntidepIn, -1, r.antidep, 0});
  }
  r.antidep = target;
  if (has_target) {
    out.ops.push_back(
        Op{Op::Kind::kLink, 0, reader_node, os.chain[succ].node});
    out.ops.push_back(Op{Op::Kind::kAntidepIn, +1, target, 0});
  }
}

void OnlineMonitor::derive_retarget_around(const ObjShard& os, Slot& out,
                                           std::size_t pos) {
  for (std::size_t back = 0; back < 3; ++back) {
    if (pos < back) break;
    const std::size_t q = pos - back;
    if (q >= os.chain.size()) continue;  // pos may point one past the end
    const auto it = os.rf.find(os.chain[q].tix);
    if (it == os.rf.end()) continue;
    // Snapshot semantics as in the serial monitor: retargeting edits other
    // reads' targets, never this list's membership.
    for (const std::size_t rid : it->second)
      derive_retarget_read(os, out, rid, q);
  }
}

void OnlineMonitor::derive_chain_insert(ObjShard& os, Slot& s) {
  auto& chain = os.chain;
  const std::size_t pos = chain_lower_bound(chain, s.key);
  const bool has_pred = pos > 0;
  const bool has_succ = pos < chain.size();
  const std::size_t pred_node = has_pred ? chain[pos - 1].node : 0;
  const std::size_t succ_node = has_succ ? chain[pos].node : 0;
  if (has_succ) ++s.splices;
  if (has_pred && has_succ)
    s.ops.push_back(Op{Op::Kind::kUnlink, 0, pred_node, succ_node});
  if (has_pred) s.ops.push_back(Op{Op::Kind::kLink, 0, pred_node, s.node});
  if (has_succ) s.ops.push_back(Op{Op::Kind::kLink, 0, s.node, succ_node});
  chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(pos),
               ChainEntry{s.key, s.tix, s.node});
  derive_retarget_around(os, s, pos);
  for (const InitialRead& ir : os.initial_reads)
    if (ir.reader != s.tix)
      s.ops.push_back(Op{Op::Kind::kLink, 0, ir.reader_node, s.node});
}

void OnlineMonitor::derive_chain_remove(ObjShard& os, Slot& s) {
  auto& chain = os.chain;
  const std::size_t pos = chain_find(chain, s.key, s.tix);
  ++s.splices;
  const bool has_pred = pos > 0;
  const bool has_succ = pos + 1 < chain.size();
  const std::size_t pred_node = has_pred ? chain[pos - 1].node : 0;
  const std::size_t succ_node = has_succ ? chain[pos + 1].node : 0;
  if (has_pred) s.ops.push_back(Op{Op::Kind::kUnlink, 0, pred_node, s.node});
  if (has_succ) s.ops.push_back(Op{Op::Kind::kUnlink, 0, s.node, succ_node});
  if (has_pred && has_succ)
    s.ops.push_back(Op{Op::Kind::kLink, 0, pred_node, succ_node});
  chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(pos));
  derive_retarget_around(os, s, pos);
  for (const InitialRead& ir : os.initial_reads)
    if (ir.reader != s.tix)
      s.ops.push_back(Op{Op::Kind::kUnlink, 0, ir.reader_node, s.node});
}

void OnlineMonitor::derive_resolve(ObjShard& os, Slot& s) {
  os.rf[s.writer].push_back(s.rid);
  const std::size_t wpos = chain_find(os.chain, s.key, s.writer);
  Read& r = reads_[s.rid];
  std::size_t succ = wpos + 1;
  if (succ < os.chain.size() && os.chain[succ].tix == s.reader) ++succ;
  if (succ < os.chain.size()) {
    r.antidep = os.chain[succ].tix;
    s.ops.push_back(
        Op{Op::Kind::kLink, 0, s.reader_node, os.chain[succ].node});
    s.ops.push_back(Op{Op::Kind::kAntidepIn, +1, os.chain[succ].tix, 0});
  }
}

void OnlineMonitor::derive_unresolve(ObjShard& os, Slot& s) {
  const auto it = os.rf.find(s.writer);
  DUO_ASSERT(it != os.rf.end());
  auto& lst = it->second;
  lst.erase(std::find(lst.begin(), lst.end(), s.rid));
  if (lst.empty()) os.rf.erase(it);
  Read& r = reads_[s.rid];
  if (r.antidep != kNone) {
    s.ops.push_back(
        Op{Op::Kind::kUnlink, 0, s.reader_node, txns_[r.antidep].node});
    s.ops.push_back(Op{Op::Kind::kAntidepIn, -1, r.antidep, 0});
    r.antidep = kNone;
  }
}

void OnlineMonitor::derive_initial_read(ObjShard& os, Slot& s) {
  os.initial_reads.push_back(InitialRead{s.rid, s.reader, s.reader_node});
  for (const ChainEntry& m : os.chain)
    if (m.tix != s.reader)
      s.ops.push_back(Op{Op::Kind::kLink, 0, s.reader_node, m.node});
}

// ---------------------------------------------------------------------------
// Apply (phase 3). Replays the slot list in order through the single
// Pearce-Kelly graph: shard-task ops and direct edges reproduce the exact
// link/unlink sequence the serial monitor would have executed event by
// event, and each boundary runs the per-event verdict step against its
// prescan snapshots. The one divergence from strict per-event feeding is
// intentional: a fallback check that latches mid-batch stops consumption
// at that event (later events' prescan bookkeeping is already committed,
// which is invisible — the latch is terminal and callers stop feeding).

std::size_t OnlineMonitor::apply_slots(const Event* events) {
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < slots_used_; ++i) {
    Slot& s = slots_[i];
    switch (s.kind) {
      case Slot::Kind::kDirectLink:
        link(s.a, s.b);
        break;
      case Slot::Kind::kDirectUnlink:
        unlink(s.a, s.b);
        break;
      case Slot::Kind::kBoundary: {
        events_.push_back(events[s.event_pos]);
        ++stats_.events;
        consumed = s.event_pos + 1;
        if (s.frozen) {
          removed_this_event_ = false;
          break;
        }
        if (s.latch) {
          // Prescan truncated the batch here, so this is the last slot.
          latch_at(s.index, std::move(s.latch_reason), /*by_fast_path=*/true);
          removed_this_event_ = false;
          break;
        }
        if (removed_this_event_ && !pending_.empty()) retry_pending();
        removed_this_event_ = false;
        if (pending_.empty() && s.nonuw == 0) {
          // The maintained graph is exactly the batch engine's Tier-A
          // constraint set for this prefix, and it is acyclic (every
          // desired edge is in): any topological order of it is a
          // du-opaque serialization.
          verdict_ = Verdict::kYes;
          ++stats_.fast_yes;
        } else {
          run_full_check(s.num_objects, s.max_txn_id, s.index);
          if (latched()) return consumed;  // discard the rest of the batch
        }
        break;
      }
      default: {
        for (const Op& op : s.ops) {
          switch (op.kind) {
            case Op::Kind::kLink:
              link(op.a, op.b);
              break;
            case Op::Kind::kUnlink:
              unlink(op.a, op.b);
              break;
            case Op::Kind::kAntidepIn:
              if (op.delta > 0)
                ++txns_[op.a].antidep_in;
              else
                --txns_[op.a].antidep_in;
              break;
          }
        }
        stats_.chain_splices += s.splices;
        break;
      }
    }
  }
  return consumed;
}

// ---------------------------------------------------------------------------
// Settled-prefix garbage collection. A retired transaction's graph node is
// dropped wholesale, so retirement is sound exactly when nothing retained or
// future can name the transaction again — see the settlement rule in
// monitor.hpp and the full argument in docs/service.md. Passes run only
// between batches while the fast path is live (no parked edges,
// unique-writes class, not latched), so every retained non-initial read is
// resolved, the graph is exactly the Tier-A constraint set, and the
// coordinator owns all shard state.

std::size_t OnlineMonitor::live_horizon() {
  // Entries are lazily pruned: finished entries, and entries whose slot was
  // retired (start_index poisoned to kNone) or reused (a later transaction
  // has a strictly larger start index, so the recorded start mismatches).
  while (!open_txns_.empty()) {
    const auto& [tix, start] = open_txns_.front();
    if (txns_[tix].start_index == start && !txns_[tix].finished)
      return start;
    open_txns_.pop_front();
  }
  return total_events_;
}

bool OnlineMonitor::txn_settled(std::size_t tix, std::size_t horizon) const {
  const Txn& t = txns_[tix];
  // Behind the completion frontier: t-completed before every live and
  // future transaction starts, so no future real-time edge involves it.
  if (!t.finished || t.complete_index == kNone || t.complete_index >= horizon)
    return false;
  // No retained read anti-depends on it. (Reads still resolved TO it do
  // not block: they are sealed at retirement.)
  if (t.antidep_in != 0) return false;
  if (t.status == TxnStatus::kCommitted) {
    for (const auto& [x, v] : t.final_writes) {
      (void)v;
      const auto oit = shards_[shard_of(x)].objs.find(x);
      DUO_ASSERT(oit != shards_[shard_of(x)].objs.end());
      const ObjShard& os = oit->second;
      // Another transaction's initial-value read keeps an edge to every
      // chain member, including this one; it drains when the reader
      // retires. The transaction's own initial read retires with it.
      for (const InitialRead& ir : os.initial_reads)
        if (ir.reader != tix) return false;
      // Superseded with a two-successor guard installed before the
      // horizon. Any future chain insertion keys at or after the horizon,
      // so it lands strictly after both guards, and the retarget window
      // (two positions back from a splice) can never reach this member. An
      // install key below the horizon also implies the guard is committed:
      // a commit-pending member is unfinished, so its tryC invocation —
      // its install key — is at or after its own start, which is at or
      // after the horizon.
      const std::size_t pos = chain_find(os.chain, t.install_key, tix);
      if (pos + 2 >= os.chain.size()) return false;
      if (os.chain[pos + 1].key >= horizon) return false;
      if (os.chain[pos + 2].key >= horizon) return false;
    }
  }
  return true;
}

void OnlineMonitor::retire_read(std::size_t rid) {
  Read& r = reads_[rid];
  if (r.is_initial) {
    auto& ir = obj_shard(r.obj).initial_reads;
    const auto it =
        std::find_if(ir.begin(), ir.end(),
                     [rid](const InitialRead& e) { return e.rid == rid; });
    DUO_ASSERT(it != ir.end());
    ir.erase(it);
    // The reader-before-every-chain-member edges die with the reader's
    // graph node.
  } else if (r.writer == kSealedWriter) {
    // Sealed at the writer's retirement: already out of reads_of_ and the
    // shard's rf lists. Only the sealed-version reference and the
    // anti-dependency pin on the guard successor remain to release.
    const auto svit = sealed_versions_.find({r.obj, r.value});
    DUO_ASSERT(svit != sealed_versions_.end() && svit->second.refs > 0);
    if (--svit->second.refs == 0) sealed_versions_.erase(svit);
    if (r.antidep != kNone) --txns_[r.antidep].antidep_in;
  } else {
    const auto rit = reads_of_.find({r.obj, r.value});
    DUO_ASSERT(rit != reads_of_.end());
    auto& lst = rit->second;
    lst.erase(std::find(lst.begin(), lst.end(), rid));
    if (lst.empty()) reads_of_.erase(rit);
    if (r.writer != kNone) {
      // A live resolved writer is committed: a commit-pending writer is
      // unfinished, so its tryC invocation would postdate this read's
      // response and it could not have served the read.
      Txn& wt = txns_[r.writer];
      DUO_ASSERT(wt.status == TxnStatus::kCommitted);
      auto& rf = wt.rf_reads;
      rf.erase(std::find(rf.begin(), rf.end(), rid));
      // Mirror in the shard's per-object projection, which otherwise only
      // derive tasks maintain.
      ObjShard& os = obj_shard(r.obj);
      const auto oit = os.rf.find(r.writer);
      DUO_ASSERT(oit != os.rf.end());
      auto& olst = oit->second;
      olst.erase(std::find(olst.begin(), olst.end(), rid));
      if (olst.empty()) os.rf.erase(oit);
    }
    if (r.antidep != kNone) --txns_[r.antidep].antidep_in;
  }
  reads_[rid].reset();
  free_reads_.push_back(rid);
}

void OnlineMonitor::retire_txn(std::size_t tix) {
  Txn& t = txns_[tix];
  DUO_ASSERT(t.antidep_in == 0);
  // Seal any reads still resolved to this writer (read-modify-write chains
  // keep each version referenced by the next transaction's read, so waiting
  // for rf_reads to drain would block retirement forever). The read keeps
  // its anti-dependency edge — whose target, the chain guard successor,
  // stays retained while the read lives, pinning the true chain shape for
  // fallback reconstruction — and the version joins sealed_versions_ so
  // history() can re-materialize its writer.
  for (const std::size_t rid : t.rf_reads) {
    Read& r = reads_[rid];
    DUO_ASSERT(r.writer == tix);
    r.writer = kSealedWriter;
    const auto rit = reads_of_.find({r.obj, r.value});
    DUO_ASSERT(rit != reads_of_.end());
    auto& lst = rit->second;
    lst.erase(std::find(lst.begin(), lst.end(), rid));
    if (lst.empty()) reads_of_.erase(rit);
    auto& sv = sealed_versions_[{r.obj, r.value}];
    sv.rank = t.install_key;
    ++sv.refs;
    ++stats_.sealed_reads;
  }
  for (const std::size_t rid : t.my_reads) retire_read(rid);
  if (t.status == TxnStatus::kCommitted) {
    DUO_ASSERT(t.in_chain);
    for (const auto& [x, v] : t.final_writes) {
      const auto wit = writers_of_.find({x, v});
      DUO_ASSERT(wit != writers_of_.end());
      auto& ws = wit->second;
      ws.erase(std::find(ws.begin(), ws.end(), tix));
      if (ws.empty()) writers_of_.erase(wit);
      ObjShard& os = obj_shard(x);
      // Drop the shard's resolved-read projection for this writer (the
      // sealed reads above are exactly its remaining entries). Keyed by
      // tix, so a stale entry would alias a later reuse of the slot.
      os.rf.erase(tix);
      // Splice out of the chain without the usual unlink/retarget dance:
      // no retained read targets this member, and its own edges die with
      // the node below. Only the pred -> succ consecutive-writer bridge is
      // added; the path pred -> tix -> succ exists right now, so the
      // insertion cannot close a cycle.
      const std::size_t pos = chain_find(os.chain, t.install_key, tix);
      DUO_ASSERT(pos + 1 < os.chain.size());  // the settlement guard
      if (pos > 0) link(os.chain[pos - 1].node, os.chain[pos + 1].node);
      os.chain.erase(os.chain.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  } else {
    DUO_ASSERT(!t.in_chain);
  }
  // Completion log: pop settled front nodes. A node pops once its completer
  // is retired (earlier nodes popped first, so its only remaining edges
  // point forward, to retained nodes that no longer need the constraint —
  // every completer it summarizes is gone). The back node never pops: it is
  // the one new transactions and completions link from.
  if (t.completion_seq != kNone) {
    completion_log_[t.completion_seq - completion_base_].completer_retired =
        true;
    while (completion_log_.size() > 1 &&
           completion_log_.front().completer_retired) {
      stats_.edges_removed += graph_.retire_node(completion_log_.front().node);
      completion_log_.pop_front();
      ++completion_base_;
    }
  }
  stats_.edges_removed += graph_.retire_node(t.node);
  tix_of_.erase(t.id);
  ++stats_.retired_txns;
  t.reset();
  t.start_index = kNone;  // poison stale open_txns_ entries
  free_txns_.push_back(tix);
}

void OnlineMonitor::run_gc() {
  ++stats_.gc_passes;
  const std::size_t horizon = live_horizon();
  // Retiring one transaction only removes references, so it cannot
  // invalidate another's settlement (the chain guard is re-evaluated
  // against the current chain, and the two youngest members of a chain
  // never settle, so every settled member keeps a successor to bridge to).
  // It CAN unblock one — a retired reader releases its anti-dependency pin
  // on the next writer, or drops the initial-value read that pinned a
  // chain — so the sweep is a worklist: every live transaction is checked
  // once, and each retirement re-enqueues exactly the transactions it may
  // have unlocked. Read-modify-write chains drain fully in one pass this
  // way, without the quadratic rescan-all-per-generation fixpoint.
  //
  // Seeded by slot index (a slot is live iff its start_index is not the
  // retirement poison), which keeps the sweep order — and therefore every
  // stat — deterministic now that tix_of_ is an unordered map.
  std::vector<std::size_t> work;
  work.reserve(tix_of_.size());
  for (std::size_t tix = 0; tix < txns_.size(); ++tix)
    if (txns_[tix].start_index != kNone) work.push_back(tix);
  bool retired_any = false;
  while (!work.empty()) {
    const std::size_t tix = work.back();
    work.pop_back();
    // Slots retired earlier in this pass fail txn_settled (a cleared Txn is
    // unfinished), and no slot is reused mid-pass (no events are fed), so
    // stale worklist entries are harmlessly skipped.
    if (!txn_settled(tix, horizon)) continue;
    const Txn& t = txns_[tix];
    for (const std::size_t rid : t.my_reads) {
      const Read& r = reads_[rid];
      if (r.antidep != kNone) work.push_back(r.antidep);
      // Dropping an initial-value read may satisfy the no-other-initial-
      // reads condition for any writer in the object's chain.
      if (r.is_initial)
        for (const ChainEntry& m : obj_shard(r.obj).chain)
          work.push_back(m.tix);
    }
    retire_txn(tix);
    retired_any = true;
  }
  if (retired_any) {
    // Compact the retained event log. This runs before any further event is
    // fed, so a retired id cannot yet have been reused and membership in
    // tix_of_ identifies retained events.
    const std::size_t before = events_.size();
    std::erase_if(events_,
                  [this](const Event& ev) { return !tix_of_.contains(ev.txn); });
    stats_.retired_events += before - events_.size();
  }
  gc_trigger_ =
      total_events_ + std::max<std::size_t>(opts_.gc_retain_events / 2, 1);
}

// ---------------------------------------------------------------------------
// The fallback tier

void OnlineMonitor::run_full_check(ObjId num_objects, TxnId synth_base,
                                   std::size_t index) {
  ++stats_.full_checks;
  const History h = history_at(num_objects, synth_base);
  checker::CheckOptions copts;
  copts.node_budget = opts_.node_budget;
  copts.engine = opts_.engine;
  const auto result = checker::check_du_opacity(h, copts);
  if (result.engine.engine == "graph") ++stats_.graph_checks;
  if (result.yes()) {
    verdict_ = Verdict::kYes;
  } else if (result.no()) {
    latch_at(index,
             result.explanation.empty()
                 ? checker::criterion_row(checker::Criterion::kDuOpacity)
                       .no_explanation
                 : result.explanation,
             /*by_fast_path=*/false);
  } else {
    verdict_ = Verdict::kUnknown;
  }
}

// ---------------------------------------------------------------------------
// The event loop

OnlineMonitor::FeedOutcome OnlineMonitor::feed_batch(const Event* events,
                                                     std::size_t n) {
  FeedOutcome out;
  if (n == 0) return out;
  slots_used_ = 0;
  shard_task_count_ = 0;
  pre_latched_ = false;

  const std::size_t base_total = total_events_;
  const std::size_t prescanned = prescan(events, n, out.error);

  if (shard_task_count_ > 0) {
    if (num_shards_ > 1 && shard_task_count_ >= kParallelDeriveThreshold) {
      if (!gang_) gang_ = std::make_unique<util::WorkerGang>(num_shards_);
      gang_->run([this](std::size_t s) { derive_shard(s); });
    } else {
      // Inline: one in-order pass preserves each shard's task order.
      for (std::size_t i = 0; i < slots_used_; ++i) {
        Slot& s = slots_[i];
        if (is_shard_task(s.kind)) derive_slot(obj_shard(s.obj), s);
      }
    }
  }

  out.consumed = apply_slots(events);
  if (out.consumed < prescanned) {
    // A fallback check latched mid-batch: the tail events' slots were
    // discarded and their events never count as fed. (Their prescan
    // bookkeeping stands — harmless, since the latch is terminal.)
    total_events_ = base_total + out.consumed;
  }

  if (out.consumed > 0 && opts_.gc && !latched() && pending_.empty() &&
      nonuw_ == 0 && total_events_ >= gc_trigger_)
    run_gc();
  removed_this_event_ = false;
  return out;
}

util::Result<Verdict> OnlineMonitor::feed(const Event& e) {
  using R = util::Result<Verdict>;
  FeedOutcome out = feed_batch(&e, 1);
  if (!out.error.empty()) return R::error(std::move(out.error));
  return R::ok(verdict_);
}

History OnlineMonitor::history_at(ObjId num_objects, TxnId synth_base) const {
  if (sealed_versions_.empty())
    return std::move(History::make(events_, num_objects)).value_or_die();
  // Retained reads may still be resolved to versions whose writers were
  // retired (sealed). Re-materialize each such version as one synthetic
  // committed writer prepended before the retained suffix, in install-rank
  // order: ranks follow true completion order, so the preamble's real-time
  // relation among these writers — and their precedence over everything
  // retained — matches the original history's.
  std::vector<std::tuple<std::uint64_t, ObjId, Value>> versions;
  versions.reserve(sealed_versions_.size());
  for (const auto& [key, sv] : sealed_versions_)
    versions.emplace_back(sv.rank, key.first, key.second);
  std::sort(versions.begin(), versions.end());
  std::vector<Event> with_preamble;
  with_preamble.reserve(4 * versions.size() + events_.size());
  TxnId synth = synth_base;
  for (const auto& [rank, x, v] : versions) {
    (void)rank;
    ++synth;
    with_preamble.push_back(Event::inv_write(synth, x, v));
    with_preamble.push_back(Event::resp_write_ok(synth, x));
    with_preamble.push_back(Event::inv_tryc(synth));
    with_preamble.push_back(Event::resp_commit(synth));
  }
  with_preamble.insert(with_preamble.end(), events_.begin(), events_.end());
  return std::move(History::make(with_preamble, num_objects)).value_or_die();
}

History OnlineMonitor::history() const {
  return history_at(num_objects_, max_txn_id_seen_);
}

}  // namespace duo::monitor

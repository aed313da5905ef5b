#include "history/history.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace duo::history {

namespace {

std::string describe(const Event& e, std::size_t index) {
  std::ostringstream out;
  out << "event " << index << " (" << to_string(e) << ")";
  return out.str();
}

}  // namespace

std::string to_string(OpKind k) {
  switch (k) {
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kTryCommit: return "tryC";
    case OpKind::kTryAbort: return "tryA";
  }
  DUO_UNREACHABLE("bad OpKind");
}

std::string to_string(EventKind k) {
  return k == EventKind::kInvocation ? "inv" : "resp";
}

std::string to_string(TxnStatus s) {
  switch (s) {
    case TxnStatus::kCommitted: return "committed";
    case TxnStatus::kAborted: return "aborted";
    case TxnStatus::kCommitPending: return "commit-pending";
    case TxnStatus::kRunning: return "running";
  }
  DUO_UNREACHABLE("bad TxnStatus");
}

std::string to_string(const Event& e) {
  std::ostringstream out;
  out << (e.is_invocation() ? "inv " : "resp ");
  switch (e.op) {
    case OpKind::kRead:
      out << "R" << e.txn << "(X" << e.obj << ")";
      if (e.is_response()) {
        if (e.aborted)
          out << "->A";
        else
          out << "->" << e.value;
      }
      break;
    case OpKind::kWrite:
      out << "W" << e.txn << "(X" << e.obj;
      if (e.is_invocation()) out << "," << e.value;
      out << ")";
      if (e.is_response()) out << (e.aborted ? "->A" : "->ok");
      break;
    case OpKind::kTryCommit:
      out << "tryC" << e.txn;
      if (e.is_response()) out << (e.aborted ? "->A" : "->C");
      break;
    case OpKind::kTryAbort:
      out << "tryA" << e.txn;
      if (e.is_response()) out << "->A";
      break;
  }
  return out.str();
}

util::Result<History> History::make(std::vector<Event> events,
                                    ObjId num_objects) {
  return make(std::move(events), num_objects,
              std::vector<Value>(static_cast<std::size_t>(num_objects), 0));
}

util::Result<History> History::make(std::vector<Event> events,
                                    ObjId num_objects,
                                    std::vector<Value> initial_values) {
  using R = util::Result<History>;
  if (num_objects < 0) return R::error("num_objects must be non-negative");
  if (initial_values.size() != static_cast<std::size_t>(num_objects))
    return R::error("initial_values size must equal num_objects");

  // Per-transaction validation state.
  struct TxnState {
    bool has_pending = false;
    Event pending_inv;
    bool finished = false;  // saw C_k or A_k
    std::set<ObjId> objects_read;
  };
  std::map<TxnId, TxnState> state;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.txn < 0) return R::error("negative transaction id at " + describe(e, i));
    if ((e.op == OpKind::kRead || e.op == OpKind::kWrite)) {
      if (e.obj < 0 || e.obj >= num_objects)
        return R::error("object id out of range at " + describe(e, i));
    }
    TxnState& ts = state[e.txn];
    if (ts.finished)
      return R::error("event after C/A response at " + describe(e, i));
    if (e.is_invocation()) {
      if (ts.has_pending)
        return R::error("invocation while operation pending at " +
                        describe(e, i));
      if (e.op == OpKind::kRead) {
        if (!ts.objects_read.insert(e.obj).second)
          return R::error("repeated read of same object (model assumes "
                          "read-once) at " + describe(e, i));
      }
      ts.has_pending = true;
      ts.pending_inv = e;
    } else {  // response
      if (!ts.has_pending)
        return R::error("response without pending invocation at " +
                        describe(e, i));
      const Event& inv = ts.pending_inv;
      if (inv.op != e.op)
        return R::error("response kind mismatch at " + describe(e, i));
      if ((e.op == OpKind::kRead || e.op == OpKind::kWrite) &&
          inv.obj != e.obj)
        return R::error("response object mismatch at " + describe(e, i));
      if (e.op == OpKind::kTryAbort && !e.aborted)
        return R::error("tryA must respond with A at " + describe(e, i));
      ts.has_pending = false;
      if (e.aborted || e.op == OpKind::kTryCommit) ts.finished = true;
    }
  }

  History h;
  h.events_ = std::move(events);
  h.num_objects_ = num_objects;
  h.initial_values_ = std::move(initial_values);
  h.derive();
  return R::ok(std::move(h));
}

void History::derive() {
  txns_.clear();
  tix_to_id_.clear();
  commit_pending_.clear();
  completion_order_.clear();
  id_to_tix_plus1_.clear();

  // First pass: discover transactions in order of first event.
  TxnId max_id = -1;
  for (const Event& e : events_) max_id = std::max(max_id, e.txn);
  id_to_tix_plus1_.assign(static_cast<std::size_t>(max_id) + 1, 0);

  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    const auto id = static_cast<std::size_t>(e.txn);
    if (id_to_tix_plus1_[id] == 0) {
      Transaction t;
      t.id = e.txn;
      t.first_event = i;
      txns_.push_back(std::move(t));
      tix_to_id_.push_back(e.txn);
      id_to_tix_plus1_[id] = txns_.size();
    }
    Transaction& t = txns_[id_to_tix_plus1_[id] - 1];
    t.last_event = i;
    if (e.is_invocation()) {
      Op op;
      op.kind = e.op;
      op.obj = e.obj;
      op.arg = e.value;
      op.inv_index = i;
      if (e.op == OpKind::kTryCommit) t.tryc_inv = i;
      t.ops.push_back(op);
    } else {
      DUO_ASSERT(!t.ops.empty() && !t.ops.back().has_response);
      Op& op = t.ops.back();
      op.has_response = true;
      op.resp_index = i;
      op.aborted = e.aborted;
      if (e.op == OpKind::kRead && !e.aborted) op.result = e.value;
      // C_k or A_k: the transaction's last event, so this walk visits the
      // t-complete transactions in order of their last event.
      if (e.aborted || e.op == OpKind::kTryCommit)
        completion_order_.push_back(id_to_tix_plus1_[id] - 1);
    }
  }

  // Second pass over each transaction: status, read classification, writes.
  for (std::size_t tix = 0; tix < txns_.size(); ++tix) {
    Transaction& t = txns_[tix];
    t.complete = true;
    t.status = TxnStatus::kRunning;
    std::vector<std::pair<ObjId, Value>> own_writes;  // last value per object
    for (std::size_t oi = 0; oi < t.ops.size(); ++oi) {
      const Op& op = t.ops[oi];
      if (!op.has_response) {
        t.complete = false;
        if (op.kind == OpKind::kTryCommit) t.status = TxnStatus::kCommitPending;
        continue;
      }
      if (op.aborted) t.status = TxnStatus::kAborted;
      switch (op.kind) {
        case OpKind::kRead:
          if (op.value_response()) {
            bool own = false;
            for (const auto& [obj, v] : own_writes)
              if (obj == op.obj) own = true;
            (own ? t.internal_reads : t.external_reads).push_back(oi);
          }
          break;
        case OpKind::kWrite:
          if (!op.aborted) {
            bool found = false;
            for (auto& [obj, v] : own_writes)
              if (obj == op.obj) {
                v = op.arg;
                found = true;
              }
            if (!found) own_writes.emplace_back(op.obj, op.arg);
          }
          break;
        case OpKind::kTryCommit:
          if (!op.aborted) t.status = TxnStatus::kCommitted;
          break;
        case OpKind::kTryAbort:
          break;
      }
    }
    std::sort(own_writes.begin(), own_writes.end());
    t.final_writes = std::move(own_writes);
    if (t.status == TxnStatus::kCommitPending) commit_pending_.push_back(tix);
  }
}

Value History::initial_value(ObjId x) const {
  DUO_EXPECTS(x >= 0 && x < num_objects_);
  return initial_values_[static_cast<std::size_t>(x)];
}

const Transaction& History::txn(std::size_t tix) const {
  DUO_EXPECTS(tix < txns_.size());
  return txns_[tix];
}

std::size_t History::tix_of(TxnId id) const {
  DUO_EXPECTS(participates(id));
  return id_to_tix_plus1_[static_cast<std::size_t>(id)] - 1;
}

bool History::participates(TxnId id) const noexcept {
  return id >= 0 &&
         static_cast<std::size_t>(id) < id_to_tix_plus1_.size() &&
         id_to_tix_plus1_[static_cast<std::size_t>(id)] != 0;
}

bool History::rt_precedes(std::size_t a, std::size_t b) const {
  DUO_EXPECTS(a < txns_.size() && b < txns_.size());
  return txns_[a].t_complete() && txns_[a].last_event < txns_[b].first_event;
}

std::size_t History::rt_pred_count(std::size_t b) const {
  DUO_EXPECTS(b < txns_.size());
  const std::size_t first = txns_[b].first_event;
  return static_cast<std::size_t>(
      std::partition_point(completion_order_.begin(), completion_order_.end(),
                           [&](std::size_t a) {
                             return txns_[a].last_event < first;
                           }) -
      completion_order_.begin());
}

util::DynamicBitset History::live_set(std::size_t tix) const {
  DUO_EXPECTS(tix < txns_.size());
  const std::size_t n = txns_.size();
  util::DynamicBitset out(n);
  const Transaction& t = txns_[tix];
  for (std::size_t o = 0; o < n; ++o) {
    const Transaction& u = txns_[o];
    const bool u_before_t = u.last_event < t.first_event;
    const bool t_before_u = t.last_event < u.first_event;
    if (!u_before_t && !t_before_u) out.set(o);
  }
  return out;
}

bool History::ls_precedes(std::size_t a, std::size_t b) const {
  DUO_EXPECTS(a < txns_.size() && b < txns_.size());
  if (a == b) return false;
  const util::DynamicBitset lset = live_set(a);
  bool ok = true;
  lset.for_each([&](std::size_t o) {
    const Transaction& u = txns_[o];
    if (!u.complete || u.last_event >= txns_[b].first_event) ok = false;
  });
  return ok;
}

History History::prefix(std::size_t n) const {
  DUO_EXPECTS(n <= events_.size());
  std::vector<Event> evs(events_.begin(),
                         events_.begin() + static_cast<std::ptrdiff_t>(n));
  auto r = History::make(std::move(evs), num_objects_, initial_values_);
  // A prefix of a well-formed history is well-formed.
  DUO_ASSERT(r.has_value());
  return std::move(r).take();
}

std::vector<Event> History::project(TxnId id) const {
  std::vector<Event> out;
  for (const Event& e : events_)
    if (e.txn == id) out.push_back(e);
  return out;
}

bool History::equivalent_to(const History& other) const {
  if (txns_.size() != other.txns_.size()) return false;
  for (const Transaction& t : txns_) {
    if (!other.participates(t.id)) return false;
    if (project(t.id) != other.project(t.id)) return false;
  }
  return true;
}

bool History::all_complete() const noexcept {
  for (const Transaction& t : txns_)
    if (!t.complete) return false;
  return true;
}

bool History::all_t_complete() const noexcept {
  for (const Transaction& t : txns_)
    if (!t.t_complete()) return false;
  return true;
}

bool History::has_unique_writes() const {
  // The paper's condition quantifies over pairs of *distinct* transactions
  // (T0, the imaginary writer of initial values, included): no two may write
  // the same value to the same object. A transaction rewriting its own value
  // does not violate the condition. Incomplete writes count: the argument of
  // Theorem 11 needs that no other transaction could have produced the value.
  //
  // Sort-and-scan rather than a map: the engine router evaluates this per
  // check, so it sits on the graph engine's fast path.
  struct WriteRec {
    ObjId obj;
    Value value;
    TxnId txn;
  };
  std::vector<WriteRec> writes;
  writes.reserve(static_cast<std::size_t>(num_objects_) + events_.size() / 2);
  constexpr TxnId kInitialTxn = -1;
  for (ObjId x = 0; x < num_objects_; ++x)
    writes.push_back({x, initial_value(x), kInitialTxn});
  for (const Transaction& t : txns_)
    for (const Op& op : t.ops)
      if (op.kind == OpKind::kWrite) writes.push_back({op.obj, op.arg, t.id});
  std::sort(writes.begin(), writes.end(),
            [](const WriteRec& a, const WriteRec& b) {
              if (a.obj != b.obj) return a.obj < b.obj;
              if (a.value != b.value) return a.value < b.value;
              return a.txn < b.txn;
            });
  for (std::size_t i = 1; i < writes.size(); ++i) {
    const WriteRec& a = writes[i - 1];
    const WriteRec& b = writes[i];
    if (a.obj == b.obj && a.value == b.value && a.txn != b.txn) return false;
  }
  return true;
}

}  // namespace duo::history

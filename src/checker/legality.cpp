#include "checker/legality.hpp"

#include <map>
#include <sstream>

namespace duo::checker {

using history::Op;
using history::OpKind;

namespace {

std::string read_desc(const Transaction& t, const Op& op) {
  std::ostringstream out;
  out << "read" << t.id << "(X" << op.obj << ")=" << op.result;
  return out.str();
}

/// Checks the reads a transaction makes of its own earlier writes; these are
/// independent of where the transaction is serialized.
void check_internal_reads(const History& h, const Transaction& t,
                          std::vector<std::string>& out) {
  for (const std::size_t oi : t.internal_reads) {
    const Op& op = t.ops[oi];
    // Find the latest own write to op.obj preceding the read.
    std::optional<Value> own;
    for (std::size_t j = 0; j < oi; ++j) {
      const Op& w = t.ops[j];
      if (w.kind == OpKind::kWrite && w.obj == op.obj && w.has_response &&
          !w.aborted)
        own = w.arg;
    }
    DUO_ASSERT(own.has_value());  // classified internal => prior write exists
    if (*own != op.result) {
      std::ostringstream msg;
      msg << "internal " << read_desc(t, op) << " must return own write "
          << *own;
      out.push_back(msg.str());
    }
  }
  (void)h;
}

}  // namespace

std::vector<std::string> verify_serialization(const History& h,
                                              const Serialization& s,
                                              const SerializationRules& rules) {
  std::vector<std::string> violations;
  if (!completion_shape_valid(h, s)) {
    violations.push_back("serialization is not a permutation/completion of H");
    return violations;
  }
  const std::vector<std::size_t> pos = s.positions();
  const std::size_t n = h.num_txns();

  if (rules.real_time) {
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t a = 0; a < n; ++a) {
        if (h.rt_precedes(a, b) && pos[a] > pos[b]) {
          std::ostringstream msg;
          msg << "real-time order violated: T" << h.txn(a).id << " ≺RT T"
              << h.txn(b).id << " but serialized after";
          violations.push_back(msg.str());
        }
      }
    }
  }

  for (const auto& [a, b] : rules.extra_edges) {
    if (pos[a] > pos[b]) {
      std::ostringstream msg;
      msg << "required edge violated: T" << h.txn(a).id << " must precede T"
          << h.txn(b).id;
      violations.push_back(msg.str());
    }
  }

  for (const auto& [a, b] : rules.commit_edges) {
    if (s.committed.test(b) && pos[a] > pos[b]) {
      std::ostringstream msg;
      msg << "commit order violated: T" << h.txn(a).id
          << " must precede committed T" << h.txn(b).id;
      violations.push_back(msg.str());
    }
  }

  // Legality. Walk the serialization order maintaining, per object, the
  // sequence of committed writers placed so far.
  if (rules.global_legality || rules.deferred_update) {
    std::vector<std::vector<std::size_t>> writers(
        static_cast<std::size_t>(h.num_objects()));
    for (std::size_t i = 0; i < s.order.size(); ++i) {
      const std::size_t tix = s.order[i];
      const Transaction& t = h.txn(tix);

      check_internal_reads(h, t, violations);

      for (const std::size_t oi : t.external_reads) {
        const Op& op = t.ops[oi];
        const auto& stack = writers[static_cast<std::size_t>(op.obj)];
        if (rules.global_legality) {
          const Value expected =
              stack.empty()
                  ? h.initial_value(op.obj)
                  : *h.txn(stack.back()).final_write_value(op.obj);
          if (expected != op.result) {
            std::ostringstream msg;
            msg << "illegal " << read_desc(t, op)
                << ": latest committed value is " << expected;
            violations.push_back(msg.str());
          }
        }
        if (rules.deferred_update) {
          // Local serialization S^{k,X}_H: committed writers serialized
          // before T whose tryC invocation lies in H^{k,X}, i.e. precedes
          // the read's response event in H (Def. 3(3)).
          std::optional<Value> local;
          std::optional<TxnId> local_writer;
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            const Transaction& w = h.txn(*it);
            DUO_ASSERT(w.tryc_inv.has_value());
            if (*w.tryc_inv < op.resp_index) {
              local = w.final_write_value(op.obj);
              local_writer = w.id;
              break;
            }
          }
          const Value expected =
              local.has_value() ? *local : h.initial_value(op.obj);
          if (expected != op.result) {
            std::ostringstream msg;
            msg << "deferred-update violation at " << read_desc(t, op)
                << ": in the local serialization the latest committed value"
                << " is " << expected
                << (local_writer.has_value()
                        ? " (from T" + std::to_string(*local_writer) + ")"
                        : " (initial)");
            violations.push_back(msg.str());
          }
        }
      }

      if (s.committed.test(tix) && !t.final_writes.empty()) {
        for (const auto& [obj, v] : t.final_writes)
          writers[static_cast<std::size_t>(obj)].push_back(tix);
      }
    }
  }

  return violations;
}

bool legal_t_sequential(const History& s) {
  // Direct implementation of the paper's "latest written value" definition
  // over a t-sequential history: committed transactions install their final
  // writes in order; every value-returning read must see its own latest
  // prior write, else the installed value, else the initial value.
  std::map<ObjId, Value> current;
  for (const Transaction& t : s.transactions()) {
    std::map<ObjId, Value> own;
    for (const Op& op : t.ops) {
      if (op.kind == OpKind::kWrite && op.has_response && !op.aborted)
        own[op.obj] = op.arg;
      if (op.value_response()) {
        Value expected;
        if (auto it = own.find(op.obj); it != own.end())
          expected = it->second;
        else if (auto c = current.find(op.obj); c != current.end())
          expected = c->second;
        else
          expected = s.initial_value(op.obj);
        if (expected != op.result) return false;
      }
    }
    if (t.committed())
      for (const auto& [obj, v] : t.final_writes) current[obj] = v;
  }
  return true;
}

Value latest_committed_value(const History& h, const Serialization& s,
                             std::size_t upto, ObjId x) {
  DUO_EXPECTS(upto <= s.order.size());
  Value v = h.initial_value(x);
  for (std::size_t i = 0; i < upto; ++i) {
    const std::size_t tix = s.order[i];
    if (!s.committed.test(tix)) continue;
    if (auto w = h.txn(tix).final_write_value(x)) v = *w;
  }
  return v;
}

std::vector<std::string> deferred_update_violations(const History& h,
                                                    const Serialization& s) {
  SerializationRules rules;
  rules.real_time = false;      // isolate Def. 3(3)
  rules.global_legality = false;
  rules.deferred_update = true;
  return verify_serialization(h, s, rules);
}

}  // namespace duo::checker

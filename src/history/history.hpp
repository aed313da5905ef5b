// The History class: a validated, immutable sequence of t-operation events
// with all derived structure the checkers need (paper §2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "history/event.hpp"
#include "history/transaction.hpp"
#include "util/bitset.hpp"
#include "util/result.hpp"

namespace duo::history {

/// A well-formed (possibly incomplete, possibly non-t-complete) history.
///
/// Construction validates well-formedness (paper §2):
///  - per transaction, events form a sequential sequence of operations
///    (invocation immediately matched by at most one response, no new
///    invocation while one is pending);
///  - no events after a C_k or A_k response;
///  - at most one read per t-object per transaction (the paper's
///    read-once assumption);
///  - response events match their pending invocation (kind and object).
///
/// Semantics (whether read values are consistent) is *not* validated here;
/// that is the checkers' job. A history recorded from a buggy STM is
/// well-formed but fails the correctness criteria.
class History {
 public:
  /// Validate and build. `num_objects` must exceed every object id used;
  /// initial values (the imaginary T0's writes) default to 0 per object.
  static util::Result<History> make(std::vector<Event> events,
                                    ObjId num_objects);
  static util::Result<History> make(std::vector<Event> events,
                                    ObjId num_objects,
                                    std::vector<Value> initial_values);

  // -- raw events ----------------------------------------------------------
  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  ObjId num_objects() const noexcept { return num_objects_; }
  Value initial_value(ObjId x) const;

  // -- transactions --------------------------------------------------------
  /// Transactions in order of first event. Dense indices 0..n-1 ("tix")
  /// are positions in this vector; most checker code works in tix space.
  const std::vector<Transaction>& transactions() const noexcept {
    return txns_;
  }
  std::size_t num_txns() const noexcept { return txns_.size(); }
  const Transaction& txn(std::size_t tix) const;

  /// Dense index of a transaction id; aborts if the id does not participate.
  std::size_t tix_of(TxnId id) const;
  bool participates(TxnId id) const noexcept;

  // -- derived relations ---------------------------------------------------
  /// Real-time order on transactions (paper §2): a ≺RT b iff a is t-complete
  /// and a's last event precedes b's first event. Indices are tix. An
  /// interval order, so it is one comparison of two event indices; nothing
  /// is stored per pair.
  bool rt_precedes(std::size_t a, std::size_t b) const;

  /// The completion order: every t-complete tix, in increasing order of its
  /// last event (its C_k or A_k response). The ≺RT predecessors of any b
  /// are exactly a prefix of it, of length rt_pred_count(b); the checkers
  /// encode ≺RT as a chain over this order (checker::real_time_chain_edges).
  const std::vector<std::size_t>& completion_order() const noexcept {
    return completion_order_;
  }

  /// Number of ≺RT predecessors of `b`: the completions whose last event
  /// precedes b's first event. O(log n).
  std::size_t rt_pred_count(std::size_t b) const;

  /// Live set of T (paper §3, before Lemma 4): all transactions whose event
  /// spans overlap T's (T included).
  util::DynamicBitset live_set(std::size_t tix) const;

  /// T ≺LS T' (paper §3): every member of Lset(T) is complete and its last
  /// event precedes T's first event... precisely: every T'' in Lset(T) is
  /// complete in H and the last event of T'' precedes the first event of T'.
  bool ls_precedes(std::size_t a, std::size_t b) const;

  // -- structural operations -------------------------------------------------
  /// The prefix consisting of the first n events (paper's H^n).
  History prefix(std::size_t n) const;

  /// H|k: the subsequence of events of transaction id k.
  std::vector<Event> project(TxnId id) const;

  /// Equivalence (paper §2): same transaction set, same per-transaction
  /// projections.
  bool equivalent_to(const History& other) const;

  /// True if every transaction is complete (every operation has a response).
  bool all_complete() const noexcept;
  /// True if every transaction is t-complete (ended with C_k or A_k).
  bool all_t_complete() const noexcept;

  /// True when no two writes (by different transactions, or the same) to the
  /// same object use the same value, and no write uses an initial value —
  /// the paper's "unique-writes" condition (§4.1, Opacity_ut).
  bool has_unique_writes() const;

  /// Transactions with commit-pending status (tryC invoked, unanswered), as
  /// tix list; these are the only completion choice points (Definition 2).
  const std::vector<std::size_t>& commit_pending() const noexcept {
    return commit_pending_;
  }

 private:
  History() = default;
  void derive();

  std::vector<Event> events_;
  ObjId num_objects_ = 0;
  std::vector<Value> initial_values_;
  std::vector<Transaction> txns_;
  std::vector<TxnId> tix_to_id_;
  std::vector<std::size_t> commit_pending_;
  std::vector<std::size_t> completion_order_;

  // id -> tix + 1, 0 = absent; ids can be sparse but small in practice.
  std::vector<std::size_t> id_to_tix_plus1_;
};

}  // namespace duo::history

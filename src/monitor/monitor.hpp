// Online incremental du-opacity monitor.
//
// The paper makes online monitoring sound: du-opacity is prefix-closed
// (Corollary 2), so once any prefix of an execution is non-du-opaque every
// extension is, and a monitor may latch a permanent "no" at the first bad
// event; if every finite prefix passes, limit-closure under unique writes
// (Theorem 5) extends the guarantee to the whole execution. OnlineMonitor
// turns that into an algorithm: it consumes history events one at a time
// and maintains the verdict for the growing prefix incrementally, instead
// of re-running the checker per prefix.
//
// The steady state is the graph engine (checker/graph_engine.hpp) maintained
// incrementally. The monitor keeps, per event, exactly the Tier-A constraint
// graph the batch engine would build for the current prefix:
//
//   - real-time order, sparsified through a completion chain (one fresh
//     graph node per t-completion; a transaction's ≺RT predecessors collapse
//     to one edge from the latest chain node at its start);
//   - reads-from edges, resolved exactly under unique writes (the unique
//     can-commit writer of the value read);
//   - per-object canonical version chains over the forced completion
//     (committed transactions plus commit-pending writers somebody reads
//     from), ordered by install key — tryC response once committed, tryC
//     invocation while commit-pending — with consecutive-writer edges;
//   - one anti-dependency edge per resolved read (reader before the first
//     chain successor of its writer, skipping the reader itself);
//   - initial-value-read edges (reader before every chain writer of the
//     object).
//
// All of it lives in one shared util::IncrementalGraph with Pearce-Kelly
// online cycle detection, so a typical event costs a handful of edge
// insertions. While the maintained graph is acyclic and the unique-writes
// precondition holds, ANY topological order of it is a valid du-opaque
// serialization — the prefix is kYes with no search at all. The paper's
// Def. 3(3) deferred-update condition collapses to the per-read
// tryC-before-response predicate, checked directly at each read response.
//
// Three event-local conditions latch kNo immediately (each is a sound
// rejection of the current prefix, mirroring the batch engine's fast
// rejects): an internal read not returning the transaction's own write, an
// external read of a value no can-commit transaction writes, and a read
// whose every candidate writer invoked tryC only after the read's response.
//
// Everything else falls back to one bounded batch check of the prefix
// (checker/engine.hpp routing: graph Tier B, then DFS), which happens only
// when (a) a canonical edge insertion would close a cycle — either a real
// violation, latched from the batch verdict, or a canonical-order
// miss-guess, after which the parked edge is retried as the graph thins —
// or (b) the prefix leaves the unique-writes class (two can-commit writers
// of one value, or a can-commit write of an initial value), for as long as
// it stays outside. Recorded STM runs take neither path: the canonical
// install order is the order the STM actually produced.
//
// -- Sharded internals (feed_batch) ----------------------------------------
//
// Feeding is organized as three strictly sequential phases over a batch of
// events (feed() is a batch of one; the ingest pipeline hands whole parsed
// chunks to feed_batch):
//
//   1. PRESCAN (serial). Validation, transaction bookkeeping, graph node
//      allocation, reads-from candidate resolution decisions and the
//      event-local latches — everything that needs transaction-global
//      state — runs once over the batch, emitting an ordered list of
//      slots: per-object tasks (chain insert/remove, read resolve/
//      unresolve, initial read) routed to shard ObjId % S, direct edges
//      whose endpoints prescan already knows (completion chain, reads-from
//      edges), and one boundary slot per event.
//   2. DERIVE (parallel). Shard s executes the per-object tasks with
//      obj % S == s, in slot order, against its own per-object state
//      (version chains in canonical install order, initial-read lists,
//      per-object resolved-read lists), appending each task's edge ops —
//      the expensive part: binary searches, splice retargets, initial-read
//      fans. Shards share no mutable state: each object belongs to exactly
//      one shard, and the transaction table is frozen during the phase
//      (per-read anti-dependency targets are shard-written, but a read
//      belongs to exactly one object).
//   3. APPLY (serial). The slot list is replayed in order through the
//      single Pearce-Kelly graph (util::IncrementalGraph), producing the
//      exact edge sequence the serial monitor would have produced event by
//      event; per-event boundaries then run the fast-path check or the
//      bounded fallback against snapshots captured at prescan time.
//
// Because apply replays the identical link/unlink sequence, verdicts,
// first-violation indices, stats and GC retirement decisions are
// bit-identical for every shard count (the differential oracle,
// tests/oracle_test.cpp, sweeps this); batching only defers GC passes to
// batch ends, which is invisible to verdicts. Cycle detection stays exact
// and deterministic: it is the one serialized phase, amortized through
// IncrementalGraph::add_edges.
//
// Settled-prefix garbage collection (MonitorOptions::gc) retires settled
// transactions — their events, graph nodes, and per-object bookkeeping
// dropped — once nothing retained or future can name them. It does not
// bound resident state: retention still grows with the object count and
// the trace length (docs/service.md gives the measurements). The
// settlement rule (see docs/service.md for the full argument) requires,
// with H the first event index of the earliest-started unfinished
// transaction:
//
//   - finished and t-completed before H, so it real-time-precedes every
//     live and future transaction;
//   - no retained read's anti-dependency edge targets it (drains as the
//     readers holding those edges retire);
//   - if committed: on every object it wrote it is superseded by two
//     committed successors installed before H, and no other transaction's
//     retained initial read of that object exists. The two-successor
//     guard makes any future chain splice or anti-dependency retarget
//     land strictly after it, and makes any future stale read of a
//     retired version a certain violation: the read would order its
//     reader before a guard successor that t-completed before the reader
//     even started.
//
// Reads still resolved to a retiring writer are sealed rather than
// blocking it (read-modify-write chains would otherwise never drain): the
// read keeps its anti-dependency edge — pinning the guard successor, so
// the reader's ordering constraint survives — while the version it read
// moves to a sealed-versions table. The fallback tier then checks the
// retained events with one synthetic committed writer per sealed version
// prepended in install-rank order; sealed versions precede the horizon, so
// the synthetic writers' real-time position is consistent with every
// retained transaction. A later read of a retired value latches kNo at the
// same event the unretired monitor would (its candidate set is empty,
// where the unretired monitor walks into the guard's real-time
// contradiction). Verdicts and first-violation indices with GC on are
// identical to the unretired monitor.
//
// The monitor's verdict for every prefix equals check_du_opacity on that
// prefix. The differential oracle (tests/oracle_test.cpp) holds this, and
// the equality of first-violation indices with GC on and off, at every
// batch size and shard count, over generated histories, the paper's
// figures and recorded STM runs.
//
// Index convention: first_violation() is the 0-based index into the fed
// event sequence (the same convention as History::events() and the batch
// checker::first_bad_prefix query). Human-readable text — validate()
// diagnostics, duo_check output — numbers events from 1.
//
// Initial values are assumed to be 0 for every object, matching recorded
// executions and the trace parser.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/criteria.hpp"
#include "history/event.hpp"
#include "history/history.hpp"
#include "util/hash.hpp"
#include "util/incremental_graph.hpp"
#include "util/result.hpp"
#include "util/threading.hpp"

namespace duo::monitor {

using checker::Verdict;
using history::Event;
using history::History;
using history::ObjId;
using history::TxnId;
using history::TxnStatus;
using history::Value;

struct MonitorOptions {
  /// DFS node budget for the bounded-search fallback.
  std::uint64_t node_budget = 50'000'000;
  /// Engine routing for the fallback tier (checker/engine.hpp). With the
  /// default kAuto a fallback on a unique-writes prefix is re-checked by
  /// the polynomial graph engine (Tier B) instead of the exponential
  /// search, so fallbacks stop being the monitor's worst-case cost.
  checker::EngineKind engine = checker::EngineKind::kAuto;
  /// Settled-prefix garbage collection: retire transactions nothing
  /// retained or future can name (see the settlement rule in the header
  /// comment). This slows, but does not bound, the growth of resident
  /// state. Off by default: with GC on, history() returns only the
  /// retained event subsequence.
  bool gc = false;
  /// GC pacing: a collection pass runs once the retained event count grows
  /// past the last pass's count by max(gc_retain_events / 2, 1). 0 runs a
  /// pass after every event (for tests; O(live) scan per event).
  std::size_t gc_retain_events = 4096;
  /// Object shards for the parallel derive phase of feed_batch: per-object
  /// state belongs to shard ObjId % shards. 1 (the default) derives on the
  /// calling thread; 0 means one shard per hardware thread. Verdicts,
  /// first-violation indices, stats and GC decisions are identical for
  /// every value — shards change who computes, never what.
  std::size_t shards = 1;
};

struct MonitorStats {
  std::size_t events = 0;
  /// Events decided by the incrementally maintained constraint graph alone
  /// (acyclic => kYes; no per-prefix check of any kind).
  std::size_t fast_yes = 0;
  /// Bounded fallbacks (History rebuild + check_du_opacity on the prefix).
  std::size_t full_checks = 0;
  /// Fallbacks the engine router answered with the polynomial graph engine
  /// (subset of full_checks).
  std::size_t graph_checks = 0;
  /// Constraint-graph edge references added / released.
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  /// Version-chain splices: mid-chain insertions, removals and
  /// move-to-ends (plain appends — the common case — are not counted).
  std::size_t chain_splices = 0;
  /// Desired edges parked because their insertion would have closed a
  /// cycle (cumulative; each parking suspends the fast path until the
  /// graph thins enough to admit the edge).
  std::size_t deferred_edges = 0;
  /// Garbage-collection pass / retirement counters (all zero with GC off).
  std::size_t gc_passes = 0;
  std::size_t retired_txns = 0;
  std::size_t retired_events = 0;
  std::size_t sealed_reads = 0;
  /// True when kNo was latched by the incremental tier itself (an
  /// event-local rejection) rather than by the fallback check.
  bool latched_by_fast_path = false;

  bool operator==(const MonitorStats&) const = default;
};

class OnlineMonitor {
 public:
  explicit OnlineMonitor(const MonitorOptions& opts = {});

  /// Consume the next event and return the verdict for the prefix ending at
  /// it. A malformed event (one History::make would reject) yields an error
  /// and is discarded; the monitor remains usable. Exactly
  /// feed_batch(&e, 1).
  [[nodiscard]] util::Result<Verdict> feed(const Event& e);

  /// Outcome of feed_batch. `consumed` is the number of leading events
  /// incorporated into the monitor (including a latching event); with a
  /// non-empty `error`, events[consumed] was malformed and the batch
  /// stopped before it (earlier events were fed normally). After a kNo
  /// latch the remainder of the batch is not consumed — prefix closure
  /// already covers it, and callers should stop feeding.
  struct [[nodiscard]] FeedOutcome {
    std::size_t consumed = 0;
    std::string error;
  };

  /// Consume up to `n` events through the sharded prescan/derive/apply
  /// path (see the header comment). Equivalent to feeding them one at a
  /// time — same verdicts, first-violation index, stats and diagnostics —
  /// except that GC passes run at batch boundaries only.
  FeedOutcome feed_batch(const Event* events, std::size_t n);

  /// Verdict for the prefix fed so far. kNo is latched: per prefix closure
  /// it covers every extension, so later feeds are O(1).
  Verdict verdict() const noexcept { return verdict_; }

  /// 0-based index (into the fed event sequence) of the event at which kNo
  /// latched. Equals checker::first_bad_prefix on the same events; add 1
  /// when printing for humans.
  std::optional<std::size_t> first_violation() const noexcept {
    return first_violation_;
  }

  /// Human-readable reason for a kNo verdict.
  const std::string& explanation() const noexcept { return explanation_; }

  std::size_t events_fed() const noexcept { return total_events_; }
  ObjId num_objects() const noexcept { return num_objects_; }
  const MonitorStats& stats() const noexcept { return stats_; }
  std::size_t shards() const noexcept { return num_shards_; }

  /// Observability for long-running service use (duo_mond stats dumps and
  /// the flat-memory regression tests): the RSS-proxy resident state.
  std::size_t retained_events() const noexcept { return events_.size(); }
  std::size_t live_transactions() const noexcept { return tix_of_.size(); }
  std::size_t graph_nodes() const noexcept { return graph_.num_live_nodes(); }
  std::size_t graph_edges() const noexcept { return graph_.num_edges(); }
  std::size_t pending_edges() const noexcept { return pending_.size(); }
  std::size_t nonuw_debt() const noexcept { return nonuw_; }

  /// Everything fed so far as a History (O(events); for reporting). Note:
  /// materializing a History is dense in object ids, so this (and the
  /// fallback tier that uses it) assumes compact ids; the fast path itself
  /// never materializes. With GC on this is the retained event
  /// subsequence, which is self-contained (see the settlement rule).
  History history() const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Read::writer sentinel: the resolved writer was retired by GC. The
  /// read keeps its anti-dependency edge (pinning the target), but is out
  /// of reads_of_, so no later candidate traffic touches it; the version
  /// it read lives on in sealed_versions_ for fallback reconstruction.
  static constexpr std::size_t kSealedWriter = static_cast<std::size_t>(-2);
  /// Below this many shard tasks in a batch, dispatching the worker gang
  /// costs more than deriving inline.
  static constexpr std::size_t kParallelDeriveThreshold = 64;

  // -- per-transaction incremental state (index = tix, dense in order of
  // first event) ----------------------------------------------------------
  struct Txn {
    TxnId id = 0;
    TxnStatus status = TxnStatus::kRunning;
    bool finished = false;  // saw a C_k or A_k response (validation)
    bool has_pending = false;
    Event pending_inv;
    std::optional<std::size_t> tryc_inv;
    std::vector<std::pair<ObjId, Value>> final_writes;  // responded writes
    std::vector<ObjId> objects_read;  // read-once validation (small set)
    std::size_t node = 0;             // constraint-graph node id
    /// Canonical install key (chain sort key): tryC invocation index while
    /// commit-pending, tryC response index once committed. Valid while the
    /// transaction is in any version chain.
    std::uint64_t install_key = 0;
    bool in_chain = false;
    /// Reads currently resolved to this writer (read ids); their count
    /// drives commit-pending chain membership (the forced completion).
    std::vector<std::size_t> rf_reads;
    // GC bookkeeping.
    std::size_t start_index = 0;       // absolute index of the first event
    std::size_t complete_index = kNone;  // absolute index of the C/A response
    std::size_t completion_seq = kNone;  // slot in the completion-node log
    std::vector<std::size_t> my_reads;   // read ids issued by this txn
    /// Retained reads whose anti-dependency edge currently targets this
    /// transaction; non-zero blocks retirement.
    std::size_t antidep_in = 0;

    /// Clears for slot reuse, keeping vector capacities (a retired slot's
    /// arrays regrow to working-set size instead of reallocating).
    void reset() {
      id = 0;
      status = TxnStatus::kRunning;
      finished = false;
      has_pending = false;
      pending_inv = Event{};
      tryc_inv.reset();
      final_writes.clear();
      objects_read.clear();
      node = 0;
      install_key = 0;
      in_chain = false;
      rf_reads.clear();
      start_index = 0;
      complete_index = kNone;
      completion_seq = kNone;
      my_reads.clear();
      antidep_in = 0;
    }
  };

  // -- per-external-read constraint state ---------------------------------
  struct Read {
    std::size_t reader = 0;  // tix
    ObjId obj = -1;
    Value value = 0;
    std::size_t resp_index = 0;
    bool is_initial = false;
    std::vector<std::size_t> cands;  // can-commit writers of (obj, value)
    std::size_t local_count = 0;     // cands with tryC invoked before resp
    std::size_t writer = kNone;      // resolved reads-from writer (tix)
    /// Anti-dependency edge target (tix). Owned by the object's shard
    /// during the derive phase (every other field is prescan-written and
    /// frozen by then; a read belongs to exactly one object, so exactly
    /// one shard touches it).
    std::size_t antidep = kNone;

    void reset() {
      reader = 0;
      obj = -1;
      value = 0;
      resp_index = 0;
      is_initial = false;
      cands.clear();
      local_count = 0;
      writer = kNone;
      antidep = kNone;
    }
  };

  // -- per-object shard state (sparse: created on first touch) ------------
  /// One version-chain member: the install key is copied at task-emission
  /// time because Txn::install_key mutates across a batch (a commit moves
  /// the key from tryC invocation to tryC response) while the chain entry
  /// must keep the key it was inserted under until its removal task.
  struct ChainEntry {
    std::uint64_t key = 0;
    std::size_t tix = kNone;
    std::size_t node = 0;
  };
  struct InitialRead {
    std::size_t rid = kNone;
    std::size_t reader = kNone;  // tix
    std::size_t reader_node = 0;
  };
  struct ObjShard {
    /// Must-commit writers of this object in canonical install order.
    std::vector<ChainEntry> chain;
    /// Initial-value reads of this object; each keeps an edge to every
    /// chain member.
    std::vector<InitialRead> initial_reads;
    /// Writer tix -> reads of THIS object currently resolved to it, in
    /// resolution order. The shard-local, per-object projection of
    /// Txn::rf_reads, maintained task-by-task so splice retargets see the
    /// resolution state as of their point in the serial order (the
    /// coordinator's lists are frozen mid-batch and would be stale).
    std::unordered_map<std::size_t, std::vector<std::size_t>> rf;
  };
  struct ShardState {
    std::unordered_map<ObjId, ObjShard> objs;
  };

  // -- the slot list (one batch's worth of work, in serial event order) ---
  /// One graph-side effect of a shard task, replayed serially in apply.
  struct Op {
    enum class Kind : std::uint8_t { kLink, kUnlink, kAntidepIn };
    Kind kind = Kind::kLink;
    std::int32_t delta = 0;         // kAntidepIn: +1 / -1 on txns_[a]
    std::size_t a = 0;              // edge source node, or tix
    std::size_t b = 0;              // edge target node
  };

  struct Slot {
    enum class Kind : std::uint8_t {
      kDirectLink,    // edge a -> b, endpoints known at prescan
      kDirectUnlink,  // edge a -> b released
      kChainInsert,   // shard task: insert tix into obj's chain at key
      kChainRemove,   // shard task: remove tix (at key) from obj's chain
      kResolve,       // shard task: read rid resolved to writer (at key)
      kUnresolve,     // shard task: read rid unresolved from writer
      kInitialRead,   // shard task: initial-value read rid of obj
      kBoundary,      // end of one event: verdict work happens here
    };
    Kind kind = Kind::kBoundary;
    ObjId obj = -1;                  // shard routing key (shard tasks)
    std::size_t a = 0, b = 0;        // direct edge endpoints (nodes)
    std::size_t tix = kNone;         // chain subject
    std::size_t node = 0;            // chain subject's graph node
    std::uint64_t key = 0;           // install key (insert/remove/resolve)
    std::size_t rid = kNone;         // read id (read tasks)
    std::size_t reader = kNone;      // read's reader tix
    std::size_t reader_node = 0;
    std::size_t writer = kNone;      // resolve/unresolve writer tix
    // Boundary payload: per-event snapshots taken at prescan time, so the
    // fast-path check and fallback reconstruction see the prefix state
    // even though the whole batch was prescanned up front.
    std::size_t index = 0;       // absolute event index
    std::size_t event_pos = 0;   // position within the fed batch
    std::size_t nonuw = 0;       // nonuw_ after this event's handlers
    ObjId num_objects = 0;
    TxnId max_txn_id = 0;
    bool frozen = false;  // monitor was already latched at batch start
    bool latch = false;   // prescan latched at this event
    std::string latch_reason;
    // Derive output: the task's graph effects, in serial emission order.
    std::vector<Op> ops;
    std::uint32_t splices = 0;
  };

  std::string validate(const Event& e) const;
  std::string fail_msg(const char* why, const Event& e) const;
  std::size_t txn_index(TxnId id);  // creates the transaction on first use

  void latch_at(std::size_t index, std::string reason, bool by_fast_path);
  bool latched() const noexcept { return verdict_ == Verdict::kNo; }

  // Edge bookkeeping (apply phase + GC): every desired edge goes through
  // link/unlink. A link that would close a cycle is parked in pending_
  // (the fast path is then suspended until it inserts cleanly after
  // removals thin the graph).
  void link(std::size_t a, std::size_t b);
  void unlink(std::size_t a, std::size_t b);
  void retry_pending();

  std::optional<Value> final_write_value(std::size_t tix, ObjId x) const;
  std::string read_desc(const Read& r) const;

  // -- prescan (phase 1, serial) ------------------------------------------
  Slot& emit(Slot::Kind kind);
  Slot& emit_task(Slot::Kind kind, ObjId x);
  void emit_direct(Slot::Kind kind, std::size_t a, std::size_t b);
  void pre_latch(std::string reason);
  void pre_enter_chains(std::size_t tix);
  void pre_leave_chains(std::size_t tix);
  void pre_resolve_read(std::size_t rid, std::size_t w);
  void pre_unresolve_read(std::size_t rid);
  void pre_reject_or_resolve(std::size_t rid);
  void pre_new_transaction(std::size_t tix);
  void pre_t_complete(std::size_t tix);
  void pre_read_response(std::size_t tix, ObjId x, Value v,
                         std::size_t resp_index);
  void pre_tryc_invoked(std::size_t tix);
  void pre_committed(std::size_t tix, std::size_t resp_index);
  void pre_aborted(std::size_t tix, bool was_commit_pending);
  /// Prescans events[0..n); returns the number fully prescanned (stops
  /// after a latching event or before a malformed one, filling `error`).
  std::size_t prescan(const Event* events, std::size_t n, std::string& error);

  // -- derive (phase 2, parallel over shards) -----------------------------
  static bool is_shard_task(Slot::Kind kind) noexcept {
    return kind == Slot::Kind::kChainInsert ||
           kind == Slot::Kind::kChainRemove || kind == Slot::Kind::kResolve ||
           kind == Slot::Kind::kUnresolve || kind == Slot::Kind::kInitialRead;
  }
  std::size_t shard_of(ObjId x) const noexcept {
    return static_cast<std::size_t>(x) % num_shards_;
  }
  ObjShard& obj_shard(ObjId x) { return shards_[shard_of(x)].objs[x]; }
  static std::size_t chain_lower_bound(const std::vector<ChainEntry>& chain,
                                       std::uint64_t key);
  /// Position of the member inserted under `key` (must be present).
  static std::size_t chain_find(const std::vector<ChainEntry>& chain,
                                std::uint64_t key, std::size_t tix);
  void derive_shard(std::size_t shard);
  void derive_slot(ObjShard& os, Slot& s);
  void derive_chain_insert(ObjShard& os, Slot& s);
  void derive_chain_remove(ObjShard& os, Slot& s);
  void derive_resolve(ObjShard& os, Slot& s);
  void derive_unresolve(ObjShard& os, Slot& s);
  void derive_initial_read(ObjShard& os, Slot& s);
  void derive_retarget_read(const ObjShard& os, Slot& out, std::size_t rid,
                            std::size_t wpos);
  void derive_retarget_around(const ObjShard& os, Slot& out, std::size_t pos);

  // -- apply (phase 3, serial) --------------------------------------------
  /// Replays the slot list through the graph and the per-event verdict
  /// machinery. Returns the number of events consumed (apply stops after a
  /// fallback check latches mid-batch).
  std::size_t apply_slots(const Event* events);
  void run_full_check(ObjId num_objects, TxnId synth_base, std::size_t index);
  History history_at(ObjId num_objects, TxnId synth_base) const;

  // Settled-prefix garbage collection (all no-ops with opts_.gc off); runs
  // only between batches, where the coordinator owns all shard state.
  std::size_t live_horizon();
  bool txn_settled(std::size_t tix, std::size_t horizon) const;
  void retire_read(std::size_t rid);
  void retire_txn(std::size_t tix);
  void run_gc();

  MonitorOptions opts_;
  std::size_t num_shards_ = 1;
  ObjId num_objects_ = 0;
  /// Retained events, in feed order. Without GC this is every event ever
  /// fed; with GC, retired transactions' events are compacted away and
  /// total_events_ keeps the absolute count (and index convention).
  std::vector<Event> events_;
  std::size_t total_events_ = 0;
  std::vector<Txn> txns_;
  std::unordered_map<TxnId, std::size_t> tix_of_;
  std::vector<std::size_t> free_txns_;  // retired Txn slots awaiting reuse
  std::vector<std::size_t> free_reads_;  // retired Read slots awaiting reuse

  std::vector<Read> reads_;
  // (obj, value) -> reads returning that value / can-commit writers of it.
  std::unordered_map<std::pair<ObjId, Value>, std::vector<std::size_t>,
                     util::PairHash>
      reads_of_;
  std::unordered_map<std::pair<ObjId, Value>, std::vector<std::size_t>,
                     util::PairHash>
      writers_of_;

  /// Per-object state, owned by shard ObjId % num_shards_. Only the derive
  /// phase touches it concurrently (one shard per object); prescan never
  /// reads it and GC runs between batches on the coordinator thread.
  std::vector<ShardState> shards_;
  std::unique_ptr<util::WorkerGang> gang_;  // created on first parallel use

  /// The batch slot list, pooled across feed_batch calls (slots_used_ is
  /// the live prefix; Slot::ops vectors keep their capacity).
  std::vector<Slot> slots_;
  std::size_t slots_used_ = 0;
  std::size_t shard_task_count_ = 0;
  bool pre_latched_ = false;
  std::string pre_latch_reason_;

  util::IncrementalGraph graph_;
  /// ≺RT sparsification chain. Each entry is one t-completion's chain node;
  /// the log is a deque so GC can drop the settled front (a node pops once
  /// its completing transaction is retired; the back node — the one new
  /// transactions link from — always stays).
  struct CompletionEntry {
    std::size_t node = 0;
    bool completer_retired = false;
  };
  std::deque<CompletionEntry> completion_log_;
  std::size_t completion_base_ = 0;  // seq of completion_log_.front()
  /// (tix, start_index) in start order, lazily pruned: the front (skipping
  /// finished or reused entries) is the earliest-started unfinished
  /// transaction, whose start index is the GC live horizon H.
  std::deque<std::pair<std::size_t, std::size_t>> open_txns_;
  std::size_t gc_trigger_ = 0;
  /// Versions written by retired writers that retained sealed reads still
  /// reference: (obj, value) -> (install rank, referencing sealed reads).
  /// The fallback tier reconstructs each as one synthetic committed writer
  /// prepended to the retained events (in rank order); an entry dies with
  /// its last sealed read.
  struct SealedVersion {
    std::uint64_t rank = 0;
    std::size_t refs = 0;
  };
  std::unordered_map<std::pair<ObjId, Value>, SealedVersion, util::PairHash>
      sealed_versions_;
  TxnId max_txn_id_seen_ = 0;  // preamble ids are allocated above this
  /// Desired edges absent from the graph (insertion would have closed a
  /// cycle), with multiplicity. Non-empty => fast path suspended. Stays an
  /// ordered map: retry_pending's iteration order is part of the
  /// deterministic behavior, and the set is almost always empty.
  std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> pending_;
  /// Unique-writes debt: count of (obj, value) keys with two or more
  /// can-commit writers, plus can-commit final writes of an initial value.
  /// Non-zero => the prefix is outside the class the incremental graph
  /// decides, and every event falls back to the bounded check.
  std::size_t nonuw_ = 0;
  bool removed_this_event_ = false;

  Verdict verdict_ = Verdict::kYes;
  std::optional<std::size_t> first_violation_;
  std::string explanation_;

  MonitorStats stats_;
};

}  // namespace duo::monitor

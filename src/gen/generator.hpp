// Random history generators for property-based testing and trace generation.
//
// Three generators with different guarantees:
//
//   - random_du_history: simulates an idealized deferred-update STM
//     (value-validating, atomic commit) over a random interleaving. Every
//     produced history is du-opaque by construction, giving a one-sided
//     soundness oracle for the checkers.
//
//   - random_history: plausible-but-unconstrained histories; read values
//     are drawn from values someone writes (or the initial value), so both
//     correct and incorrect histories appear. Exercises both verdicts.
//
//   - mutate: corrupts a history (flip a read value, displace a tryC
//     invocation, swap adjacent events of different transactions) to probe
//     checker sensitivity around the du boundary.
#pragma once

#include "history/history.hpp"
#include "util/rng.hpp"

namespace duo::gen {

using history::History;
using history::ObjId;
using history::TxnId;
using history::Value;

struct GenOptions {
  int num_txns = 6;
  ObjId num_objects = 3;
  int min_ops = 1;
  int max_ops = 4;            // reads/writes per transaction (before tryC)
  double write_prob = 0.5;    // each op is a write with this probability
  double value_skew = 0.0;    // zipf theta over objects (0 = uniform)
  int value_range = 3;        // write values drawn from [1, value_range];
                              // small ranges produce duplicate writes
  bool unique_writes = false;  // give every write a globally unique value

  // Lifecycle knobs (probabilities per transaction):
  double leave_running_prob = 0.10;   // never invoke tryC
  double commit_pending_prob = 0.10;  // tryC invoked, never answered
  double tryc_abort_prob = 0.15;      // tryC answered with A
  double drop_last_response_prob = 0.05;  // leave the last op incomplete

  // Event interleaving: probability that an operation's invocation and
  // response are separated by other transactions' events.
  double split_op_prob = 0.35;
};

/// Du-opaque-by-construction history (see header comment).
History random_du_history(const GenOptions& opts, util::Xoshiro256& rng);

/// Deterministic du-opaque unique-writes "live run": `threads` logical
/// threads execute read-one-write-one transactions back to back against an
/// idealized value-validating atomic-commit deferred-update store,
/// interleaved round-robin at event granularity. Reads return the committed
/// value at response time; tryC re-validates the read against the store
/// (values are globally unique, so equality means unchanged) and either
/// installs the write atomically at the C response or answers A — so every
/// prefix is du-opaque, with genuine read-write conflicts. Contention
/// aborts need many threads against few objects: on 20,000-event traces
/// over the default 8 objects there are none at 2, 3 or 4 threads and 704
/// at 8. Object choices are hash-scattered, making cross-transaction
/// reads-from edges common. No RNG — the same arguments always produce the
/// same history. Shared by the duo_gen trace generator, the engine tests,
/// and the CI long-history smoke job.
History deterministic_live_run(std::size_t target_events, int threads = 4,
                               ObjId objects = 8);

/// Unconstrained plausible history.
History random_history(const GenOptions& opts, util::Xoshiro256& rng);

enum class Mutation : std::uint8_t {
  kFlipReadValue,    // change a read's returned value
  kDelayTryC,        // move a tryC invocation later in the history
  kSwapAdjacent,     // swap two adjacent events of different transactions
  kPromoteAbort,     // turn a tryC->A response into C
};

/// Apply one random mutation; returns the mutated history, or the original
/// if no applicable mutation site exists (mutations preserving
/// well-formedness only).
History mutate(const History& h, util::Xoshiro256& rng);

}  // namespace duo::gen

// Exhaustive op-level interleaving exploration ("model checking lite").
//
// Because the STM implementations are plain shared-memory data structures
// and their operations complete without blocking on other transactions'
// progress (TL2's lock acquisition has a bounded spin, NORec's commit CAS
// loop always terminates single-threaded), one thread can drive any
// interleaving of several transactions at operation granularity. The
// explorer enumerates EVERY interleaving of a set of transaction programs,
// runs each against a fresh STM instance, records the history, and judges
// it with the du-opacity checker.
//
// For a correct deferred-update STM the expected result is zero violations
// over the full schedule space — a far stronger statement than any number
// of random runs. For the fault-injected variants the explorer finds the
// buggy interleavings mechanically.
//
// Not applicable to blocking implementations (TML's begin and the
// pessimistic STM's writer mutex can deadlock a single-threaded driver).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "history/history.hpp"
#include "stm/api.hpp"

namespace duo::stm {

struct ProgramOp {
  enum class Kind : std::uint8_t { kRead, kWrite } kind;
  ObjId obj = 0;
  Value value = 0;  // write argument

  static ProgramOp read(ObjId x) { return {Kind::kRead, x, 0}; }
  static ProgramOp write(ObjId x, Value v) { return {Kind::kWrite, x, v}; }
};

/// A straight-line transaction body; a tryC step is implicit at the end.
/// Aborted transactions simply stop (their remaining steps are skipped).
using Program = std::vector<ProgramOp>;

struct ExplorerOptions {
  /// STM factory; must produce a non-blocking implementation (see above).
  std::function<std::unique_ptr<Stm>(ObjId, Recorder*)> make_stm;
  ObjId num_objects = 2;
  /// Cap on the number of schedules (the multinomial grows fast).
  std::uint64_t max_schedules = 1'000'000;
  /// Node budget per du-opacity check.
  std::uint64_t check_budget = 50'000'000;
};

struct ExplorerReport {
  std::uint64_t schedules = 0;
  std::uint64_t schedule_cap_hit = 0;  // 1 if max_schedules stopped us
  std::uint64_t du_violations = 0;
  std::uint64_t unknown = 0;  // checker budget exhausted
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  /// The first du-violating recorded history, for diagnosis.
  std::optional<history::History> first_violation;
};

/// Run every interleaving of `programs` and judge each recorded history.
ExplorerReport explore_interleavings(const std::vector<Program>& programs,
                                     const ExplorerOptions& opts);

/// Number of distinct schedules for the given programs (multinomial
/// coefficient over step counts, each program contributing ops + 1 steps).
std::uint64_t schedule_count(const std::vector<Program>& programs);

}  // namespace duo::stm

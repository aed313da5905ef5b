// Unified STM backend registry.
//
// One table maps CLI-friendly names to backend factories plus the metadata
// the conformance/safety matrix needs: the update policy (deferred vs
// direct — the axis the paper studies), whether aborted writes are rolled
// back, and the *declared du-opacity expectation* for recorded histories.
// Every tool, example and test that needs "an STM by name" goes
// through make_stm(), so a backend added here is automatically covered by
// the registry-parameterized matrix (tests/stm_conformance_test,
// tests/stm_semantics_test, tests/monitor_tap_test) and surfaces in
// `duo_check --list-stms`.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stm/api.hpp"

namespace duo::stm {

/// Where writes land before commit: in a private redo log (deferred) or in
/// shared memory at encounter time (direct).
enum class UpdatePolicy : std::uint8_t { kDeferred, kDirect };

std::string to_string(UpdatePolicy p);

/// Declared safety expectation for recorded histories — what the
/// registry-parameterized matrix enforces, and what CI fails on when a
/// backend's verdict drifts.
enum class DuExpectation : std::uint8_t {
  /// Recordings must never be judged non-du-opaque (yes or budget-bound
  /// unknown only).
  kDuOpaque,
  /// Violations must exist and be caught: the deterministic staged rounds
  /// yield a history flagged by check_du_opacity, OnlineMonitor::feed and
  /// the CheckerPool.
  kNotDuOpaque,
};

std::string to_string(DuExpectation e);

struct BackendInfo {
  std::string name;     // registry key, e.g. "tl2", "2pl-undo"
  std::string summary;  // one-line description
  UpdatePolicy update_policy = UpdatePolicy::kDeferred;
  /// Mirrors Stm::rolls_back_aborted_writes() of the instances.
  bool rolls_back_aborted_writes = true;
  DuExpectation expected = DuExpectation::kDuOpaque;
  /// True for the deliberately broken variants (fault injection); the
  /// safety matrix must catch them.
  bool fault_injected = false;
  std::vector<std::string> aliases;
};

/// All registered backends, in registration order.
const std::vector<BackendInfo>& registered_backends();

/// Lookup by name or alias (exact match); nullptr when unknown.
const BackendInfo* find_backend(std::string_view name);

/// Instantiate a backend by registry name or alias over `num_objects`
/// t-objects, recording into `recorder` when non-null. Returns nullptr for
/// unknown names; otherwise the instance's name() and capabilities match
/// the BackendInfo.
std::unique_ptr<Stm> make_stm(std::string_view name, ObjId num_objects,
                              Recorder* recorder = nullptr);

/// Comma-separated registry names, for usage strings and error messages.
std::string registered_names();

/// The backend's name as a C identifier ('-' becomes '_') — GTest
/// parameterized-suite suffixes allow only [A-Za-z0-9_], and every
/// registry-parameterized test suite needs this same mapping.
std::string test_identifier(const BackendInfo& info);

}  // namespace duo::stm

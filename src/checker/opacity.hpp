// Opacity (Definition 5, [8]): every finite prefix must be final-state
// opaque. Two implementations:
//
//   - check_opacity_naive: final-state check on every event prefix;
//   - check_opacity: exploits two theorems of the paper. DU-opacity is
//     prefix-closed (Corollary 2) and implies opacity (Theorem 10), so the
//     set of du-opaque prefixes is downward-closed: binary-search its
//     maximum, then run per-prefix final-state checks only beyond it.
//
// The fast path is an *algorithmic consequence of the paper's results*;
// check_opacity_naive is kept as the reference it is compared against, and
// tests cross-check both implementations on random histories.
#pragma once

#include "checker/criteria.hpp"

namespace duo::checker {

struct OpacityResult {
  Verdict verdict = Verdict::kUnknown;
  /// Event-prefix length of the shortest non-final-state-opaque prefix
  /// (meaningful when verdict == kNo).
  std::optional<std::size_t> first_bad_prefix;
  /// Aggregate search nodes across all prefix checks.
  std::uint64_t total_nodes = 0;
  /// Number of final-state prefix searches actually executed.
  std::size_t prefix_searches = 0;

  bool yes() const noexcept { return verdict == Verdict::kYes; }
  bool no() const noexcept { return verdict == Verdict::kNo; }
};

/// Engine note: both implementations keep their exact per-prefix semantics
/// (including first_bad_prefix); opts.engine routes the *inner* du-opacity /
/// final-state sub-checks, so unique-writes prefixes are decided by the
/// polynomial graph engine while the scan structure stays unchanged. The
/// whole-history graph shortcut for opacity (Theorem 11) lives in
/// GraphEngine and is taken by check_with_engine(h, Criterion::kOpacity).
OpacityResult check_opacity(const History& h, const CheckOptions& opts = {});
OpacityResult check_opacity_naive(const History& h,
                                  const CheckOptions& opts = {});

}  // namespace duo::checker

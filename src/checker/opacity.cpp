#include "checker/opacity.hpp"

#include "checker/engine.hpp"

namespace duo::checker {

namespace {

/// Final-state check of the prefix of length n; folds stats into `out`.
Verdict prefix_fso(const History& h, std::size_t n, const CheckOptions& opts,
                   OpacityResult& out) {
  const CheckResult r =
      check_with_engine(h.prefix(n), Criterion::kFinalStateOpacity, opts);
  out.total_nodes += r.stats.nodes;
  ++out.prefix_searches;
  return r.verdict;
}

}  // namespace

OpacityResult check_opacity_naive(const History& h,
                                  const CheckOptions& opts) {
  OpacityResult out;
  for (std::size_t n = 0; n <= h.size(); ++n) {
    const Verdict v = prefix_fso(h, n, opts, out);
    if (v == Verdict::kUnknown) {
      out.verdict = Verdict::kUnknown;
      return out;
    }
    if (v == Verdict::kNo) {
      out.verdict = Verdict::kNo;
      out.first_bad_prefix = n;
      return out;
    }
  }
  out.verdict = Verdict::kYes;
  return out;
}

OpacityResult check_opacity(const History& h, const CheckOptions& opts) {
  OpacityResult out;

  // Find the longest du-opaque prefix by binary search: du-opacity is
  // prefix-closed (Corollary 2), so du-opaque prefixes form a downward-
  // closed set of lengths; every prefix of a du-opaque prefix is final-state
  // opaque (Theorem 10 + Corollary 2).
  std::size_t lo = 0;  // known du-opaque prefix length (empty history is)
  std::size_t hi = h.size() + 1;  // first length NOT known du-opaque
  bool du_unknown = false;
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const CheckResult r = check_du_opacity(h.prefix(mid), opts);
    out.total_nodes += r.stats.nodes;
    if (r.verdict == Verdict::kUnknown) {
      du_unknown = true;
      break;
    }
    if (r.yes())
      lo = mid;
    else
      hi = mid;
  }
  if (du_unknown) {
    // Fall back to the naive scan; budget exhaustion there reports kUnknown.
    OpacityResult naive = check_opacity_naive(h, opts);
    naive.total_nodes += out.total_nodes;
    naive.prefix_searches += out.prefix_searches;
    return naive;
  }

  // Prefixes of length 0..lo are final-state opaque via du-opacity of the
  // length-lo prefix. Check the remaining lengths directly.
  for (std::size_t n = lo + 1; n <= h.size(); ++n) {
    const Verdict v = prefix_fso(h, n, opts, out);
    if (v == Verdict::kUnknown) {
      out.verdict = Verdict::kUnknown;
      return out;
    }
    if (v == Verdict::kNo) {
      out.verdict = Verdict::kNo;
      out.first_bad_prefix = n;
      return out;
    }
  }
  out.verdict = Verdict::kYes;
  return out;
}

}  // namespace duo::checker

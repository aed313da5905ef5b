// Zipfian distribution sampler for contention-skewed workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace duo::util {

/// Samples ranks in [0, n) with probability proportional to 1/(rank+1)^theta.
/// theta == 0 degenerates to the uniform distribution. Uses a precomputed
/// cumulative table with binary search: O(n) memory, O(log n) per sample,
/// which is plenty for the workload sizes used in tests and perfbench.
class Zipf {
 public:
  Zipf(std::size_t n, double theta);

  std::size_t operator()(Xoshiro256& rng) const;

  std::size_t size() const noexcept { return cdf_.size(); }
  double theta() const noexcept { return theta_; }

 private:
  std::vector<double> cdf_;
  double theta_;
};

}  // namespace duo::util

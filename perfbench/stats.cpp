#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace tfo::perfbench {

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double slice_floor(const std::vector<std::vector<double>>& passes) {
  std::vector<double> fastest = passes.front();
  for (const std::vector<double>& pass : passes) {
    if (pass.size() != fastest.size()) continue;  // failed the repeat check
    for (std::size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], pass[k]);
    }
  }
  double sum = 0;
  for (double t : fastest) sum += t;
  return sum;
}

std::optional<Tail> tail(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n <= kTailBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  // Candidate: the value with exactly kTailBeyond samples after it. Ties
  // with the first of those samples would leave fewer than kTailBeyond
  // strictly above, so step down to the next smaller distinct value.
  const double first_beyond = v[n - kTailBeyond];
  auto it = std::lower_bound(v.begin(), v.end(), first_beyond);
  if (it == v.begin()) return std::nullopt;
  const double value = *(it - 1);
  const std::size_t at_or_below = static_cast<std::size_t>(it - v.begin());
  return Tail{value, 100.0 * static_cast<double>(at_or_below) / static_cast<double>(n), n};
}

}  // namespace tfo::perfbench

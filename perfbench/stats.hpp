// The benchmark's own arithmetic: percentiles, the tail rule, medians of
// repeated runs and the failed-operation tally. Kept free of simulator
// types so selfcheck.cpp can pin it down with hand-computed cases.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace tfo::perfbench {

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double p);

/// Median of repeated measurements (mean of the middle two for an even
/// count), as Python's statistics.median computes it.
double median(std::vector<double> v);

/// The floor of a repeated measured phase. Each pass is a list of slice
/// times where slice k of every pass covers the same work; the floor sums,
/// slice by slice, the fastest time of that slice over the passes.
/// Slowdowns that come and go on a shared machine hit different slices in
/// different passes and drop out. Passes whose slice count differs from
/// the first one's did not repeat it and are skipped.
double slice_floor(const std::vector<std::vector<double>>& passes);

/// The tail of a sample: the highest value that still has at least
/// kTailBeyond samples strictly above it. `percentile` is the share of
/// samples at or below that value; `n` is the sample count.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t n = 0;
};
constexpr std::size_t kTailBeyond = 10;
/// nullopt when no value has kTailBeyond samples above it (n <= 10, or
/// ties at the top).
std::optional<Tail> tail(std::vector<double> v);

/// Failed operations against attempted operations. An operation is one
/// connection, one request/response exchange or one verified stream
/// chunk; each failed oracle adds one failed operation on top.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t ops, std::uint64_t failures) {
    attempted += ops;
    failed += failures;
  }
  /// An oracle violation: counted as failed, never as attempted (it is a
  /// failure of operations already counted).
  void fail(std::uint64_t n = 1) { failed += n; }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
  /// failed / attempted; 1 when nothing was attempted (a run that did no
  /// work is a failed run).
  double ratio() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

}  // namespace tfo::perfbench

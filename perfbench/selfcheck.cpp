#include "selfcheck.hpp"

#include <cmath>
#include <cstdio>

#include "stats.hpp"
#include "tracer.hpp"

namespace tfo::perfbench {
namespace {

class Checker {
 public:
  void expect(bool cond, const std::string& what) {
    if (!cond) failures_.push_back(what);
  }
  void near(double got, double want, const std::string& what) {
    if (std::fabs(got - want) > 1e-9 * (1 + std::fabs(want))) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " (got %.9g, want %.9g)", got, want);
      failures_.push_back(what + buf);
    }
  }
  std::vector<std::string> take() { return std::move(failures_); }

 private:
  std::vector<std::string> failures_;
};

std::vector<double> range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

void check_tail(Checker& c) {
  // 1..100: 90 is the highest value with ten samples (91..100) above it.
  auto t = tail(range(1, 100));
  c.expect(t.has_value(), "tail of 100 samples exists");
  if (t) {
    c.near(t->value, 90, "tail of 1..100");
    c.near(t->percentile, 90, "tail percentile of 1..100");
    c.expect(t->n == 100, "tail sample count of 1..100");
  }
  // Input order must not matter.
  std::vector<double> rev = range(1, 100);
  std::vector<double> shuffled;
  for (std::size_t i = 0; i < rev.size(); ++i) shuffled.push_back(rev[(i * 37) % rev.size()]);
  auto ts = tail(shuffled);
  c.expect(ts && ts->value == 90, "tail independent of sample order");
  // Exactly eleven samples: the smallest one has ten above it.
  t = tail(range(1, 11));
  c.expect(t && t->value == 1 && std::fabs(t->percentile - 100.0 / 11) < 1e-9,
           "tail of 11 samples is the minimum at p9.1");
  // Ten samples cannot have a tail.
  c.expect(!tail(range(1, 10)).has_value(), "no tail with 10 samples");
  // Ties: 1..20 then five 21s and five 22s. The candidate 21 has only
  // five samples strictly above, so the tail steps down to 20 (ten above).
  std::vector<double> ties = range(1, 20);
  for (int i = 0; i < 5; ++i) ties.push_back(21);
  for (int i = 0; i < 5; ++i) ties.push_back(22);
  t = tail(ties);
  c.expect(t && t->value == 20, "tail steps below a tie at the boundary");
  if (t) c.near(t->percentile, 20.0 * 100 / 30, "tail percentile below a tie");
  // Ties at the top with nothing below them: no tail.
  c.expect(!tail(std::vector<double>(30, 5.0)).has_value(), "no tail when all samples tie");
  // Nearest-rank p50 and the repeated-run median.
  c.near(percentile(range(1, 10), 50), 5, "p50 of 1..10 (nearest rank)");
  c.near(percentile(range(1, 11), 50), 6, "p50 of 1..11 (nearest rank)");
  c.near(median({3, 1, 2}), 2, "median of three");
  c.near(median({4, 1, 3, 2}), 2.5, "median of four");
}

void check_self_time(Checker& c) {
  using L = Layer;
  // Root step [0,100] with children:
  //   A [10,40] (ip.rx) containing grandchild G [15,20] (harness),
  //   B [30,60] (core) overlapping A,
  //   C [90,120] (harness) running past its parent's end.
  std::vector<Span> spans = {
      {0, 100, -1, L::kSimStep},          // 0
      {10, 40, 0, L::kIpRxClient},        // 1
      {15, 20, 1, L::kHarness},           // 2
      {30, 60, 0, L::kCorePrimary},       // 3
      {90, 120, 0, L::kHarness},          // 4
      {200, 210, -1, L::kSimStep},        // 5: a step with no children
  };
  const LayerTotals t = reduce(spans);
  // Step self: 100 - |[10,60] u [90,100]| = 100 - 60 = 40, plus 10 for
  // the childless step.
  c.near(t.self(L::kSimStep), 50, "self time of overlapping children");
  c.near(t.incl(L::kSimStep), 110, "inclusive step time");
  c.near(t.silent_step_ns, 10, "silent steps are the childless ones");
  c.near(t.self(L::kIpRxClient), 25, "nested grandchild subtracted once");
  c.near(t.self(L::kCorePrimary), 30, "leaf self time");
  c.near(t.incl(L::kHarness), 35, "harness inclusive");
  c.expect(t.count(L::kHarness) == 2, "span count per layer");

  // The recorder: a marker-bounded span ends at the next event, and end()
  // closes what is still open inside the span.
  Tracer tr;
  const auto step = tr.begin(L::kSimStep);
  tr.open_leaf(L::kCorePrimary);
  const auto rx = tr.begin(L::kIpRxPrimary);  // closes the leaf
  tr.open_leaf(L::kCoreSecondary);
  tr.end(step);  // closes the leaf and rx
  tr.end(rx);    // already closed: no effect
  const auto& s = tr.spans();
  c.expect(s.size() == 4, "recorder span count");
  if (s.size() == 4) {
    c.expect(s[1].end == s[2].start, "leaf ends where the next span begins");
    c.expect(s[1].parent == 0 && s[2].parent == 0 && s[3].parent == 2, "recorder parents");
    c.expect(s[3].end <= s[2].end && s[2].end <= s[0].end, "closing order");
  }
}

void check_slice_floor(Checker& c) {
  // Three passes of three slices; a slowdown hits a different slice in
  // each pass, so the floor is the unslowed 1 + 2 + 3.
  c.near(slice_floor({{1, 2, 9}, {1, 7, 3}, {5, 2, 3}}), 6, "slice floor drops slowdowns");
  c.near(slice_floor({{1.5, 2.5}}), 4, "slice floor of one pass is its sum");
  // A slowdown on every pass of a slice stays in the floor.
  c.near(slice_floor({{1, 4}, {2, 5}}), 5, "slice floor keeps a slowdown seen in every pass");
}

void check_tally(Checker& c) {
  Tally t;
  c.near(t.ratio(), 1, "a run that attempted nothing counts as failed");
  t.add(4, 0);    // connections
  t.add(96, 2);   // requests
  c.near(t.ratio(), 2.0 / 100, "failed_ratio base is all operations");
  t.fail();       // an oracle on top
  c.expect(t.attempted == 100 && t.failed == 3, "an oracle adds a failure, not an attempt");
  Tally sum;
  sum += t;
  sum += t;
  c.expect(sum.attempted == 200 && sum.failed == 6, "tallies add across instances");
}

}  // namespace

std::vector<std::string> self_check() {
  Checker c;
  check_tail(c);
  check_slice_floor(c);
  check_self_time(c);
  check_tally(c);
  return c.take();
}

}  // namespace tfo::perfbench

// The repository benchmark. One run measures one workload for a fixed
// wall-clock budget, checks every client-visible output, and prints its
// metrics by name and unit. The last line of standard output is a JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   tfo_perfbench --workload stream|churn|storm --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1
// alternates untraced and traced passes, checks that every pass repeats
// the first untraced one's simulated outputs exactly, and reports the
// per-layer metrics. Exit code 0 only when every oracle held.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "selfcheck.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace tfo::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      o.seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      o.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Metrics in print order: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::string note = {}) {
    std::printf("  %-34s %16.6f %-9s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// The p50 and tail pair of a sample, in ms; false (and a failure line)
  /// when the sample is too small to have a tail.
  bool add_timing(const std::string& stem, const std::vector<double>& ns) {
    const auto t = tail(ns);
    if (!t) {
      std::printf("  %s: %zu samples, too few for a tail\n", stem.c_str(), ns.size());
      return false;
    }
    add(stem + "_p50_ms", percentile(ns, 50) / 1e6, "ms", "(" + std::to_string(ns.size()) + " samples)");
    char note[64];
    std::snprintf(note, sizeof(note), "(p%.2f of %zu samples)", t->percentile, t->n);
    add(stem + "_tail_ms", t->value / 1e6, "ms", note);
    return true;
  }
  /// A run that is not correct reports at least one failed operation, even
  /// when its only failure was in a later pass or in the report itself.
  void print_json(bool correct, Tally tally) const {
    if (!correct && tally.failed == 0) tally.fail();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), v, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The wall_s figure of a set of passes: the floor of their slices.
double wall_floor(const std::vector<InstanceResult>& passes) {
  std::vector<std::vector<double>> slices;
  for (const InstanceResult& p : passes) slices.push_back(p.slice_s);
  return slice_floor(slices);
}

std::vector<double> pick(const std::vector<InstanceResult>& passes,
                         double (*field)(const InstanceResult&)) {
  std::vector<double> v;
  for (const InstanceResult& p : passes) v.push_back(field(p));
  return v;
}

/// Collects a pass's oracle failures and failed operations and, given a
/// reference pass, checks that the simulated outputs repeat it exactly.
bool check_pass(const InstanceResult& pass, const InstanceResult* reference,
                const std::string& label, std::vector<std::string>& problems) {
  for (const std::string& f : pass.failures) problems.push_back(label + ": " + f);
  if (pass.tally.failed != 0) {
    problems.push_back(label + ": " + std::to_string(pass.tally.failed) + " of " +
                       std::to_string(pass.tally.attempted) + " operations failed");
  }
  const std::string diff = reference ? first_difference(*reference, pass) : std::string();
  if (!diff.empty()) problems.push_back(label + " differs from the reference in " + diff);
  return pass.failures.empty() && pass.tally.failed == 0 && diff.empty();
}

InstanceResult run_pass(Workload& wl, bool traced, std::vector<double>& setups) {
  std::vector<InstanceResult> instances;
  for (int i = 0; i < wl.instances(); ++i) {
    if (!traced) {
      instances.push_back(wl.run(i, nullptr));
    } else {
      Tracer tracer;
      instances.push_back(wl.run(i, &tracer));
      instances.back().layers = reduce(tracer.spans());
    }
    setups.push_back(instances.back().setup_s);
  }
  return combine(instances);
}

int report_end_to_end(const std::vector<InstanceResult>& passes,
                      const std::vector<double>& setups, bool ok) {
  const InstanceResult& p = passes.front();
  Report rep;
  rep.add("wall_s", wall_floor(passes), "s",
          "(" + std::to_string(p.slice_s.size()) + " slices, each the fastest of " +
              std::to_string(passes.size()) + " passes)");
  rep.add("setup_s", median(setups), "s",
          "(median of " + std::to_string(setups.size()) + " set-ups)");
  rep.add("heap_peak_mb", median(p.heap_peak_bytes) / (1 << 20), "MB",
          "(median of " + std::to_string(p.heap_peak_bytes.size()) + " instances)");
  ok &= rep.add_timing("stall", p.stall_ns);
  rep.add("upload_mbps", ratio(static_cast<double>(p.upload_bytes) * 8 / 1e6, p.window_s),
          "Mb/s");
  rep.add("download_mbps",
          ratio(static_cast<double>(p.download_bytes) * 8 / 1e6, p.window_s), "Mb/s");
  ok &= rep.add_timing("latency", p.latency_ns);
  ok &= rep.add_timing("connect", p.connect_ns);
  std::printf("  failed_ratio = %llu failed / %llu attempted operations = %g\n",
              static_cast<unsigned long long>(p.tally.failed),
              static_cast<unsigned long long>(p.tally.attempted), p.tally.ratio());
  rep.print_json(ok, p.tally);
  return ok ? 0 : 1;
}

int report_per_layer(const std::vector<InstanceResult>& untraced,
                     const std::vector<InstanceResult>& traced, bool ok) {
  const InstanceResult& p = traced.front();
  using Field = double (*)(const InstanceResult&);
  const auto med = [](const std::vector<InstanceResult>& passes, Field f) {
    return median(pick(passes, f));
  };
  const auto layer_med = [&](Layer l, bool self) {
    std::vector<double> v;
    for (const InstanceResult& r : traced) v.push_back(self ? r.layers.self(l) : r.layers.incl(l));
    return median(v);
  };
  const auto c = [&](const char* name) {
    auto it = p.counters.find(name);
    return it == p.counters.end() ? 0.0 : it->second;
  };
  Report rep;
  rep.add("sim.events_fired", c("sim.events_fired"), "count");
  rep.add("sim.events_scheduled", c("sim.events_scheduled"), "count");
  rep.add("sim.events_cancelled", c("sim.events_cancelled"), "count");
  rep.add("sim.cancel_ratio", ratio(c("sim.events_cancelled"), c("sim.events_scheduled")),
          "ratio");
  rep.add("sim.cascades", c("sim.cascades"), "count");
  rep.add("sim.heap_inserts", c("sim.heap_inserts"), "count");
  rep.add("sim.pool_events_peak", c("sim.pool_events_peak"), "count");
  rep.add("sim.step_ns", layer_med(Layer::kSimStep, false), "ns", "(inclusive)");
  rep.add("sim.ns_per_event", ratio(layer_med(Layer::kSimStep, true), c("sim.events_fired")),
          "ns/event", "(self)");
  rep.add("sim.silent_ns",
          med(traced, [](const InstanceResult& r) { return r.layers.silent_step_ns; }), "ns",
          "(steps reaching no boundary)");

  for (const char* h : {"client", "primary", "secondary"}) {
    rep.add(std::string("net.frames_rx.") + h, c((std::string("net.frames_rx.") + h).c_str()),
            "count");
  }
  rep.add("net.frames_batched", c("net.frames_batched"), "count");
  rep.add("net.gro_coalesced", c("net.gro_coalesced"), "count");
  rep.add("net.gro_ratio", ratio(c("net.gro_coalesced"), c("net.gro_frames_in")), "ratio");

  const double segs = c("tcp.segments_sent");
  rep.add("wire.buffers_per_seg", ratio(c("wire.buffers"), segs), "1/seg");
  rep.add("wire.copies_per_seg", ratio(c("wire.copies"), segs), "1/seg");
  rep.add("wire.bytes_copied_per_seg", ratio(c("wire.bytes_copied"), segs), "B/seg");
  rep.add("wire.shares_per_seg", ratio(c("wire.shares"), segs), "1/seg");

  const std::pair<const char*, Layer> rx[] = {{"client", Layer::kIpRxClient},
                                              {"primary", Layer::kIpRxPrimary},
                                              {"secondary", Layer::kIpRxSecondary}};
  for (const auto& [h, l] : rx) {
    const double frames = static_cast<double>(p.layers.count(l));
    rep.add(std::string("ip.rx_ns.") + h, ratio(layer_med(l, false), frames), "ns/frame");
  }
  for (const auto& [h, l] : rx) {
    const double frames = static_cast<double>(p.layers.count(l));
    rep.add(std::string("ip.rx_self_ns.") + h, ratio(layer_med(l, true), frames), "ns/frame");
  }

  rep.add("core.primary.ns", layer_med(Layer::kCorePrimary, false), "ns");
  rep.add("core.secondary.ns", layer_med(Layer::kCoreSecondary, false), "ns");
  for (const char* name : {"bridge.merged_segments", "bridge.empty_acks_emitted",
                           "bridge.retransmissions_forwarded",
                           "secondary.datagrams_translated", "secondary.segments_diverted",
                           "bridge.connections_peak", "bridge.tombstones_peak",
                           "bridge.embryonic_reaped", "bridge.pqueue_depth_peak"}) {
    rep.add(name, c(name), "count");
  }

  rep.add("tcp.segments_sent", segs, "count");
  rep.add("tcp.segments_received", c("tcp.segments_received"), "count");
  rep.add("tcp.listen_overflows", c("tcp.listen_overflows"), "count");
  rep.add("tcp.overflow_ratio",
          ratio(c("tcp.listen_overflows"),
                c("tcp.listen_overflows") + c("tcp.connections_accepted")),
          "ratio");
  rep.add("tcp.time_wait_recycled", c("tcp.time_wait_recycled"), "count");
  rep.add("tcp.connections_peak", c("tcp.connections_peak"), "count");
  rep.add("tcp.client_send_ns", layer_med(Layer::kTcpClientSend, false), "ns");

  rep.add("takeover.detect_ms", p.detect_ms.empty() ? 0 : median(p.detect_ms), "ms");
  rep.add("takeover.complete_ms", p.complete_ms.empty() ? 0 : median(p.complete_ms), "ms");
  rep.add("dead.primary_segments_sent", c("dead.primary_segments_sent"), "count");
  rep.add("dead.primary_heartbeats_sent", c("dead.primary_heartbeats_sent"), "count");

  const double traced_wall = wall_floor(traced);
  // The wall-clock split comes from the untraced passes.
  rep.add("phase.ramp_s", med(untraced, [](const InstanceResult& r) { return r.ramp_s; }), "s");
  rep.add("phase.takeover_s",
          med(untraced, [](const InstanceResult& r) { return r.takeover_s; }), "s");
  const double harness_ns = layer_med(Layer::kHarness, true);
  rep.add("harness.ns", harness_ns, "ns", "(self)");
  rep.add("harness.share", ratio(harness_ns, traced_wall * 1e9), "ratio");
  rep.add("trace.overhead_s", traced_wall - wall_floor(untraced), "s",
          "(traced minus untraced wall_s)");
  double spans = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) spans += static_cast<double>(p.layers.spans[i]);
  rep.add("trace.spans", spans, "count");
  std::printf("  failed_ratio = %llu failed / %llu attempted operations = %g\n",
              static_cast<unsigned long long>(p.tally.failed),
              static_cast<unsigned long long>(p.tally.attempted), p.tally.ratio());
  rep.print_json(ok, p.tally);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tfo::perfbench

int main(int argc, char** argv) {
  using namespace tfo::perfbench;
  // One process, one thread: the lane override must not fan the data path
  // out to worker threads.
  unsetenv("TFO_LANES");

  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload stream|churn|storm --seed N --seconds S "
                 "--trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const std::vector<std::string> self = self_check();
  for (const std::string& f : self) std::fprintf(stderr, "self-check failed: %s\n", f.c_str());
  if (!self.empty()) return 3;

  auto wl = make_workload(opt.workload, opt.seed);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %d s, trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace);
  std::fflush(stdout);

  const auto t0 = Clock::now();
  std::vector<std::string> problems;
  std::vector<double> setups;
  bool ok = true;
  int code = 0;
  if (opt.trace == 0) {
    std::vector<InstanceResult> passes;
    double last = 0;
    do {
      const auto p0 = Clock::now();
      passes.push_back(run_pass(*wl, false, setups));
      ok &= check_pass(passes.back(), passes.size() > 1 ? &passes.front() : nullptr,
                       "pass " + std::to_string(passes.size()), problems);
      last = elapsed_s(p0);
      // No pass starts that would end past the budget.
    } while (ok && elapsed_s(t0) + last < opt.seconds);
    std::printf("%zu passes x %d instances in %.2f s; measured wall per pass:",
                passes.size(), wl->instances(), elapsed_s(t0));
    for (const InstanceResult& p : passes) std::printf(" %.4f", p.measure_s);
    std::printf("\n");
    for (const std::string& p : problems) std::printf("  FAILED: %s\n", p.c_str());
    code = report_end_to_end(passes, setups, ok);
  } else {
    // Untraced and traced passes alternate, so both see the same machine
    // conditions; every pass must repeat the first untraced one exactly.
    std::vector<InstanceResult> untraced, traced;
    double last = 0;
    do {
      const auto p0 = Clock::now();
      untraced.push_back(run_pass(*wl, false, setups));
      ok &= check_pass(untraced.back(), untraced.size() > 1 ? &untraced.front() : nullptr,
                       "untraced pass " + std::to_string(untraced.size()), problems);
      if (!ok) break;
      traced.push_back(run_pass(*wl, true, setups));
      ok &= check_pass(traced.back(), &untraced.front(),
                       "traced pass " + std::to_string(traced.size()), problems);
      last = elapsed_s(p0);
    } while (ok && elapsed_s(t0) + last < opt.seconds);
    std::printf("%zu untraced + %zu traced passes x %d instances in %.2f s\n",
                untraced.size(), traced.size(), wl->instances(), elapsed_s(t0));
    for (const std::string& p : problems) std::printf("  FAILED: %s\n", p.c_str());
    if (traced.empty()) traced.push_back(untraced.front());
    code = report_per_layer(untraced, traced, ok);
  }
  return code;
}

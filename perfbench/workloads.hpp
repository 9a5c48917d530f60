// The benchmark's workloads. Each builds a fresh replicated-server
// scenario per instance, drives it through a primary crash, checks every
// client-visible output and returns what it measured.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace tfo::perfbench {

/// One scenario instance: set up, measured, checked.
struct InstanceResult {
  // Wall clock (seconds).
  double setup_s = 0;     // topology, replica group, detectors and ARP settle
  double measure_s = 0;   // the measured phase
  double ramp_s = 0;      // measured phase before the crash
  double takeover_s = 0;  // measured phase from the crash on
  /// The measured phase cut into slices of kSliceSteps simulator steps,
  /// in order. Simulated runs repeat exactly, so slice k of every pass
  /// covers the same work.
  std::vector<double> slice_s;
  /// Peak live heap above the instance's start, one per instance.
  std::vector<double> heap_peak_bytes;

  // Simulated outputs: identical for a given seed, binary and instance.
  std::vector<double> stall_ns;    // per connection open at the crash
  std::vector<double> latency_ns;  // per request
  std::vector<double> connect_ns;  // per connection
  std::vector<double> detect_ms;   // crash -> peer_declared_failed
  std::vector<double> complete_ms; // crash -> takeover_complete
  std::uint64_t upload_bytes = 0;  // client payload in the counting window
  std::uint64_t download_bytes = 0;
  double window_s = 0;             // simulated length of that window
  /// Per-layer counters; names ending in "_peak" combine by max, the
  /// rest by sum.
  std::map<std::string, double> counters;
  Tally tally;
  std::vector<std::string> failures;  // oracle violations, human readable

  LayerTotals layers;  // traced instances only
};

/// Simulator steps per wall-clock slice of the measured phase.
constexpr std::uint64_t kSliceSteps = 4096;

/// Instances of one pass combined: sums, maxima and pooled samples.
InstanceResult combine(const std::vector<InstanceResult>& pass);

/// Returns an empty string when both passes produced identical simulated
/// outputs, else the name of the first output that differs.
std::string first_difference(const InstanceResult& a, const InstanceResult& b);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Instances per pass (a pass is the unit that repeats until time is up).
  virtual int instances() const = 0;
  /// Runs instance `index`; `tracer` is null in the untraced run.
  virtual InstanceResult run(int index, Tracer* tracer) = 0;
};

/// Builds a workload's inputs from the seed (payload patterns and expected
/// replies included); nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

}  // namespace tfo::perfbench

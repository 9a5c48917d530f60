// In-memory span tracing for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into the simulator (and from passive markers it registers), never
// from inside the library. Every span has a layer, a start, an end and the
// span that was open when it began (its parent). Reduction into per-layer
// inclusive and self time happens after the run; self time is a span's
// duration minus the part of it that its child spans cover.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace tfo::perfbench {

enum class Layer : std::uint8_t {
  kSimStep,         // one Simulator::step(): the root of all simulated work
  kIpRxClient,      // a NIC rx dispatch into ARP/IP, per host
  kIpRxPrimary,
  kIpRxSecondary,
  kCorePrimary,     // the primary bridge's taps (marker-bounded)
  kCoreSecondary,   // the secondary bridge's hook and tap (marker-bounded)
  kTcpClientSend,   // Connection::send() on the client
  kHarness,         // the benchmark's own callbacks and predicates
  kCount,
};
constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

struct Span {
  std::int64_t start = 0;  // steady-clock ns
  std::int64_t end = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for roots
  Layer layer = Layer::kSimStep;
};

struct LayerTotals {
  std::array<double, kLayerCount> inclusive_ns{};
  std::array<double, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> spans{};
  /// Inclusive time of sim steps that opened no child span: timer work
  /// that reaches no observed boundary (bridge sweeps, detector timers).
  double silent_step_ns = 0;

  LayerTotals& operator+=(const LayerTotals& o);
  double incl(Layer l) const { return inclusive_ns[static_cast<std::size_t>(l)]; }
  double self(Layer l) const { return self_ns[static_cast<std::size_t>(l)]; }
  std::uint64_t count(Layer l) const { return spans[static_cast<std::size_t>(l)]; }
};

/// Per-layer totals of a closed span list. Children are clipped to their
/// parent's interval and their union is subtracted, so overlapping or
/// nested children are never counted twice.
LayerTotals reduce(const std::vector<Span>& spans);

class Tracer {
 public:
  static std::int64_t now_ns();

  /// Opens a scoped span under the innermost open one; returns its index.
  std::int32_t begin(Layer layer);
  /// Closes span `id` and anything still open inside it.
  void end(std::int32_t id);
  /// Opens a marker-bounded span: it ends at the next tracer event
  /// (begin, end or mark), whichever code runs next.
  void open_leaf(Layer layer);
  /// A boundary with no span of its own: ends the open marker-bounded span.
  void mark();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void close_leaf(std::int64_t t);

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t leaf_ = -1;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, Layer layer) : t_(t), id_(t ? t->begin(layer) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

}  // namespace tfo::perfbench

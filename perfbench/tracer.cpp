#include "tracer.hpp"

#include <algorithm>
#include <chrono>

namespace tfo::perfbench {

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    inclusive_ns[i] += o.inclusive_ns[i];
    self_ns[i] += o.self_ns[i];
    spans[i] += o.spans[i];
  }
  silent_step_ns += o.silent_step_ns;
  return *this;
}

LayerTotals reduce(const std::vector<Span>& spans) {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start, p.start);
    const std::int64_t b = std::min(s.end, p.end);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  LayerTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end - s.start;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    const auto l = static_cast<std::size_t>(s.layer);
    t.inclusive_ns[l] += static_cast<double>(dur);
    t.self_ns[l] += static_cast<double>(dur - covered);
    ++t.spans[l];
    if (s.layer == Layer::kSimStep && iv.empty()) {
      t.silent_step_ns += static_cast<double>(dur);
    }
  }
  return t;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::close_leaf(std::int64_t t) {
  if (leaf_ < 0) return;
  spans_[static_cast<std::size_t>(leaf_)].end = t;
  leaf_ = -1;
}

std::int32_t Tracer::begin(Layer layer) {
  const std::int64_t t = now_ns();
  close_leaf(t);
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({t, t, stack_.empty() ? -1 : stack_.back(), layer});
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  const std::int64_t t = now_ns();
  close_leaf(t);
  // A span already closed by an enclosing end() has nothing left to close.
  if (std::find(stack_.begin(), stack_.end(), id) == stack_.end()) return;
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = t;
    if (top == id) break;
  }
}

void Tracer::open_leaf(Layer layer) {
  const std::int64_t t = now_ns();
  close_leaf(t);
  leaf_ = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({t, t, stack_.empty() ? -1 : stack_.back(), layer});
}

void Tracer::mark() {
  if (leaf_ >= 0) close_leaf(now_ns());
}

}  // namespace tfo::perfbench

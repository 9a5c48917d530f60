// Shared helpers for the test suite.
#pragma once

#include <functional>
#include <utility>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace tfo::test {

/// Runs the simulator until `pred` holds or `timeout` elapses. Returns
/// true if the predicate became true.
inline bool run_until(sim::Simulator& sim, const std::function<bool()>& pred,
                      SimDuration timeout = seconds(60)) {
  const SimTime deadline = sim.now() + static_cast<SimTime>(timeout);
  while (!pred()) {
    if (sim.now() > deadline || sim.pending() == 0) return pred();
    sim.step();
  }
  return true;
}

/// Deterministic pseudo-random payload of length n (seeded by `seed`).
/// Eight interleaved LCG lanes break the serial multiply-add dependency
/// (bulk benches generate tens of MB through here); the output is
/// byte-identical to the scalar recurrence x = x*1664525 + 1013904223.
inline Bytes pattern_bytes(std::size_t n, std::uint32_t seed = 0) {
  constexpr std::uint32_t kA = 1664525u, kC = 1013904223u;
  // f^8 jump constants: f^k(x) = A_k*x + C_k with A_{i+1} = a*A_i,
  // C_{i+1} = a*C_i + c.
  constexpr auto jump = [] {
    std::uint32_t a = 1, c = 0;
    for (int i = 0; i < 8; ++i) {
      a *= kA;
      c = c * kA + kC;
    }
    return std::pair<std::uint32_t, std::uint32_t>{a, c};
  }();
  Bytes b(n);
  std::uint32_t lane[8];
  std::uint32_t x = seed * 2654435761u + 12345u;
  for (auto& l : lane) {
    x = x * kA + kC;
    l = x;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      b[i + j] = static_cast<std::uint8_t>(lane[j] >> 24);
      lane[j] = lane[j] * jump.first + jump.second;
    }
  }
  // Tail (< 8 bytes): one byte from each lane in turn. Iterating the lane
  // array itself keeps the bound visible to the optimizer.
  for (const std::uint32_t l : lane) {
    if (i == n) break;
    b[i++] = static_cast<std::uint8_t>(l >> 24);
  }
  return b;
}

}  // namespace tfo::test

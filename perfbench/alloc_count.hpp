// Process-wide heap accounting for the benchmark binary: every operator
// new/delete goes through a counting allocator, so a scenario's peak live
// heap is measured without touching the simulator library.
#pragma once

#include <cstdint>

namespace tfo::perfbench {

/// Bytes currently allocated through operator new (allocator block sizes).
std::uint64_t live_heap_bytes();
/// High-water mark of live_heap_bytes() since the last reset_heap_peak().
std::uint64_t heap_peak_bytes();
/// Restarts the high-water mark at the current live size.
void reset_heap_peak();

}  // namespace tfo::perfbench

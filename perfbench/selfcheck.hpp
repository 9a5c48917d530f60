// Checks of the benchmark's own arithmetic, run at the start of every
// benchmark run: a run whose percentile, self-time or failure-ratio code
// is wrong reports nothing.
#pragma once

#include <string>
#include <vector>

namespace tfo::perfbench {

/// Returns one message per failed check (empty when all pass).
std::vector<std::string> self_check();

}  // namespace tfo::perfbench

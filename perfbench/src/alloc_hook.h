#pragma once

// Heap-allocation counting for the whole process. alloc_hook.cc replaces
// the global operator new/delete family; the counters are relaxed atomics
// bumped only while counting is on, so the hook costs one relaxed load per
// allocation otherwise. The engine library is not touched.

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  uint64_t calls = 0;  ///< operator new calls
  uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Starts or stops counting. Counters are cumulative; take differences.
void SetCounting(bool on);
Counts Read();

/// Nanoseconds that counting adds to one operator new + delete pair,
/// measured by timing the same loop with counting off and on. Call it
/// outside any counting window: the loop's own allocations are counted.
double HookCostNs();

}  // namespace perfbench::alloc

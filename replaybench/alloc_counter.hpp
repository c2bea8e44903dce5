#pragma once

// Heap-allocation counter for the benchmark's span pass. The replacement
// global operator new lives in alloc_counter.cpp, so it exists only in the
// benchmark binary and never in the toolkit's library.

#include <cstdint>

namespace replaybench::alloc {

struct Counts {
  std::uint64_t count{0};
  std::uint64_t bytes{0};
};

/// Turn counting on or off for every thread. Off (the default) leaves
/// operator new a plain malloc with one relaxed load in front of it, which
/// is how the timed pass runs.
void set_counting(bool on);

/// Running totals of allocations made by the calling thread while
/// counting was on. A load's own allocations are the difference of two
/// reads taken on the thread that runs the load.
Counts thread_counts();

}  // namespace replaybench::alloc

// Heap-allocation counts for the binaries that measure them
// (alloc_budget_test, property_test, bench_datapath).  Linking
// counting_alloc.cpp, the `counting_alloc` object library, replaces the
// global operator new/delete with malloc/free plus a count of calls and
// requested bytes.
#pragma once

#include <cstdint>

namespace snipe {

/// Calls to operator new (every form) so far in this process.
std::uint64_t heap_allocs();
/// Bytes those calls requested.
std::uint64_t heap_bytes();

}  // namespace snipe

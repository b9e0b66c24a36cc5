// Per-run heap accounting for the benchmark binary.
//
// heap_counter.cpp replaces the global operator new/delete of this binary
// (and so of every splice_core allocation it drives) with counting versions
// that track live bytes, a resettable high-water mark and the allocation
// count. A measurement window starts with begin_window(); the peak it
// reports is the highest live-byte level reached since then, above the
// level live when the window began — the memory one Simulation run adds,
// independent of what earlier runs or the harness itself still hold.
#pragma once

#include <cstdint>

namespace perfbench::heap {

struct Window {
  std::int64_t live_at_start = 0;
  std::uint64_t allocs_at_start = 0;
};

/// Reset the high-water mark to the current live bytes and open a window.
[[nodiscard]] Window begin_window() noexcept;

/// Highest live bytes since `window` began, minus the bytes live then.
[[nodiscard]] std::int64_t peak_bytes_since(const Window& window) noexcept;

/// Calls to operator new since `window` began.
[[nodiscard]] std::uint64_t allocs_since(const Window& window) noexcept;

}  // namespace perfbench::heap

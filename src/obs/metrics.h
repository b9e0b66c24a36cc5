// Time-series metrics riding along with the flight recorder.
//
// End-of-run Counters answer "how many"; these answer "when". The registry
// keeps a log-bucket latency histogram (HDR-style: octave + 4 sub-bucket
// bits, ≈ ±3% relative error, fixed 512-slot footprint) plus a per-window
// time series of goodput and gauge samples — event-queue depth, in-flight
// envelopes, checkpoint residency — closed every kSampleInterval ticks by
// the runtime's sampling tick. This is HEAL's framing (ROADMAP): measure
// goodput *during* recovery, not a recovery-latency scalar.
//
// Everything here is plain arithmetic on the sim thread; no locks, no
// allocation after the first window, nothing when the recorder is off.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace splice::obs {

/// Log-bucket histogram over non-negative 64-bit values.
///
/// Bucket index = (octave << kSubBits) | sub-bucket, where octave is the
/// value's bit width past kSubBits and sub-bucket is its next kSubBits
/// significant bits — the classic HDR layout, sized for tick latencies.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr std::size_t kBuckets = (64 - kSubBits) << kSubBits;

  void add(std::uint64_t value) noexcept;

  /// Value at quantile q in [0, 1] (upper bound of the holding bucket, so
  /// percentile error is bounded by the bucket width: ≈ 2^-kSubBits).
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

  void clear() noexcept;
  /// Fold `other` into *this (per-rank journal merge).
  void merge(const LogHistogram& other) noexcept;

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// One closed sampling window of the run.
struct TimePoint {
  std::int64_t window_start = 0;  // ticks; window is [start, start+interval)
  std::uint64_t spawned = 0;      // tasks placed in the window
  std::uint64_t completed = 0;    // tasks completed in the window (goodput)
  std::uint64_t queue_depth = 0;  // sim event-queue depth at window close
  std::uint64_t in_flight = 0;    // network envelopes in flight at close
  std::uint64_t checkpoint_residency = 0;  // live checkpoint entries at close
  std::uint64_t latency_count = 0;         // completions the quantiles cover
  std::uint64_t latency_p50 = 0;           // spawn→complete latency, ticks
  std::uint64_t latency_p99 = 0;
  std::uint64_t latency_p999 = 0;
};

class Metrics {
 public:
  /// Sampling window in ticks: the runtime's sampling tick closes one
  /// window per interval while the recorder is on.
  static constexpr std::int64_t kSampleInterval = 1000;

  /// Event-driven feeds (called from Recorder::record on the matching
  /// kinds, so hook sites stay single calls).
  void on_task_spawn() noexcept { ++window_spawned_; }
  void on_task_complete(std::uint64_t latency_ticks) noexcept {
    ++window_completed_;
    window_latency_.add(latency_ticks);
    run_latency_.add(latency_ticks);
  }

  /// Close the current window at time `now` with the given gauge readings
  /// and start the next one. Called by the runtime's sampling tick.
  void sample(std::int64_t now, std::uint64_t queue_depth,
              std::uint64_t in_flight, std::uint64_t checkpoint_residency);

  [[nodiscard]] const std::vector<TimePoint>& series() const noexcept {
    return series_;
  }
  /// Whole-run spawn→complete latency distribution.
  [[nodiscard]] const LogHistogram& latency() const noexcept {
    return run_latency_;
  }

  void clear();

 private:
  std::vector<TimePoint> series_;
  std::int64_t window_start_ = 0;
  std::uint64_t window_spawned_ = 0;
  std::uint64_t window_completed_ = 0;
  LogHistogram window_latency_;
  LogHistogram run_latency_;
};

}  // namespace splice::obs

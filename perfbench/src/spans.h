// Spans recorded by the benchmark's own code around each call into a layer
// (lang.build, lang.reference, core.twin, net.plan, core.run,
// recovery.verify) and around the harness steps that contain them. Spans
// stay in memory while the benchmark runs and are written out once, as a
// Chrome/Perfetto trace-event file, when it exits. A disabled tracer
// records nothing, so untraced runs pay two branches per span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string_view name;
  /// Seed of the seeded run the span belongs to; all its spans share it.
  std::uint64_t trace_id = 0;
  /// Index of the enclosing span in Tracer::spans(), or -1 for a root.
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string_view name, std::uint64_t trace_id, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, trace_id, parent, now_s(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_s = now_s();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Each span's duration minus the part of it its children cover. Children
  /// of one span run one after another on this thread, so they never
  /// overlap each other.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const double covered =
          std::min(s.end_s, p.end_s) - std::max(s.start_s, p.start_s);
      self[static_cast<std::size_t>(s.parent)] -= std::max(covered, 0.0);
    }
    return self;
  }

  /// Writes every span as a complete ("X") trace event. Returns false when
  /// the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = self_times();
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,"
                   "\"span\":%zu,\"parent\":%d,\"self_us\":%.3f}}\n",
                   i == 0 ? "" : ",", static_cast<int>(s.name.size()),
                   s.name.data(), s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6,
                   static_cast<unsigned long long>(s.trace_id), i, s.parent,
                   self[i] * 1e6);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t trace_id,
             int parent = -1)
      : tracer_(tracer), index_(tracer.open(name, trace_id, parent)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

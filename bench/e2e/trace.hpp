// In-memory span recorder for wrt_bench's traced run.
//
// A span is one call from the benchmark into a layer of the simulator: its
// name ("<layer>.<call>"), start and end, the span that encloses it, and
// the workload run it belongs to.  Spans go into a buffer allocated once
// when tracing is enabled, so recording never allocates; spans beyond the
// capacity are counted, not stored.  A disabled tracer costs one branch per
// span, which is what the untraced (end-to-end) pass pays.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wrt::e2e {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;  ///< string literal, "<layer>.<call>"
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index of the enclosing span, -1 at the top
  std::uint32_t run;    ///< workload run id
};

/// Per-name aggregate over one run's spans.  Self time is a span's
/// duration minus the part its child spans cover.
struct SpanTotals {
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
  std::vector<double> durations_us;
};
using SpanTable = std::map<std::string, SpanTotals>;

class Tracer {
 public:
  /// Starts recording spans under `run`.  The buffer is allocated on the
  /// first call only; later runs append to it.
  void enable(std::uint32_t run, std::size_t capacity) {
    if (spans_.capacity() == 0) spans_.reserve(capacity);
    run_ = run;
    current_ = -1;
    on_ = true;
  }
  void disable() noexcept { on_ = false; }
  [[nodiscard]] bool on() const noexcept { return on_; }

  std::int32_t open(const char* name) {
    if (!on_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, current_, run_});
    current_ = id;
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    SpanRecord& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    current_ = span.parent;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Self time, count and durations per span name, for one run.
  [[nodiscard]] SpanTable totals(std::uint32_t run) const;

  /// Writes every recorded span as Chrome trace_event JSON ("X" events,
  /// one thread per workload run).  Returns false on I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::uint32_t run_ = 0;
  std::uint64_t dropped_ = 0;
  bool on_ = false;
};

/// Records one span for the lifetime of the object.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Sum of self time over the named spans, in nanoseconds.
[[nodiscard]] double self_ns(const SpanTable& table,
                             std::initializer_list<const char*> names);

/// Mean duration of the named span in microseconds (0 when never seen).
[[nodiscard]] double mean_us(const SpanTable& table, const char* name);

}  // namespace wrt::e2e

// Host-time span recorder for the traced run. Spans are recorded by the
// benchmark around each public call it makes into the grid stack (no tracing
// lives inside src/), kept in memory, and written as JSONL at the end.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover; overlapping children are merged first so no instant
// is subtracted twice.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gridbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static string: the layer call, e.g. "grid.submit"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the recorder's span list; -1 = root
  std::uint64_t job = 0;     ///< 0 when the call is not tied to one job
};

class SpanRecorder {
public:
  SpanRecorder() : origin_{Clock::now()} {}

  /// Opens a span whose parent is the innermost open span.
  std::int32_t open(const char* name, std::uint64_t job = 0);
  void close(std::int32_t index);
  void set_job(std::int32_t index, std::uint64_t job) {
    spans_[static_cast<std::size_t>(index)].job = job;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::string to_jsonl() const;

private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null recorder (the untraced run) makes it a no-op.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t job = 0)
      : recorder_{recorder},
        index_{recorder != nullptr ? recorder->open(name, job) : -1} {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_job(std::uint64_t job) {
    if (recorder_ != nullptr) recorder_->set_job(index_, job);
  }

private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Self time (ns) of every span, in recorder order.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per span name: number of spans, total duration and total self time.
struct SpanTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<std::int64_t> durations_ns;
};
[[nodiscard]] std::map<std::string, SpanTotals> reduce_by_name(
    const std::vector<Span>& spans);

}  // namespace gridbench

#include "spans.hpp"

#include <algorithm>

namespace gridbench {

std::int32_t SpanRecorder::open(const char* name, std::uint64_t job) {
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  // ScopedSpan closes strictly innermost-first, so `index` is open_.back().
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::string SpanRecorder::to_jsonl() const {
  std::string out;
  out.reserve(spans_.size() * 80);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"job\":" + std::to_string(s.job) + "}\n";
  }
  return out;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      // Only the part of a child inside its parent's interval counts.
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool in_run = false;
    for (const auto& [lo, hi] : covered) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) union_ns += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, SpanTotals> reduce_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++t.count;
    t.total_ns += duration;
    t.self_ns += self[i];
    t.durations_ns.push_back(duration);
  }
  return totals;
}

}  // namespace gridbench

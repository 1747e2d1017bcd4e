// Output buffering with the paper's three flush triggers (Section 4):
//   1. the buffer fills,
//   2. a timeout elapses since the first unflushed byte,
//   3. an end-of-line arrives.
// Used on each executing machine (per-subjob output buffer) and on the
// submitting machine (Job Shadow buffer flushed to the screen).
//
// The buffer writes directly into pooled chunks (see chunk.hpp): append() is
// a single pass over the input — each byte is copied once into the current
// chunk, and at most once more, on slab rollover — and every flush hands out
// a ChunkRef view of the flushed segment instead of a freshly allocated
// string, so the steady-state flush path never touches the heap. Segments
// pack back to back in the current chunk, so a writer holds about one slab
// however many of its flushed lines are still in flight, and none once it
// is idle (nothing buffered, nothing in flight) or closed.
#pragma once

#include <array>
#include <cstring>
#include <string_view>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "stream/chunk.hpp"
#include "util/inplace_function.hpp"

namespace cg::stream {

struct FlushBufferConfig {
  std::size_t capacity = 64 * 1024;
  Duration timeout = Duration::millis(200);
  bool flush_on_newline = true;
  /// Chunk pool backing the buffer's segments (nullptr = ChunkPool::shared()).
  /// Must outlive the buffer and every ChunkRef it flushes. A slab smaller
  /// than `capacity` makes every chunk a one-off oversize allocation.
  ChunkPool* pool = nullptr;
};

/// The pool a buffer with `config` draws from.
[[nodiscard]] inline ChunkPool& pool_of(const FlushBufferConfig& config) {
  return config.pool != nullptr ? *config.pool : ChunkPool::shared();
}

/// Which of the paper's triggers caused a flush (plus the explicit flush()
/// call used on job exit).
enum class FlushReason { kCapacity, kNewline, kTimeout, kExplicit };

[[nodiscard]] const char* to_string(FlushReason reason);

class FlushBuffer {
public:
  using FlushFn = util::InplaceFunction<void(ChunkRef), 48>;

  FlushBuffer(sim::Simulation& sim, FlushBufferConfig config, FlushFn on_flush);
  ~FlushBuffer();
  FlushBuffer(const FlushBuffer&) = delete;
  FlushBuffer& operator=(const FlushBuffer&) = delete;

  /// Appends data, applying the flush policy. A single append may trigger
  /// multiple flushes (e.g. data larger than the capacity).
  void append(std::string_view data);

  /// Forces out any buffered data (job exit, explicit flush).
  void flush();

  /// Flushes, then lets go of the current chunk: it returns to the pool once
  /// the flushed refs still in flight are delivered. A later append() takes
  /// a fresh chunk.
  void close();

  [[nodiscard]] std::size_t buffered() const { return buffered_; }
  [[nodiscard]] std::size_t flush_count() const { return flushes_; }
  /// Flushes attributable to one trigger.
  [[nodiscard]] std::size_t flush_count(FlushReason reason) const {
    return reason_counts_[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] const FlushBufferConfig& config() const { return config_; }

  /// Attaches a metrics registry: every flush increments
  /// "stream.flushes"{reason=...} on top of `labels`. Must outlive the
  /// buffer (or be detached with nullptr).
  void set_metrics(obs::MetricsRegistry* metrics, obs::LabelSet labels = {});

private:
  void ensure_room(std::size_t take);
  void arm_timeout();
  void emit(FlushReason reason);
  void release_chunk();

  sim::Simulation& sim_;
  FlushBufferConfig config_;
  ChunkPool* pool_;  ///< pool_of(config_)
  FlushFn on_flush_;
  /// Current write chunk (one writer reference held; none while idle or
  /// closed) and the open segment:
  /// bytes [seg_start_, seg_start_ + buffered_) are appended-but-unflushed,
  /// and seg_start_ + buffered_ == chunk_->write_pos. A segment never spans
  /// chunks: one that outgrows the room left moves to a fresh chunk.
  detail::ChunkHeader* chunk_ = nullptr;
  std::size_t seg_start_ = 0;
  std::size_t buffered_ = 0;
  std::size_t flushes_ = 0;
  std::array<std::size_t, 4> reason_counts_{};
  sim::ScopedTimer timer_;
  /// One pre-resolved counter handle per FlushReason (inert when detached);
  /// emit() runs on every interactive output line, so it must not rebuild
  /// the reason label per flush.
  std::array<obs::CounterHandle, 4> flush_counters_;
};

}  // namespace cg::stream

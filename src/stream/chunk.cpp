#include "stream/chunk.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

namespace cg::stream {

namespace detail {

void chunk_unref(ChunkHeader* chunk) {
  if (chunk != nullptr && --chunk->refs == 0) chunk->pool->release(chunk);
}

}  // namespace detail

ChunkPool::ChunkPool(std::size_t slab_bytes) : slab_bytes_{slab_bytes} {
  if (slab_bytes_ == 0) {
    throw std::invalid_argument{"ChunkPool: slab_bytes must be > 0"};
  }
  if (slab_bytes_ > UINT32_MAX) {
    throw std::invalid_argument{"ChunkPool: slab_bytes exceeds chunk limit"};
  }
}

ChunkPool::~ChunkPool() {
  // Withdraw this pool's share of every registry's occupancy gauges.
  for (Attachment& attachment : attachments_) withdraw(attachment);
  // Chunks reference the pool; by construction (FlushBuffers and in-flight
  // ChunkRefs are torn down first) everything is back on the free list here.
  for (detail::ChunkHeader* slab : slabs_) ::operator delete(slab);
}

ChunkPool& ChunkPool::shared() {
  static ChunkPool pool;
  return pool;
}

detail::ChunkHeader* ChunkPool::allocate(std::size_t payload_bytes) {
  void* raw = ::operator new(sizeof(detail::ChunkHeader) + payload_bytes);
  return ::new (raw) detail::ChunkHeader{
      this, 1, 0, static_cast<std::uint32_t>(payload_bytes)};
}

detail::ChunkHeader* ChunkPool::acquire(std::size_t min_bytes) {
  detail::ChunkHeader* chunk;
  if (min_bytes <= slab_bytes_) {
    if (!free_.empty()) {
      chunk = free_.back();
      free_.pop_back();
      chunk->refs = 1;
      chunk->write_pos = 0;
    } else {
      chunk = allocate(slab_bytes_);
      slabs_.push_back(chunk);
      // Every slab may be on the free list at once; reserving here keeps
      // release() allocation-free however the in-use count fluctuates.
      free_.reserve(slabs_.size());
      for (Attachment& a : attachments_) a.allocated.add(1.0);
    }
  } else {
    if (min_bytes > UINT32_MAX) {
      throw std::invalid_argument{"ChunkPool: chunk request too large"};
    }
    chunk = allocate(min_bytes);
    ++oversize_;
    for (Attachment& a : attachments_) a.oversize_allocs.inc();
  }
  ++in_use_;
  high_water_ = std::max(high_water_, in_use_);
  publish_in_use(1.0);
  return chunk;
}

void ChunkPool::publish_in_use(double delta) {
  for (Attachment& a : attachments_) {
    a.in_use.add(delta);
    if (a.in_use.value() > a.high_water.value()) a.high_water.set(a.in_use.value());
  }
}

void ChunkPool::release(detail::ChunkHeader* chunk) {
  --in_use_;
  publish_in_use(-1.0);
  if (chunk->capacity == slab_bytes_) {
    free_.push_back(chunk);
  } else {
    ::operator delete(chunk);  // oversize one-off (header is trivial)
  }
}

void ChunkPool::attach_metrics(obs::MetricsRegistry& metrics) {
  for (Attachment& a : attachments_) {
    if (a.registry == &metrics) {
      ++a.count;
      return;
    }
  }
  // Every pool attached to one registry adds into the same gauges, so the
  // first attach publishes this pool's current share.
  Attachment& a = attachments_.emplace_back(Attachment{
      &metrics, 1, metrics.gauge_handle("stream.chunk_pool.in_use"),
      metrics.gauge_handle("stream.chunk_pool.allocated"),
      metrics.gauge_handle("stream.chunk_pool.high_water"),
      metrics.counter_handle("stream.chunk_pool.oversize_allocs")});
  a.allocated.add(static_cast<double>(slabs_.size()));
  a.in_use.add(static_cast<double>(in_use_));
  a.high_water.set(std::max(a.high_water.value(), a.in_use.value()));
}

void ChunkPool::detach_metrics(obs::MetricsRegistry& metrics) {
  const auto it = std::ranges::find(attachments_, &metrics, &Attachment::registry);
  if (it == attachments_.end() || --it->count > 0) return;
  withdraw(*it);
  attachments_.erase(it);
}

void ChunkPool::withdraw(Attachment& attachment) const {
  attachment.in_use.add(-static_cast<double>(in_use_));
  attachment.allocated.add(-static_cast<double>(slabs_.size()));
}

ChunkRef ChunkRef::copy_of(std::string_view data, ChunkPool& pool) {
  ChunkRef ref;
  if (data.size() <= kInlineCapacity) {
    ref.inline_.len = static_cast<std::uint8_t>(data.size());
    if (!data.empty()) std::memcpy(ref.inline_.bytes, data.data(), data.size());
    return ref;
  }
  detail::ChunkHeader* chunk = pool.acquire(data.size());
  std::memcpy(chunk->data(), data.data(), data.size());
  chunk->write_pos = static_cast<std::uint32_t>(data.size());
  ref.chunk_ = chunk;  // adopts the acquire() reference
  ref.pooled_.offset = 0;
  ref.pooled_.length = static_cast<std::uint32_t>(data.size());
  return ref;
}

}  // namespace cg::stream

// Streaming-path scale benchmark: drives N concurrent interactive sessions —
// agent-side FlushBuffer, wire framing, spool-then-send ReliableChannel,
// shadow-side decode and screen FlushBuffer — through the pre-rewrite
// streaming stack (std::string payload copies, std::deque queues, a
// heap-allocating std::function per message; embedded below verbatim) and
// the current pooled-chunk / inline-ring / InplaceFunction path, asserts
// both deliver the byte-identical message sequence (content, order, virtual
// timestamps, flush reasons), and reports messages/sec. For the current path
// it also proves the zero-allocation claim: once the chunk pool, rings and
// event slab reach their high-water marks, the steady-state
// append→flush→frame→spool→transmit→deliver→decode→screen cycle must not
// touch the global heap (counted via replaced operator new). A third run
// enables Nagle-style send coalescing (off by default in production) and
// checks it preserves per-message content and order while cutting spool
// write operations.
//
// Usage:
//   stream_scale                 full sweep (100..2000 sessions)
//   stream_scale --smoke         smallest grid plus a default-configuration
//                                footprint check; exit 1 on any violation
//   stream_scale --json <path>   also write machine-readable results
#include <execinfo.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "interpose/wire.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "stream/channel_model.hpp"
#include "stream/chunk.hpp"
#include "stream/flush_buffer.hpp"
#include "stream/reliable_channel.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

// ------------------------------------------------- allocation accounting ----

namespace {
std::size_t g_alloc_count = 0;
bool g_alloc_trap = false;  // temporary: abort on steady-state alloc (debug)
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (g_alloc_trap) {
    g_alloc_trap = false;
    void* frames[32];
    const int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, 2);
    g_alloc_trap = true;
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc{};
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace cg;
using cg::interpose::FrameType;
using cg::interpose::kFrameHeaderBytes;
using cg::interpose::kMaxFramePayload;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Optional frame dump for divergence debugging (--dump <prefix> writes one
/// file per run with every frame's timestamp, rank, size and prefix).
std::FILE* g_dump = nullptr;

// ------------------------------------------------------- legacy stack -------
// Faithful copies of the streaming components this rewrite replaced, kept
// verbatim (minus metrics/log hooks) so the digest comparison pins the new
// path to the exact historical delivery sequence. Both stacks run on the
// current event engine — sim_scale already proves engine equivalence — so
// the comparison isolates the streaming data path itself.

namespace legacy {

using FlushReason = cg::stream::FlushReason;

struct FlushBufferConfig {
  std::size_t capacity = 64 * 1024;
  Duration timeout = Duration::millis(200);
  bool flush_on_newline = true;
};

class FlushBuffer {
public:
  using FlushFn = std::function<void(std::string data)>;

  FlushBuffer(sim::Simulation& sim, FlushBufferConfig config, FlushFn on_flush)
      : sim_{sim}, config_{config}, on_flush_{std::move(on_flush)} {}

  void append(std::string_view data) {
    while (!data.empty()) {
      const std::size_t room = config_.capacity - buffer_.size();
      std::size_t take = std::min(room, data.size());
      bool newline_flush = false;
      if (config_.flush_on_newline) {
        const std::size_t nl = data.substr(0, take).find('\n');
        if (nl != std::string_view::npos) {
          take = nl + 1;
          newline_flush = true;
        }
      }
      buffer_.append(data.substr(0, take));
      data.remove_prefix(take);
      if (buffer_.size() >= config_.capacity || newline_flush) {
        emit(newline_flush ? FlushReason::kNewline : FlushReason::kCapacity);
      } else if (!buffer_.empty() && !timer_.armed()) {
        arm_timeout();
      }
    }
  }

  void flush() {
    if (!buffer_.empty()) emit(FlushReason::kExplicit);
  }

  [[nodiscard]] std::size_t flush_count(FlushReason reason) const {
    return reason_counts_[static_cast<std::size_t>(reason)];
  }

private:
  void arm_timeout() {
    timer_.rearm(sim_, sim_.schedule(config_.timeout, [this] {
      if (!buffer_.empty()) emit(FlushReason::kTimeout);
    }));
  }

  void emit(FlushReason reason) {
    timer_.reset();
    std::string out;
    out.swap(buffer_);
    ++reason_counts_[static_cast<std::size_t>(reason)];
    on_flush_(std::move(out));
  }

  sim::Simulation& sim_;
  FlushBufferConfig config_;
  FlushFn on_flush_;
  std::string buffer_;
  std::array<std::size_t, 4> reason_counts_{};
  sim::ScopedTimer timer_;
};

class Spool {
public:
  explicit Spool(sim::DiskModel& disk) : disk_{disk} {}

  Duration push(std::size_t bytes) {
    entries_.push_back(bytes);
    pending_bytes_ += bytes;
    disk_.note_write(bytes);
    return disk_.write_duration(bytes);
  }

  [[nodiscard]] std::optional<Duration> try_push(std::size_t bytes) {
    const bool over_capacity =
        capacity_bytes_ != 0 && pending_bytes_ + bytes > capacity_bytes_;
    if (!disk_.healthy() || over_capacity) return std::nullopt;
    return push(bytes);
  }

  void set_capacity(std::size_t bytes) { capacity_bytes_ = bytes; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  void pop_acknowledged() {
    pending_bytes_ -= entries_.front();
    entries_.pop_front();
  }

  Duration charge_recovery_read() {
    const std::size_t bytes = entries_.front();
    disk_.note_read(bytes);
    return disk_.read_duration(bytes);
  }

private:
  sim::DiskModel& disk_;
  std::deque<std::size_t> entries_;
  std::size_t pending_bytes_ = 0;
  std::size_t capacity_bytes_ = 0;
};

/// The pre-rewrite SimChannel: std::function callbacks, one heap-scheduled
/// delivery per send. Packetization math is byte-identical to the current
/// one (stream/channel_model.cpp) so timings stay in lockstep.
class SimChannel {
public:
  using DeliverFn = std::function<void(std::size_t bytes)>;
  using FailFn = std::function<void(std::size_t bytes)>;

  SimChannel(sim::Simulation& sim, sim::Link& link, cg::stream::ChannelSpec spec,
             Rng rng)
      : sim_{sim}, link_{link}, spec_{std::move(spec)}, rng_{std::move(rng)} {}

  void send(std::size_t bytes, DeliverFn on_deliver, FailFn on_fail = nullptr) {
    ++messages_;
    if (!link_.is_up(sim_.now())) {
      ++failures_;
      if (on_fail) on_fail(bytes);
      return;
    }
    bytes_ += bytes;
    const Duration duration = sample_duration(bytes);
    SimTime deliver_at = sim_.now() + duration;
    if (deliver_at < last_delivery_) deliver_at = last_delivery_;
    last_delivery_ = deliver_at;
    sim_.schedule_at(deliver_at,
                     [cb = std::move(on_deliver), bytes] { cb(bytes); });
  }

private:
  [[nodiscard]] Duration sample_duration(std::size_t bytes) {
    const std::size_t packets =
        bytes == 0 ? 1
                   : (bytes + spec_.packet_payload - 1) / spec_.packet_payload;
    const auto wire_bytes =
        static_cast<std::size_t>(std::llround(static_cast<double>(bytes) *
                                              spec_.byte_factor)) +
        packets * spec_.header_bytes;
    Duration d = spec_.per_message_overhead +
                 spec_.per_packet_overhead * static_cast<std::int64_t>(packets) +
                 link_.transfer_duration(wire_bytes);
    if (spec_.jitter_factor > 1.0) {
      const double extra_stddev =
          (spec_.jitter_factor - 1.0) *
          static_cast<double>(link_.spec().jitter_stddev.count_micros());
      if (extra_stddev > 0.0) {
        const double sample = std::abs(rng_.normal(0.0, extra_stddev));
        d += Duration::micros(static_cast<std::int64_t>(std::llround(sample)));
      }
    }
    return d;
  }

  sim::Simulation& sim_;
  sim::Link& link_;
  cg::stream::ChannelSpec spec_;
  Rng rng_;
  SimTime last_delivery_;
  std::size_t messages_ = 0;
  std::size_t failures_ = 0;
  std::size_t bytes_ = 0;
};

struct RetryPolicy {
  Duration retry_interval = Duration::seconds(5);
  int max_retries = 12;
  std::size_t spool_capacity_bytes = 0;
};

class ReliableChannel {
public:
  using DeliverFn = std::function<void(std::size_t bytes)>;

  ReliableChannel(sim::Simulation& sim, SimChannel& channel,
                  sim::DiskModel& sender_disk, sim::DiskModel* receiver_disk,
                  RetryPolicy policy = {})
      : sim_{sim},
        channel_{channel},
        spool_{sender_disk},
        receiver_disk_{receiver_disk},
        policy_{policy} {
    spool_.set_capacity(policy_.spool_capacity_bytes);
  }

  ~ReliableChannel() { ++epoch_; }

  void send(std::size_t bytes, DeliverFn on_deliver) {
    if (gave_up_) return;
    queue_.push_back(Entry{bytes, std::move(on_deliver), false, false});
    pump_appends();
  }

private:
  struct Entry {
    std::size_t bytes = 0;
    DeliverFn on_deliver;
    bool recovered_from_disk = false;
    bool spooled = false;
  };

  void pump_appends() {
    Duration head_cost = Duration::zero();
    bool head_just_spooled = false;
    for (Entry& entry : queue_) {
      if (entry.spooled) continue;
      const std::optional<Duration> cost = spool_.try_push(entry.bytes);
      if (!cost) break;  // never hit in this workload (healthy disk)
      entry.spooled = true;
      if (&entry == &queue_.front()) {
        head_cost = *cost;
        head_just_spooled = true;
      }
    }
    if (!transmitting_ && !queue_.empty() && queue_.front().spooled) {
      transmitting_ = true;
      transmit_head(head_just_spooled ? head_cost : Duration::zero());
    }
  }

  void transmit_head(Duration extra_delay) {
    if (queue_.empty()) {
      transmitting_ = false;
      return;
    }
    const std::uint64_t epoch = epoch_;
    sim_.schedule(extra_delay, [this, epoch] {
      if (epoch != epoch_ || gave_up_ || queue_.empty()) return;
      const Entry& head = queue_.front();
      channel_.send(
          head.bytes,
          [this, epoch](std::size_t) {
            if (epoch == epoch_) on_head_delivered();
          },
          [this, epoch](std::size_t) {
            if (epoch == epoch_) on_head_failed();
          });
    });
  }

  void on_head_delivered() {
    if (queue_.empty()) return;
    failures_ = 0;
    Entry head = std::move(queue_.front());
    queue_.pop_front();
    spool_.pop_acknowledged();
    if (head.on_deliver) {
      if (receiver_disk_ != nullptr) {
        receiver_disk_->note_write(head.bytes);
        const Duration cost = receiver_disk_->write_duration(head.bytes);
        sim_.schedule(cost,
                      [cb = std::move(head.on_deliver), bytes = head.bytes] {
                        cb(bytes);
                      });
      } else {
        head.on_deliver(head.bytes);
      }
    }
    if (queue_.empty() || !queue_.front().spooled) {
      transmitting_ = false;
    } else {
      transmit_head(Duration::zero());
    }
  }

  void on_head_failed() {
    if (queue_.empty()) return;
    ++failures_;
    if (failures_ > policy_.max_retries) {
      gave_up_ = true;
      transmitting_ = false;
      return;
    }
    queue_.front().recovered_from_disk = true;
    retry_timer_.rearm(sim_, sim_.schedule(policy_.retry_interval, [this] {
      if (gave_up_ || queue_.empty()) return;
      const Duration read_cost = spool_.charge_recovery_read();
      transmit_head(read_cost);
    }));
  }

  sim::Simulation& sim_;
  SimChannel& channel_;
  Spool spool_;
  sim::DiskModel* receiver_disk_;
  RetryPolicy policy_;
  std::deque<Entry> queue_;
  bool transmitting_ = false;
  bool gave_up_ = false;
  int failures_ = 0;
  sim::ScopedTimer retry_timer_;
  std::uint64_t epoch_ = 0;
};

/// Pre-rewrite wire layer: encode_frame materializes one std::string per
/// frame (a full payload copy); the decoder buffers the stream and
/// materializes Frame::payload strings.
std::string encode_frame(FrameType type, std::uint32_t rank,
                         std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<char>(type));
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((rank >> shift) & 0xff));
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((length >> shift) & 0xff));
  }
  out += payload;
  return out;
}

struct Frame {
  FrameType type = FrameType::kStdout;
  std::uint32_t rank = 0;
  std::string payload;
};

class FrameDecoder {
public:
  void feed(const char* data, std::size_t size) { buffer_.append(data, size); }

  std::optional<Frame> next() {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kFrameHeaderBytes) return std::nullopt;
    const char* p = buffer_.data() + consumed_;
    const auto raw_type = static_cast<std::uint8_t>(p[0]);
    const std::uint32_t rank = get_u32(p + 1);
    const std::uint32_t length = get_u32(p + 5);
    if (available < kFrameHeaderBytes + length) return std::nullopt;
    Frame frame;
    frame.type = static_cast<FrameType>(raw_type);
    frame.rank = rank;
    frame.payload.assign(p + kFrameHeaderBytes, length);
    consumed_ += kFrameHeaderBytes + length;
    if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    return frame;
  }

private:
  static std::uint32_t get_u32(const char* p) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
  }

  std::string buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace legacy

// ------------------------------------------------------------ workload ------
// Each session is an interactive program: every 5 ms (one producer event) it
// emits a burst of lines into its agent-side FlushBuffer. The LCG draws the
// mix — mostly newline-terminated lines of 40..200 bytes, occasional
// multi-kilobyte dumps that overflow the 1 KiB buffer (capacity flushes),
// and prompt fragments without a newline that ride the 3 ms flush timeout.
// Every flush is framed, spooled, transmitted over the reliable channel,
// written to the shadow's intermediate file, decoded, and appended to the
// shadow's screen buffer, whose flushes fold into the digest.

constexpr std::size_t kBufferCapacity = 1024;
const Duration kFlushTimeout = Duration::millis(3);

/// Message-rate knob (the sweep's second axis, set per grid row): lines per
/// burst and the burst period. The base rate (4 lines / 5 ms) sits below the
/// reliable channel's serial drain rate, so queues stay shallow; the high
/// rate (16 lines / 2 ms) models a subjob dumping output faster than the
/// spool+link chain drains it — the sustained-backlog regime coalescing is
/// for.
std::size_t g_burst_lines = 4;
Duration g_burst_interval = Duration::millis(5);

struct LineGen {
  std::uint64_t lcg = 0;

  explicit LineGen(std::uint64_t seed) : lcg{seed} {}

  std::uint64_t next() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 29;
  }

  /// Writes one line into `buf` (>= 4096 bytes); returns its length.
  std::size_t make_line(std::uint32_t session, std::size_t n, char* buf) {
    const std::uint64_t r = next();
    const std::uint64_t r2 = next();
    // The first two bursts are all dumps: every session hits its worst-case
    // queue depth (and ring/pool high-water marks) inside the warm-up
    // window, so steady state never grows a ring.
    const std::uint64_t kind = n < 2 * g_burst_lines ? 15 : r % 16;
    std::size_t len;
    bool newline = true;
    if (kind == 15) {
      len = 2500 + r2 % 1200;  // dump: overflows the 1 KiB buffer
    } else if (kind >= 12) {
      len = 20 + r2 % 60;  // prompt fragment: no newline, timeout-flushed
      newline = false;
    } else {
      len = 40 + r2 % 160;  // ordinary output line
    }
    const int head = std::snprintf(buf, 64, "s%05u m%06zu ", session, n);
    const auto fill = static_cast<char>('a' + r2 % 26);
    std::memset(buf + head, fill, len - static_cast<std::size_t>(head));
    if (newline) buf[len - 1] = '\n';
    return len;
  }
};

/// Digest and throughput accumulator shared by every session of one run.
/// The timing digest chains globally (delivery timestamps + cross-session
/// arrival order); the content digest chains per session and is combined
/// commutatively, so it pins per-session message content and order while
/// staying invariant under cross-session interleaving (coalescing shifts
/// timings between sessions but must never reorder within one).
struct Accum {
  std::uint64_t timing_digest = 0xcbf29ce484222325ULL;
  std::vector<std::uint64_t> session_content;
  std::size_t messages = 0;   ///< frames decoded at the shadow
  std::size_t bytes = 0;      ///< payload bytes delivered
  std::size_t screen_flushes = 0;

  void on_frame(SimTime now, std::uint32_t rank, std::string_view payload) {
    ++messages;
    bytes += payload.size();
    const std::size_t prefix = std::min<std::size_t>(payload.size(), 32);
    timing_digest =
        fnv1a(timing_digest, static_cast<std::uint64_t>(now.count_micros()));
    timing_digest = fnv1a(timing_digest, rank);
    timing_digest = fnv1a(timing_digest, payload.size());
    timing_digest = fnv1a_bytes(timing_digest, payload.data(), prefix);
    std::uint64_t& chain = session_content[rank];
    chain = fnv1a(chain, payload.size());
    chain = fnv1a_bytes(chain, payload.data(), prefix);
    if (!payload.empty()) {
      chain = fnv1a(chain, static_cast<unsigned char>(payload.back()));
    }
    if (g_dump != nullptr) {
      std::fprintf(g_dump, "F %lld %u %zu %.*s\n",
                   static_cast<long long>(now.count_micros()), rank,
                   payload.size(), static_cast<int>(std::min<std::size_t>(
                                       payload.size(), 16)),
                   payload.data());
    }
  }

  void on_screen(SimTime now, std::string_view data) {
    ++screen_flushes;
    timing_digest =
        fnv1a(timing_digest, static_cast<std::uint64_t>(now.count_micros()));
    timing_digest = fnv1a(timing_digest, data.size());
    if (g_dump != nullptr) {
      std::fprintf(g_dump, "S %lld %zu\n",
                   static_cast<long long>(now.count_micros()), data.size());
    }
  }

  void fold_reasons(std::size_t agent_reason_count, std::size_t shadow_reason_count) {
    timing_digest = fnv1a(timing_digest, agent_reason_count);
    timing_digest = fnv1a(timing_digest, shadow_reason_count);
  }

  [[nodiscard]] std::uint64_t content_digest() const {
    std::uint64_t sum = 0;
    for (std::uint64_t chain : session_content) sum += chain;
    return sum;
  }
};

sim::LinkSpec bench_link_spec() {
  sim::LinkSpec spec;
  spec.name = "bench";
  spec.latency = Duration::micros(400);
  spec.bandwidth_bytes_per_sec = 12.5e6;
  spec.jitter_stddev = Duration::zero();  // deterministic: no RNG draws
  return spec;
}

cg::stream::ChannelSpec bench_channel_spec() {
  cg::stream::ChannelSpec spec;
  spec.name = "bench";
  spec.packet_payload = 32 * 1024;
  spec.per_message_overhead = Duration::micros(80);
  spec.per_packet_overhead = Duration::micros(60);
  spec.byte_factor = 1.02;
  spec.header_bytes = 32;
  spec.jitter_factor = 1.0;
  return spec;
}

// ------------------------------------------------------ legacy session ------

class LegacySession {
public:
  LegacySession(sim::Simulation& sim, Accum& accum, std::uint32_t id,
                std::size_t lines)
      : sim_{sim},
        accum_{accum},
        id_{id},
        lines_quota_{lines},
        gen_{0x9e3779b97f4a7c15ULL * (id + 1) ^ 0xcafef00dd15ea5e5ULL},
        link_{bench_link_spec(), Rng{id * 2 + 1}},
        channel_{sim, link_, bench_channel_spec(), Rng{id * 2 + 2}},
        reliable_{sim, channel_, sender_disk_, &receiver_disk_},
        agent_buf_{sim,
                   legacy::FlushBufferConfig{kBufferCapacity, kFlushTimeout, true},
                   [this](std::string data) { on_agent_flush(std::move(data)); }},
        shadow_buf_{sim,
                    legacy::FlushBufferConfig{kBufferCapacity, kFlushTimeout, true},
                    [this](std::string data) {
                      accum_.on_screen(sim_.now(), data);
                    }} {}

  void start() {
    // Small stagger so producers spread within a few burst intervals; every
    // session is live well before the warm-up window closes.
    sim_.schedule(
        Duration::micros(static_cast<std::int64_t>(37 * (id_ % 128 + 1))),
        [this] { produce(); });
  }

  [[nodiscard]] std::size_t flush_reasons(int i) const {
    return agent_buf_.flush_count(static_cast<legacy::FlushReason>(i)) * 1000 +
           shadow_buf_.flush_count(static_cast<legacy::FlushReason>(i));
  }

  [[nodiscard]] const sim::DiskModel& sender_disk() const { return sender_disk_; }

private:
  void produce() {
    char buf[4096];
    for (std::size_t i = 0; i < g_burst_lines && lines_emitted_ < lines_quota_;
         ++i) {
      const std::size_t len = gen_.make_line(id_, lines_emitted_, buf);
      ++lines_emitted_;
      agent_buf_.append(std::string_view{buf, len});
    }
    if (lines_emitted_ < lines_quota_) {
      sim_.schedule(g_burst_interval, [this] { produce(); });
    } else {
      agent_buf_.flush();
    }
  }

  void on_agent_flush(std::string payload) {
    // Pre-rewrite agent path: frame the payload into a fresh std::string
    // (full copy) and hold it in the delivery callback (heap-allocating
    // std::function — the capture exceeds the SOO buffer). The size must be
    // read before the lambda capture moves the string out.
    std::string encoded = legacy::encode_frame(FrameType::kStdout, id_, payload);
    const std::size_t wire_bytes = encoded.size();
    reliable_.send(wire_bytes,
                   [this, encoded = std::move(encoded)](std::size_t) {
                     on_delivered(encoded);
                   });
  }

  void on_delivered(const std::string& encoded) {
    // Pre-rewrite shadow path: buffer the stream, materialize each frame's
    // payload as an owned string, append it to the screen buffer.
    decoder_.feed(encoded.data(), encoded.size());
    while (auto frame = decoder_.next()) {
      accum_.on_frame(sim_.now(), frame->rank, frame->payload);
      shadow_buf_.append(frame->payload);
    }
  }

  sim::Simulation& sim_;
  Accum& accum_;
  std::uint32_t id_;
  std::size_t lines_quota_;
  std::size_t lines_emitted_ = 0;
  LineGen gen_;
  sim::Link link_;
  sim::DiskModel sender_disk_;
  sim::DiskModel receiver_disk_;
  legacy::SimChannel channel_;
  legacy::ReliableChannel reliable_;
  legacy::FrameDecoder decoder_;
  legacy::FlushBuffer agent_buf_;
  legacy::FlushBuffer shadow_buf_;
};

// ----------------------------------------------------- current session ------

/// The sweep's agent and shadow buffers: the legacy stack's 1 KiB capacity
/// and 3 ms timeout, over `pool`.
cg::stream::FlushBufferConfig sweep_buffers(cg::stream::ChunkPool& pool) {
  cg::stream::FlushBufferConfig config;
  config.capacity = kBufferCapacity;
  config.timeout = kFlushTimeout;
  config.flush_on_newline = true;
  config.pool = &pool;
  return config;
}

class CurrentSession {
public:
  CurrentSession(sim::Simulation& sim, Accum& accum, std::uint32_t id,
                 std::size_t lines, const cg::stream::FlushBufferConfig& buffers,
                 std::size_t max_coalesce_bytes)
      : sim_{sim},
        accum_{accum},
        id_{id},
        lines_quota_{lines},
        gen_{0x9e3779b97f4a7c15ULL * (id + 1) ^ 0xcafef00dd15ea5e5ULL},
        link_{bench_link_spec(), Rng{id * 2 + 1}},
        channel_{sim, link_, bench_channel_spec(), Rng{id * 2 + 2}},
        reliable_{sim, channel_, sender_disk_, &receiver_disk_,
                  cg::stream::RetryPolicy{.max_coalesce_bytes =
                                              max_coalesce_bytes}},
        agent_buf_{sim, buffers,
                   cg::stream::FlushBuffer::FlushFn{[this](cg::stream::ChunkRef data) {
                     on_agent_flush(std::move(data));
                   }}},
        shadow_buf_{sim, buffers,
                    cg::stream::FlushBuffer::FlushFn{[this](cg::stream::ChunkRef data) {
                      accum_.on_screen(sim_.now(), data.view());
                    }}} {
    // Pre-size the receive buffer for the largest frame so the transport
    // copy never grows it mid-run (the real shadow sizes its read buffer
    // up front too), and the channel's rings for the workload's outstanding
    // bound (messages queue up behind the in-flight transmit faster than the
    // serial spool+link chain drains them, and a 64 KiB coalesced batch can
    // move ~60 of them into the receiver-write pipeline at once).
    recv_buf_.reserve(4096 + kFrameHeaderBytes);
    reliable_.reserve(256);
  }

  void start() {
    sim_.schedule(
        Duration::micros(static_cast<std::int64_t>(37 * (id_ % 128 + 1))),
        [this] { produce(); });
  }

  [[nodiscard]] std::size_t flush_reasons(int i) const {
    return agent_buf_.flush_count(static_cast<cg::stream::FlushReason>(i)) * 1000 +
           shadow_buf_.flush_count(static_cast<cg::stream::FlushReason>(i));
  }

  [[nodiscard]] const sim::DiskModel& sender_disk() const { return sender_disk_; }
  [[nodiscard]] const cg::stream::ReliableChannel& reliable() const {
    return reliable_;
  }

private:
  void produce() {
    char buf[4096];
    for (std::size_t i = 0; i < g_burst_lines && lines_emitted_ < lines_quota_;
         ++i) {
      const std::size_t len = gen_.make_line(id_, lines_emitted_, buf);
      ++lines_emitted_;
      agent_buf_.append(std::string_view{buf, len});
    }
    if (lines_emitted_ < lines_quota_) {
      sim_.schedule(g_burst_interval, [this] { produce(); });
    } else {
      agent_buf_.flush();
    }
  }

  void on_agent_flush(cg::stream::ChunkRef data) {
    // Current agent path: the frame header is 9 stack bytes written at
    // transmit time; the payload travels as a ChunkRef (refcount bump, no
    // copy) inside an InplaceFunction — still within its inline buffer.
    const std::size_t wire_bytes = kFrameHeaderBytes + data.size();
    reliable_.send(wire_bytes,
                   cg::stream::ReliableChannel::DeliverFn{
                       [this, data = std::move(data)](std::size_t) {
                         on_delivered(data);
                       }});
  }

  void on_delivered(const cg::stream::ChunkRef& data) {
    // Current shadow path: one transport copy into the reused receive
    // buffer (the socket read), then zero-copy decode — payload views
    // borrow the receive buffer, no per-frame string.
    char header[kFrameHeaderBytes];
    cg::interpose::encode_frame_header(header, FrameType::kStdout, id_,
                                       data.size());
    recv_buf_.clear();
    recv_buf_.append(header, sizeof(header));
    recv_buf_.append(data.view());
    decoder_.begin(recv_buf_.data(), recv_buf_.size());
    while (auto frame = decoder_.next_view()) {
      accum_.on_frame(sim_.now(), frame->rank, frame->payload);
      shadow_buf_.append(frame->payload);
    }
    decoder_.end();
  }

  sim::Simulation& sim_;
  Accum& accum_;
  std::uint32_t id_;
  std::size_t lines_quota_;
  std::size_t lines_emitted_ = 0;
  LineGen gen_;
  sim::Link link_;
  sim::DiskModel sender_disk_;
  sim::DiskModel receiver_disk_;
  cg::stream::SimChannel channel_;
  cg::stream::ReliableChannel reliable_;
  cg::interpose::FrameDecoder decoder_;
  std::string recv_buf_;
  cg::stream::FlushBuffer agent_buf_;
  cg::stream::FlushBuffer shadow_buf_;
};

// --------------------------------------------------------------- runner -----

struct RunResult {
  Accum accum;
  double seconds = 0.0;           ///< steady-state phase only (post warm-up)
  std::size_t warm_messages = 0;  ///< messages delivered during warm-up
  std::size_t steady_allocs = 0;  ///< only measured for the current path
  std::size_t spool_writes = 0;
  std::size_t coalesced_batches = 0;
  std::size_t coalesced_messages = 0;
};

template <class Session, class... Extra>
RunResult run_sessions(std::size_t n_sessions, std::size_t lines_per_session,
                       bool measure_allocs, Extra&... extra) {
  RunResult out;
  out.accum.session_content.assign(n_sessions, 0xcbf29ce484222325ULL);
  sim::Simulation sim;
  // Prime the event slab to the workload's in-flight bound (producer timer,
  // transmit, delivery, receiver write and flush timers per session):
  // schedule-then-cancel a burst of leaf events through BOTH stacks
  // identically, so slab growth is a start-up cost instead of a
  // mid-measurement one (sim_scale does the same).
  {
    std::vector<sim::EventHandle> primer;
    primer.reserve(n_sessions * 8 + 256);
    for (std::size_t i = 0; i < n_sessions * 8 + 256; ++i) {
      primer.push_back(sim.schedule(Duration::micros(1), [] {}));
    }
    for (sim::EventHandle& h : primer) sim.cancel(h);
  }
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    sessions.push_back(std::make_unique<Session>(
        sim, out.accum, static_cast<std::uint32_t>(i), lines_per_session,
        extra...));
    sessions.back()->start();
  }
  // Warm-up quarter (both stacks, identical protocol): caches fill, and on
  // the current path the chunk pool, rings, receive buffers and event slab
  // grow to their high-water marks. A quarter (by delivered messages)
  // covers the entire production phase even on the high-rate rows — queue
  // depth peaks when production ends, so the peak lands inside warm-up and
  // the timed steady state that follows never grows a ring or the pool.
  const std::size_t warm_target = n_sessions * lines_per_session / 4;
  while (out.accum.messages < warm_target && sim.step()) {
  }
  out.warm_messages = out.accum.messages;
  const std::size_t before = g_alloc_count;
  if (measure_allocs && std::getenv("STREAM_SCALE_TRAP") != nullptr) {
    g_alloc_trap = true;
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  g_alloc_trap = false;
  if (measure_allocs) out.steady_allocs = g_alloc_count - before;
  for (int reason = 0; reason < 4; ++reason) {
    std::size_t agent_total = 0;
    std::size_t shadow_total = 0;
    for (const auto& session : sessions) {
      agent_total += session->flush_reasons(reason) / 1000;
      shadow_total += session->flush_reasons(reason) % 1000;
    }
    out.accum.fold_reasons(agent_total, shadow_total);
  }
  for (const auto& session : sessions) {
    out.spool_writes += session->sender_disk().write_ops();
    if constexpr (std::is_same_v<Session, CurrentSession>) {
      out.coalesced_batches += session->reliable().coalesced_batches();
      out.coalesced_messages += session->reliable().coalesced_messages();
    }
  }
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

/// Fastest wall time wins across repetitions; the allocation count keeps its
/// worst observation so a single dirty rep still fails.
void merge_rep(RunResult& best, RunResult rep) {
  const std::size_t allocs = std::max(best.steady_allocs, rep.steady_allocs);
  if (best.seconds == 0.0 || rep.seconds < best.seconds) best = std::move(rep);
  best.steady_allocs = allocs;
}

struct Row {
  std::size_t sessions = 0;
  std::size_t lines = 0;
  std::size_t burst_lines = 0;
  std::int64_t burst_interval_us = 0;
  RunResult legacy;
  RunResult current;
  RunResult coalesced;

  [[nodiscard]] bool digests_match() const {
    return legacy.accum.timing_digest == current.accum.timing_digest &&
           legacy.accum.content_digest() == current.accum.content_digest() &&
           legacy.accum.messages == current.accum.messages;
  }
  [[nodiscard]] bool coalesced_digest_match() const {
    return coalesced.accum.content_digest() == current.accum.content_digest() &&
           coalesced.accum.messages == current.accum.messages &&
           coalesced.accum.bytes == current.accum.bytes;
  }
  [[nodiscard]] bool zero_alloc() const {
    return current.steady_allocs == 0 && coalesced.steady_allocs == 0;
  }
  /// Headline throughput ratio: the new path in its coalescing configuration
  /// against the legacy stack. With coalescing off the new path is pinned to
  /// the legacy event sequence byte for byte (that run proves digest
  /// lockstep), so the throughput the rewrite buys comes from batching spool
  /// writes and transmits — the capability the old stack could not express.
  [[nodiscard]] double speedup() const {
    return coalesced.seconds > 0.0 ? legacy.seconds / coalesced.seconds : 0.0;
  }
  /// Wall-clock ratio of the lockstep (coalescing-off) run, which replays the
  /// identical simulated event sequence as legacy.
  [[nodiscard]] double lockstep_speedup() const {
    return current.seconds > 0.0 ? legacy.seconds / current.seconds : 0.0;
  }
  [[nodiscard]] double msgs_per_sec(const RunResult& r) const {
    const std::size_t measured = r.accum.messages - r.warm_messages;
    return r.seconds > 0.0 ? static_cast<double>(measured) / r.seconds : 0.0;
  }
};

/// Grows the pool's slab inventory to the workload's in-flight bound before
/// the clock starts: agent writer chunk, shadow writer chunk, and a few
/// flushed-but-undelivered segments per session.
void prime_pool(cg::stream::ChunkPool& pool, std::size_t n_sessions) {
  const std::string filler(kBufferCapacity, 'x');
  std::vector<cg::stream::ChunkRef> refs;
  refs.reserve(n_sessions * 10);
  for (std::size_t i = 0; i < n_sessions * 10; ++i) {
    refs.push_back(cg::stream::ChunkRef::copy_of(filler, pool));
  }
}

/// Default-configuration footprint gate. Each session runs like one
/// GridConsole's writers: a default FlushBufferConfig for both buffers, here
/// over a private default ChunkPool per session (64 KiB slabs, the same size
/// as the buffer capacity) so each session's footprint can be read alone.
/// Its whole output fits one slab, so packed segments must keep every
/// session's pool at two slabs (agent writer + shadow writer) however many
/// flushed lines are in flight. Returns false and reports each session over.
bool default_footprint_ok() {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kLines = 50;
  constexpr std::size_t kMaxSlabs = 2;
  g_burst_lines = 4;
  g_burst_interval = Duration::millis(5);
  sim::Simulation sim;
  Accum accum;
  accum.session_content.assign(kSessions, 0xcbf29ce484222325ULL);
  std::vector<std::unique_ptr<cg::stream::ChunkPool>> pools;
  std::vector<std::unique_ptr<CurrentSession>> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    pools.push_back(std::make_unique<cg::stream::ChunkPool>());
    cg::stream::FlushBufferConfig buffers;
    buffers.pool = pools.back().get();
    sessions.push_back(std::make_unique<CurrentSession>(
        sim, accum, static_cast<std::uint32_t>(i), kLines, buffers, 0));
    sessions.back()->start();
  }
  sim.run();
  bool ok = true;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::size_t slabs = pools[i]->allocated_chunks();
    std::cout << "default config: session " << i << " allocated " << slabs
              << " slab(s) for " << kLines << " lines\n";
    if (slabs > kMaxSlabs) {
      std::cerr << "[FAIL] default-config session " << i << " allocated "
                << slabs << " slabs (limit " << kMaxSlabs << ")\n";
      ok = false;
    }
  }
  return ok;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f{path};
  f << "{\n  \"bench\": \"stream_scale\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"sessions\": " << r.sessions << ", \"lines\": " << r.lines
      << ", \"burst_lines\": " << r.burst_lines
      << ", \"burst_interval_us\": " << r.burst_interval_us
      << ", \"messages\": " << r.current.accum.messages
      << ", \"legacy_seconds\": " << r.legacy.seconds
      << ", \"new_seconds\": " << r.current.seconds
      << ", \"coalesced_seconds\": " << r.coalesced.seconds
      << ", \"legacy_msgs_per_sec\": " << r.msgs_per_sec(r.legacy)
      << ", \"new_msgs_per_sec\": " << r.msgs_per_sec(r.current)
      << ", \"coalesced_msgs_per_sec\": " << r.msgs_per_sec(r.coalesced)
      << ", \"speedup\": " << r.speedup()
      << ", \"lockstep_speedup\": " << r.lockstep_speedup()
      << ", \"digest_match\": " << (r.digests_match() ? "true" : "false")
      << ", \"zero_alloc_steady_state\": " << (r.zero_alloc() ? "true" : "false")
      << ", \"coalesced_digest_match\": "
      << (r.coalesced_digest_match() ? "true" : "false")
      << ", \"spool_writes\": " << r.current.spool_writes
      << ", \"coalesced_spool_writes\": " << r.coalesced.spool_writes
      << ", \"coalesced_batches\": " << r.coalesced.coalesced_batches
      << ", \"coalesced_messages\": " << r.coalesced.coalesced_messages
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 3;
  std::string json_path;
  std::string dump_prefix;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--dump" && i + 1 < argc) {
      dump_prefix = argv[++i];
    } else {
      std::cerr << "usage: stream_scale [--smoke] [--reps <n>] "
                   "[--json <path>] [--dump <prefix>]\n";
      return 2;
    }
  }

  // The sweep's two axes: session count and message rate. Base-rate rows
  // (4 lines / 5 ms) stay below the reliable channel's drain rate — shallow
  // queues, coalescing nearly moot. High-rate rows (16 lines / 2 ms) keep a
  // sustained backlog behind the in-flight transmit, the regime the paper's
  // output dumps create and the one coalescing is built for.
  struct Combo {
    std::size_t sessions;
    std::size_t lines;
    std::size_t burst_lines;
    std::int64_t burst_interval_us;
  };
  std::vector<Combo> combos;
  if (smoke) {
    combos = {{8, 50, 4, 5000}};
  } else {
    combos = {{100, 200, 4, 5000},
              {1000, 100, 4, 5000},
              {1000, 100, 16, 2000},
              {2000, 50, 16, 2000}};
  }

  std::cout << "== stream_scale: legacy vs pooled-chunk streaming path ==\n";
  std::vector<Row> rows;
  bool failed = false;
  for (const auto& [sessions, lines, burst_lines, burst_interval_us] : combos) {
    g_burst_lines = burst_lines;
    g_burst_interval = Duration::micros(burst_interval_us);
    Row row;
    row.sessions = sessions;
    row.lines = lines;
    row.burst_lines = burst_lines;
    row.burst_interval_us = burst_interval_us;
    // Interleave the stacks across repetitions and keep each one's fastest
    // run; digests are checked on every rep.
    for (int r = 0; r < reps; ++r) {
      const bool dumping = !dump_prefix.empty() && r == 0;
      if (dumping) g_dump = std::fopen((dump_prefix + ".legacy").c_str(), "w");
      merge_rep(row.legacy,
                run_sessions<LegacySession>(sessions, lines, false));
      if (g_dump != nullptr) { std::fclose(g_dump); g_dump = nullptr; }
      {
        // One pool serves every session; slabs are shared and recycled.
        cg::stream::ChunkPool pool{4096};
        prime_pool(pool, sessions);
        cg::stream::FlushBufferConfig buffers = sweep_buffers(pool);
        std::size_t off = 0;
        if (dumping) g_dump = std::fopen((dump_prefix + ".new").c_str(), "w");
        merge_rep(row.current, run_sessions<CurrentSession>(
                                   sessions, lines, true, buffers, off));
        if (g_dump != nullptr) { std::fclose(g_dump); g_dump = nullptr; }
      }
      {
        cg::stream::ChunkPool pool{4096};
        prime_pool(pool, sessions);
        cg::stream::FlushBufferConfig buffers = sweep_buffers(pool);
        std::size_t coalesce = 64 * 1024;
        merge_rep(row.coalesced, run_sessions<CurrentSession>(
                                     sessions, lines, true, buffers, coalesce));
      }
      if (!row.digests_match() || !row.coalesced_digest_match()) break;
    }
    if (!row.digests_match()) {
      failed = true;
      std::cerr << "[FAIL] delivery divergence at " << sessions << " sessions: "
                << "legacy=" << std::hex << row.legacy.accum.timing_digest
                << " new=" << row.current.accum.timing_digest << std::dec
                << " (messages " << row.legacy.accum.messages << " vs "
                << row.current.accum.messages << ")\n";
    }
    if (!row.coalesced_digest_match()) {
      failed = true;
      std::cerr << "[FAIL] coalescing changed message content/order at "
                << sessions << " sessions (messages "
                << row.coalesced.accum.messages << " vs "
                << row.current.accum.messages << ", bytes "
                << row.coalesced.accum.bytes << " vs "
                << row.current.accum.bytes << ", content "
                << std::hex << row.coalesced.accum.content_digest() << " vs "
                << row.current.accum.content_digest() << std::dec << ")\n";
    }
    if (!row.zero_alloc()) {
      failed = true;
      std::cerr << "[FAIL] "
                << std::max(row.current.steady_allocs,
                            row.coalesced.steady_allocs)
                << " heap allocations on the steady-state streaming path at "
                << sessions << " sessions\n";
    }
    rows.push_back(row);
  }

  cg::TablePrinter table{{"Sessions", "Rate", "Msgs", "Legacy msg/s",
                          "Lockstep msg/s", "Coalesced msg/s", "Speedup",
                          "Digest", "Allocs", "Spool ops (coalesced)"}};
  for (const Row& r : rows) {
    table.add_row(
        {std::to_string(r.sessions),
         std::to_string(r.burst_lines) + "/" +
             std::to_string(r.burst_interval_us / 1000) + "ms",
         std::to_string(r.current.accum.messages),
         cg::fmt_fixed(r.msgs_per_sec(r.legacy), 0),
         cg::fmt_fixed(r.msgs_per_sec(r.current), 0),
         cg::fmt_fixed(r.msgs_per_sec(r.coalesced), 0),
         cg::fmt_fixed(r.speedup(), 1) + "x",
         r.digests_match() && r.coalesced_digest_match() ? "match" : "DIVERGED",
         r.zero_alloc()
             ? "0"
             : std::to_string(std::max(r.current.steady_allocs,
                                       r.coalesced.steady_allocs)),
         std::to_string(r.current.spool_writes) + " -> " +
             std::to_string(r.coalesced.spool_writes)});
  }
  std::cout << table.render() << "\n";
  if (!json_path.empty()) write_json(json_path, rows);
  if (smoke && !default_footprint_ok()) failed = true;
  std::cout << (failed
                    ? "[MISS] streaming rewrite violated its contract\n"
                    : "[ok]   identical delivery sequence, allocation-free "
                      "steady state\n");
  return failed ? 1 : 0;
}

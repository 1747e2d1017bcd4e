// Pooled chunk buffer, inline ring, and spool-ring tests: the allocation-free
// building blocks of the interactive streaming path (see docs/performance.md,
// "The streaming path").
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/disk.hpp"
#include "stream/chunk.hpp"
#include "stream/flush_buffer.hpp"
#include "stream/grid_console.hpp"
#include "stream/spool.hpp"
#include "util/ring.hpp"

namespace cg::stream {
namespace {

using namespace cg::literals;

// ------------------------------------------------------------- chunk refs ----

TEST(ChunkRefTest, SmallPayloadsStayInline) {
  ChunkPool pool{4096};
  const ChunkRef ref = ChunkRef::copy_of("prompt> ", pool);
  EXPECT_TRUE(ref.is_inline());
  EXPECT_EQ(ref.view(), "prompt> ");
  // Inline refs never touch the pool.
  EXPECT_EQ(pool.allocated_chunks(), 0u);
  EXPECT_EQ(pool.in_use_chunks(), 0u);
}

TEST(ChunkRefTest, InlineCapacityBoundary) {
  ChunkPool pool{4096};
  const std::string at_cap(ChunkRef::kInlineCapacity, 'a');
  const std::string over_cap(ChunkRef::kInlineCapacity + 1, 'b');
  const ChunkRef small = ChunkRef::copy_of(at_cap, pool);
  const ChunkRef large = ChunkRef::copy_of(over_cap, pool);
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(large.is_inline());
  EXPECT_EQ(small.view(), at_cap);
  EXPECT_EQ(large.view(), over_cap);
  EXPECT_EQ(pool.allocated_chunks(), 1u);
}

TEST(ChunkRefTest, CopySharesChunkAndLastReferenceRecycles) {
  ChunkPool pool{4096};
  const std::string payload(100, 'x');
  {
    ChunkRef a = ChunkRef::copy_of(payload, pool);
    EXPECT_EQ(pool.in_use_chunks(), 1u);
    {
      const ChunkRef b = a;  // refcount bump, same chunk
      ChunkRef c = std::move(a);
      EXPECT_EQ(pool.in_use_chunks(), 1u);
      EXPECT_EQ(b.view(), payload);
      EXPECT_EQ(c.view(), payload);
      EXPECT_EQ(b.data(), c.data());  // literally the same bytes
    }
    EXPECT_EQ(pool.in_use_chunks(), 0u);  // a was moved from, b/c released
    EXPECT_EQ(pool.free_chunks(), 1u);
  }
  // A later acquisition reuses the recycled slab instead of allocating.
  const ChunkRef d = ChunkRef::copy_of(payload, pool);
  EXPECT_EQ(pool.allocated_chunks(), 1u);
  EXPECT_EQ(pool.free_chunks(), 0u);
}

TEST(ChunkRefTest, MoveAssignmentReleasesOldTarget) {
  ChunkPool pool{4096};
  ChunkRef a = ChunkRef::copy_of(std::string(50, 'a'), pool);
  ChunkRef b = ChunkRef::copy_of(std::string(60, 'b'), pool);
  EXPECT_EQ(pool.in_use_chunks(), 2u);
  a = std::move(b);  // a's original chunk must be released
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  EXPECT_EQ(a.size(), 60u);
}

TEST(ChunkPoolTest, OversizeRequestsAreOneOff) {
  ChunkPool pool{256};
  EXPECT_EQ(pool.oversize_allocations(), 0u);
  {
    const ChunkRef big = ChunkRef::copy_of(std::string(1000, 'z'), pool);
    EXPECT_EQ(big.size(), 1000u);
    EXPECT_EQ(pool.oversize_allocations(), 1u);
  }
  // Oversize chunks are freed on release, not pooled.
  EXPECT_EQ(pool.free_chunks(), 0u);
  EXPECT_EQ(pool.allocated_chunks(), 0u);
}

TEST(ChunkPoolTest, HighWaterTracksPeakOccupancy) {
  ChunkPool pool{128};
  std::vector<ChunkRef> refs;
  for (int i = 0; i < 5; ++i) {
    refs.push_back(ChunkRef::copy_of(std::string(100, 'x'), pool));
  }
  refs.clear();
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  EXPECT_EQ(pool.high_water_in_use(), 5u);
  EXPECT_EQ(pool.free_chunks(), 5u);
}

// ----------------------------------------------------- flush buffer + pool ----

TEST(ChunkFlushTest, FlushedSegmentsBorrowThePool) {
  sim::Simulation sim;
  ChunkPool pool{4096};
  FlushBufferConfig config;
  config.capacity = 32;
  config.pool = &pool;
  std::vector<ChunkRef> flushed;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    flushed.push_back(std::move(data));
                  }}};
  buf.append("first line\n");
  buf.append("second line\n");
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].view(), "first line\n");
  EXPECT_EQ(flushed[1].view(), "second line\n");
  // Both segments fit the same 4 KiB chunk: one slab serves many flushes.
  EXPECT_EQ(pool.allocated_chunks(), 1u);
}

TEST(ChunkFlushTest, DefaultConfigPacksLinesIntoOneSlab) {
  // The default capacity equals the 64 KiB slab. Flushed lines must still
  // pack back to back: 1000 in-flight 64-byte lines (62.5 KiB) share one
  // slab instead of taking one slab each.
  sim::Simulation sim;
  ChunkPool pool;
  FlushBufferConfig config;
  ASSERT_EQ(config.capacity, pool.slab_bytes());
  config.pool = &pool;
  std::vector<ChunkRef> flushed;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    flushed.push_back(std::move(data));
                  }}};
  std::string line(63, 'x');
  line.push_back('\n');
  for (int i = 0; i < 1000; ++i) buf.append(line);
  ASSERT_EQ(flushed.size(), 1000u);
  for (const ChunkRef& ref : flushed) ASSERT_EQ(ref.view(), line);
  EXPECT_LE(pool.allocated_chunks(), 2u);
  EXPECT_EQ(pool.oversize_allocations(), 0u);
}

TEST(ChunkFlushTest, IdleWriterHoldsNoChunk) {
  // A flush whose ref the consumer drops at once leaves the writer idle:
  // the chunk goes back to the pool until the next append.
  sim::Simulation sim;
  ChunkPool pool{4096};
  FlushBufferConfig config;
  config.capacity = 1024;
  config.pool = &pool;
  std::string screen;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) { screen += data.view(); }}};
  buf.append("a line long enough to live in the chunk\n");
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  buf.append("a prompt> ");
  EXPECT_EQ(pool.in_use_chunks(), 1u);  // buffered bytes keep the chunk
  buf.append("typed\n");
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  EXPECT_EQ(pool.allocated_chunks(), 1u);  // recycled, not reallocated
  EXPECT_EQ(screen, "a line long enough to live in the chunk\na prompt> typed\n");
}

TEST(ChunkFlushTest, CloseReleasesTheChunkOnceRefsAreDelivered) {
  sim::Simulation sim;
  ChunkPool pool{4096};
  FlushBufferConfig config;
  config.capacity = 1024;
  config.pool = &pool;
  std::vector<ChunkRef> in_flight;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    in_flight.push_back(std::move(data));
                  }}};
  buf.append("first line of the job's output\n");
  buf.append("and its last words, unterminated");
  // The writer keeps packing behind the ref still in flight.
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  buf.close();
  ASSERT_EQ(in_flight.size(), 2u);
  EXPECT_EQ(in_flight[1].view(), "and its last words, unterminated");
  EXPECT_EQ(pool.in_use_chunks(), 1u);  // pinned by the refs alone
  in_flight.clear();
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  EXPECT_EQ(pool.free_chunks(), 1u);
}

TEST(ChunkFlushTest, RolloverMovesOpenSegmentIntact) {
  // Appends without a newline that straddle the chunk end: the open segment
  // moves whole into a fresh chunk, so every flush is one contiguous view.
  sim::Simulation sim;
  ChunkPool pool{256};
  FlushBufferConfig config;
  config.capacity = 100;
  config.flush_on_newline = false;
  config.pool = &pool;
  std::vector<ChunkRef> flushed;
  FlushBuffer buf{sim, config,
                  FlushBuffer::FlushFn{[&](ChunkRef data) {
                    flushed.push_back(std::move(data));
                  }}};
  std::string input;
  for (int i = 0; i < 70; ++i) {
    const std::string piece(7, static_cast<char>('a' + i % 26));
    input += piece;
    buf.append(piece);
  }
  buf.flush();
  std::string out;
  for (const ChunkRef& ref : flushed) {
    EXPECT_LE(ref.size(), config.capacity);
    out += ref.view();
  }
  EXPECT_EQ(out, input);
  EXPECT_EQ(pool.oversize_allocations(), 0u);
  // 490 bytes over 256-byte slabs: the segments that straddled a chunk end
  // were copied out, so the writer moved on at least twice.
  const std::size_t slabs = pool.allocated_chunks();
  EXPECT_GE(slabs, 3u);
  // Dropping the flushed refs returns every chunk but the writer's current
  // one to the free list.
  flushed.clear();
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  EXPECT_EQ(pool.free_chunks(), slabs - 1);
}

/// A 64-byte numbered output line.
std::string burst_line(int i) {
  std::string line = "line " + std::to_string(i) + " ";
  line.append(63 - line.size(), '.');
  line.push_back('\n');
  return line;
}

/// Console config whose agent and shadow buffers draw from `pool`.
GridConsoleConfig config_over(jdl::StreamingMode mode, ChunkPool& pool) {
  GridConsoleConfig config;
  config.mode = mode;
  config.agent_buffer.pool = &pool;
  config.shadow_buffer.pool = &pool;
  return config;
}

class ConsoleBurstTest : public ::testing::TestWithParam<jdl::StreamingMode> {};

TEST_P(ConsoleBurstTest, InFlightBurstHoldsAtMostTwoSlabs) {
  // A 600-line burst written before the engine runs is all in flight at
  // once. With the default buffer configuration the console still holds at
  // most two slabs of the pool it is given, and every line reaches the
  // screen in order.
  sim::Simulation sim;
  sim::Network network{Rng{11}};
  network.add_link("ui", "wn0", sim::LinkSpec::campus());
  ChunkPool pool;
  std::string screen;
  GridConsole console{sim, network, config_over(GetParam(), pool), "ui",
                      ConsoleShadow::ChunkSink{[&](ChunkRef data) {
                        screen += data.view();
                      }},
                      Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  std::string expected;
  for (int i = 0; i < 600; ++i) {
    const std::string line = burst_line(i);
    expected += line;
    agent.write_stdout(line);
  }
  EXPECT_GE(pool.allocated_chunks(), 1u);  // the console really uses `pool`
  EXPECT_LE(pool.allocated_chunks(), 2u);
  sim.run();
  EXPECT_EQ(screen, expected);
  EXPECT_LE(pool.allocated_chunks(), 2u);
  EXPECT_EQ(pool.oversize_allocations(), 0u);
}

TEST_P(ConsoleBurstTest, ClosedConsoleHoldsNoChunk) {
  // Once the job's console is closed and its output delivered, neither the
  // agent's writer nor the shadow's screen buffer pins a slab.
  sim::Simulation sim;
  sim::Network network{Rng{11}};
  network.add_link("ui", "wn0", sim::LinkSpec::campus());
  ChunkPool pool;
  std::string screen;
  GridConsole console{sim, network, config_over(GetParam(), pool), "ui",
                      ConsoleShadow::ChunkSink{[&](ChunkRef data) {
                        screen += data.view();
                      }},
                      Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  std::string expected;
  for (int i = 0; i < 100; ++i) {
    const std::string line = burst_line(i);
    expected += line;
    agent.write_stdout(line);
  }
  const std::string prompt = "a prompt with no newline> ";
  expected += prompt;
  agent.write_stdout(prompt);
  agent.write_stderr("a warning that never ends its line");
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_GE(pool.in_use_chunks(), 1u);  // the unterminated stderr line
  agent.close();
  sim.run();
  EXPECT_GE(pool.allocated_chunks(), 1u);
  EXPECT_EQ(pool.in_use_chunks(), 0u);
  EXPECT_EQ(pool.free_chunks(), pool.allocated_chunks());
  EXPECT_NE(screen.find(expected), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Modes, ConsoleBurstTest,
                         ::testing::Values(jdl::StreamingMode::kFast,
                                           jdl::StreamingMode::kReliable),
                         [](const auto& mode) {
                           return mode.param == jdl::StreamingMode::kFast
                                      ? std::string{"Fast"}
                                      : std::string{"Reliable"};
                         });

TEST(ConsolePoolTest, ManyConsolesRecycleOnePool) {
  // A portal keeps a console object per session. 100 retained consoles,
  // each closed after 50 lines, recycle the same few slabs of one pool.
  sim::Simulation sim;
  sim::Network network{Rng{11}};
  network.add_link("ui", "wn0", sim::LinkSpec::campus());
  ChunkPool pool;
  std::size_t screen_bytes = 0;
  std::vector<std::unique_ptr<GridConsole>> consoles;
  for (int c = 0; c < 100; ++c) {
    consoles.push_back(std::make_unique<GridConsole>(
        sim, network, config_over(jdl::StreamingMode::kFast, pool), "ui",
        ConsoleShadow::ChunkSink{[&](ChunkRef data) { screen_bytes += data.size(); }},
        Rng{static_cast<std::uint64_t>(c + 1)}));
    ConsoleAgent& agent = consoles.back()->add_agent(0, "wn0");
    for (int i = 0; i < 50; ++i) agent.write_stdout(burst_line(i));
    agent.close();
    sim.run();
  }
  EXPECT_EQ(screen_bytes, 100u * 50u * 64u);
  EXPECT_GE(pool.allocated_chunks(), 1u);
  EXPECT_LE(pool.allocated_chunks(), 3u);
  EXPECT_EQ(pool.in_use_chunks(), 0u);
}

// ------------------------------------------------------- pool gauges ----

TEST(ChunkPoolTest, GaugesSumOverEveryAttachedPool) {
  obs::MetricsRegistry metrics;
  const auto gauge = [&](const char* name) {
    const obs::Gauge* g = metrics.find_gauge(name);
    return g != nullptr ? g->value() : -1.0;
  };
  std::vector<ChunkRef> refs;
  {
    ChunkPool a{128};
    ChunkPool b{128};
    a.attach_metrics(metrics);
    b.attach_metrics(metrics);
    for (int i = 0; i < 3; ++i) {
      refs.push_back(ChunkRef::copy_of(std::string(100, 'a'), a));
    }
    for (int i = 0; i < 2; ++i) {
      refs.push_back(ChunkRef::copy_of(std::string(100, 'b'), b));
    }
    EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 5.0);
    EXPECT_EQ(gauge("stream.chunk_pool.allocated"), 5.0);
    EXPECT_EQ(gauge("stream.chunk_pool.high_water"), 5.0);
    refs.clear();
    EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 0.0);
    EXPECT_EQ(gauge("stream.chunk_pool.allocated"), 5.0);
    refs.push_back(ChunkRef::copy_of(std::string(100, 'c'), b));
    EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 1.0);
    EXPECT_EQ(gauge("stream.chunk_pool.high_water"), 5.0);  // peak of the sum
    refs.clear();
  }
  // Destroyed pools withdraw their slabs; the peak stays.
  EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 0.0);
  EXPECT_EQ(gauge("stream.chunk_pool.allocated"), 0.0);
  EXPECT_EQ(gauge("stream.chunk_pool.high_water"), 5.0);
}

TEST(ChunkPoolTest, AttachmentsAreCountedPerRegistry) {
  // Two consoles of one grid attach the same pool to the same registry; the
  // pool's share stays published until the last of them detaches.
  obs::MetricsRegistry metrics;
  const auto gauge = [&](const char* name) {
    const obs::Gauge* g = metrics.find_gauge(name);
    return g != nullptr ? g->value() : -1.0;
  };
  ChunkPool pool{128};
  const ChunkRef held = ChunkRef::copy_of(std::string(100, 'a'), pool);
  pool.attach_metrics(metrics);
  pool.attach_metrics(metrics);
  EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 1.0);
  EXPECT_EQ(gauge("stream.chunk_pool.high_water"), 1.0);
  pool.detach_metrics(metrics);
  const ChunkRef second = ChunkRef::copy_of(std::string(100, 'b'), pool);
  EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 2.0);
  EXPECT_EQ(gauge("stream.chunk_pool.allocated"), 2.0);
  pool.detach_metrics(metrics);
  EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 0.0);
  EXPECT_EQ(gauge("stream.chunk_pool.allocated"), 0.0);
  EXPECT_EQ(gauge("stream.chunk_pool.high_water"), 2.0);
  // Detached: further traffic no longer reaches the registry.
  const ChunkRef third = ChunkRef::copy_of(std::string(100, 'c'), pool);
  EXPECT_EQ(gauge("stream.chunk_pool.in_use"), 0.0);
}

// ------------------------------------------------------------------- ring ----

TEST(RingTest, FifoOrderAcrossGrowth) {
  util::Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingTest, WraparoundKeepsIndicesStable) {
  // Interleave pushes and pops so head/tail lap the backing buffer several
  // times without triggering growth (capacity stays at the minimum of 8).
  util::Ring<int> ring;
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 5; ++i) ring.push_back(next_push++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(ring.front(), next_pop);
      // Front-relative indexing must agree with front()/pop order.
      for (std::size_t j = 0; j < ring.size(); ++j) {
        ASSERT_EQ(ring[j], next_pop + static_cast<int>(j));
      }
      ring.pop_front();
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 8u);  // never grew
}

TEST(RingTest, GrowthMidWrapPreservesOrder) {
  util::Ring<int> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(i);   // full at min capacity
  for (int i = 0; i < 4; ++i) ring.pop_front();    // head mid-buffer
  for (int i = 8; i < 20; ++i) ring.push_back(i);  // forces wrap, then growth
  EXPECT_EQ(ring.size(), 16u);
  for (int i = 4; i < 20; ++i) {
    ASSERT_EQ(ring.front(), i);
    ring.pop_front();
  }
}

TEST(RingTest, PopResetsSlotToDefault) {
  // Popped slots must release held resources immediately: a ChunkRef left in
  // a ring slot would pin its chunk until the slot is overwritten.
  ChunkPool pool{4096};
  util::Ring<ChunkRef> ring;
  ring.push_back(ChunkRef::copy_of(std::string(100, 'x'), pool));
  EXPECT_EQ(pool.in_use_chunks(), 1u);
  ring.pop_front();
  EXPECT_EQ(pool.in_use_chunks(), 0u);
}

// ------------------------------------------------------------- spool ring ----

TEST(SpoolTest, OverflowWraparoundFillAckRefill) {
  // Satellite regression: the spool's per-entry bookkeeping lives in an
  // inline ring. Fill past capacity, ack from the head, refill — many times
  // over, so ring indices wrap the backing buffer repeatedly and capacity
  // accounting stays exact throughout.
  sim::DiskModel disk;
  Spool spool{disk};
  spool.set_capacity(1000);
  std::size_t next_push = 0;
  std::size_t next_ack = 0;
  // Distinct sizes (300 + seq % 7) let front_bytes() prove FIFO identity.
  const auto size_of = [](std::size_t seq) { return 300 + seq % 7; };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(spool.try_push(size_of(next_push)).has_value());
    ++next_push;
  }
  for (int round = 0; round < 20; ++round) {
    // Full: a fourth ~300-byte entry would exceed the 1000-byte cap.
    EXPECT_FALSE(spool.try_push(size_of(next_push)).has_value());
    EXPECT_EQ(spool.depth(), 3u);
    // Ack the head; the freed space admits exactly one more append.
    EXPECT_EQ(spool.front_bytes(), size_of(next_ack));
    spool.pop_acknowledged();
    ++next_ack;
    ASSERT_TRUE(spool.try_push(size_of(next_push)).has_value());
    ++next_push;
  }
  EXPECT_EQ(spool.rejected_appends(), 20u);
  // Drain completely; FIFO identity held across every wraparound.
  while (!spool.empty()) {
    EXPECT_EQ(spool.front_bytes(), size_of(next_ack));
    spool.pop_acknowledged();
    ++next_ack;
  }
  EXPECT_EQ(next_ack, next_push);
  EXPECT_EQ(spool.pending_bytes(), 0u);
}

TEST(SpoolTest, CoalescedAppendIsOneEntry) {
  sim::DiskModel disk;
  Spool spool{disk};
  const Duration batched = spool.push(3000, 3);
  EXPECT_EQ(spool.depth(), 1u);  // one ring entry, one disk op
  EXPECT_EQ(disk.write_ops(), 1u);
  EXPECT_EQ(spool.total_messages(), 3u);
  EXPECT_EQ(spool.total_spooled(), 3000u);
  // One 3000-byte sequential write beats three 1000-byte writes: the
  // per-operation overhead is paid once.
  sim::DiskModel fresh;
  Spool single{fresh};
  const Duration three = single.push(1000) + single.push(1000) + single.push(1000);
  EXPECT_LT(batched.count_micros(), three.count_micros());
}

}  // namespace
}  // namespace cg::stream

// ShardEventQueue, the per-shard scheduler of the sharded engine: calendar
// order under every access pattern the engine produces (sorted buckets,
// wrap-around years, far-future residue events, grow and shrink), the
// delivered lane beside it (tails carried across batches, migration
// extraction), the canonical (t, kind, a, b, seq) tie-break that keeps runs
// bit-identical at any shard count, and retained bytes that follow the
// pending count.
#include "sim/shard_mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nc::sim {
namespace {

ShardEvent shard_event(double t, ShardEventKind kind, NodeId a, NodeId b,
                       std::uint64_t seq) {
  ShardEvent ev;
  ev.t = t;
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  ev.seq = seq;
  return ev;
}

// ---- Calendar order: events that differ only in time and seq ----

/// One delivered ping whose only distinguishing key besides `t` is `id`
/// (carried in seq, the last tie-break).
ShardEvent ping_at(double t, std::uint64_t id) {
  return shard_event(t, ShardEventKind::kPing, 0, 0, id);
}

TEST(ShardEventQueue, EmptyPopsNothing) {
  ShardEventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.has_event_before(1e18));
  EXPECT_THROW((void)q.pop(), CheckError);
}

TEST(ShardEventQueue, PopsInTimeOrder) {
  ShardEventQueue q;
  q.push(ping_at(3.0, 3));
  q.push(ping_at(1.0, 1));
  q.push(ping_at(2.0, 2));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(ShardEventQueue, InterleavedPushAndPop) {
  ShardEventQueue q;
  q.push(ping_at(1.0, 1));
  const ShardEvent e1 = q.pop();
  q.push(ping_at(e1.t + 1.0, 2));
  q.push(ping_at(e1.t + 0.5, 3));
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 2u);
}

TEST(ShardEventQueue, ManyEventsStressOrdering) {
  ShardEventQueue q;
  // Deterministic pseudo-random times.
  std::uint64_t x = 12345;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.push(ping_at(static_cast<double>(x % 100000) / 10.0, i));
  }
  double last = -1.0;
  while (!q.empty()) {
    const ShardEvent e = q.pop();
    ASSERT_GE(e.t, last);
    last = e.t;
  }
}

// Same-timestamp events land in one calendar bucket; they must still pop in
// seq order even when interleaved with earlier/later times and when the
// burst is large enough to trigger bucket-count rebuilds.
TEST(ShardEventQueue, LargeSameTimeBurstPopsInSeqOrder) {
  ShardEventQueue q;
  q.push(ping_at(4.0, 9001));
  for (std::uint64_t i = 0; i < 2000; ++i) q.push(ping_at(5.0, i));
  q.push(ping_at(4.5, 9002));
  EXPECT_EQ(q.pop().seq, 9001u);
  EXPECT_EQ(q.pop().seq, 9002u);
  for (std::uint64_t i = 0; i < 2000; ++i) ASSERT_EQ(q.pop().seq, i);
  EXPECT_TRUE(q.empty());
}

// A steady hold pattern cycles the calendar through many "years" (bucket
// wrap-arounds): order must hold across every wrap.
TEST(ShardEventQueue, HoldPatternSurvivesBucketWrapAround) {
  ShardEventQueue q;
  std::uint64_t x = 99;
  for (std::uint64_t i = 0; i < 64; ++i)
    q.push(ping_at(static_cast<double>(i) / 8.0, i));
  double last = 0.0;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    ASSERT_FALSE(q.empty());
    const ShardEvent e = q.pop();
    ASSERT_GE(e.t, last);
    last = e.t;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mean increment ~8 time units over 64 held events: the active window
    // keeps sliding far past any fixed bucket year.
    q.push(ping_at(e.t + static_cast<double>(x % 1000) / 64.0, i));
  }
  EXPECT_EQ(q.size(), 64u);
}

// Events pushed far beyond the calendar's covered year wait in their
// residue bucket (the overflow case) and must surface exactly in order once
// the near-term traffic drains.
TEST(ShardEventQueue, FarFutureEventsPopAfterNearOnes) {
  ShardEventQueue q;
  q.push(ping_at(1e6, 100));  // years ahead of everything else
  q.push(ping_at(2e6, 200));
  for (std::uint64_t i = 0; i < 100; ++i)
    q.push(ping_at(static_cast<double>(i), i));
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_EQ(q.pop().seq, i);
  EXPECT_EQ(q.pop().seq, 100u);  // cursor jumps a year gap
  EXPECT_EQ(q.pop().seq, 200u);
  EXPECT_TRUE(q.empty());
  // The queue stays usable after draining through the far-future jump.
  q.push(ping_at(3e6, 300));
  EXPECT_EQ(q.pop().seq, 300u);
}

// Grow-then-shrink: a large population resizes the calendar up; draining it
// must shrink back without losing or reordering the survivors.
TEST(ShardEventQueue, ShrinkAfterDrainKeepsRemainingOrder) {
  ShardEventQueue q;
  for (std::uint64_t i = 0; i < 5000; ++i)
    q.push(ping_at(static_cast<double>(i) * 0.01, i));
  for (std::uint64_t i = 0; i < 4990; ++i) ASSERT_EQ(q.pop().seq, i);
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_EQ(q.pop().seq, 4990 + i);
  EXPECT_TRUE(q.empty());
}

// ---- Canonical (t, kind, a, b, seq) order ----

TEST(ShardEventQueue, SameTimeTiesBreakByKindOwnerSenderSeq) {
  ShardEventQueue q;
  // Insert in scrambled order; all at one timestamp.
  q.push(shard_event(7.0, ShardEventKind::kPong, 1, 0, 3));
  q.push(shard_event(7.0, ShardEventKind::kPing, 2, 1, 0));
  q.push(shard_event(7.0, ShardEventKind::kPingTimer, 0, -1, 0));
  q.push(shard_event(7.0, ShardEventKind::kTrack, -1, -1, 0));
  q.push(shard_event(7.0, ShardEventKind::kPing, 1, 1, 5));
  q.push(shard_event(7.0, ShardEventKind::kPing, 1, 1, 2));
  q.push(shard_event(7.0, ShardEventKind::kPing, 1, 0, 9));

  EXPECT_EQ(q.pop().kind, ShardEventKind::kTrack);
  EXPECT_EQ(q.pop().kind, ShardEventKind::kPingTimer);
  ShardEvent e = q.pop();  // kPing ordered by (a, b, seq)
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.b, 0);
  EXPECT_EQ(e.seq, 9u);
  e = q.pop();
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.seq, 2u);
  e = q.pop();
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.seq, 5u);
  e = q.pop();
  EXPECT_EQ(e.a, 2);
  EXPECT_EQ(q.pop().kind, ShardEventKind::kPong);
  EXPECT_TRUE(q.empty());
}

TEST(ShardEventQueue, HasEventBeforeIsAnExclusiveBound) {
  ShardEventQueue q;
  q.push(shard_event(5.0, ShardEventKind::kPingTimer, 0, -1, 0));
  EXPECT_FALSE(q.has_event_before(5.0));
  EXPECT_TRUE(q.has_event_before(5.0001));
  (void)q.pop();
  EXPECT_FALSE(q.has_event_before(1e18));
}

// push_batch is the epoch-delivery path: an arbitrary-order batch (clamped
// deliveries shuffle the canonical order when translated to processing
// keys) must interleave with resident timer events exactly as the
// one-at-a-time path would.
TEST(ShardEventQueue, PushBatchMatchesIndividualPushes) {
  const auto make_events = [] {
    std::vector<ShardEvent> evs;
    std::uint64_t x = 7;
    for (int i = 0; i < 500; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const double t = 10.0 + static_cast<double>(x % 64) / 4.0;  // many ties
      const auto kind = (x >> 8) % 2 == 0 ? ShardEventKind::kPing
                                          : ShardEventKind::kPong;
      evs.push_back(shard_event(t, kind, static_cast<NodeId>((x >> 16) % 16),
                                static_cast<NodeId>((x >> 24) % 16), i));
    }
    return evs;
  };
  const auto timers = [] {
    std::vector<ShardEvent> evs;
    for (int i = 0; i < 32; ++i)
      evs.push_back(shard_event(10.0 + static_cast<double>(i),
                                ShardEventKind::kPingTimer, i, -1, 0));
    return evs;
  };

  ShardEventQueue individual;
  for (const ShardEvent& ev : timers()) individual.push(ev);
  for (const ShardEvent& ev : make_events()) individual.push(ev);

  ShardEventQueue batched;
  for (const ShardEvent& ev : timers()) batched.push(ev);
  std::vector<ShardEvent> batch = make_events();
  batched.push_batch(batch);
  EXPECT_TRUE(batch.empty());  // contents consumed

  while (!individual.empty()) {
    ASSERT_FALSE(batched.empty());
    const ShardEvent a = individual.pop();
    const ShardEvent b = batched.pop();
    ASSERT_EQ(a.t, b.t);
    ASSERT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.a, b.a);
    ASSERT_EQ(a.b, b.b);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(batched.empty());
}

// The mailbox hands push_batch each epoch's events in whatever order the
// senders appended them. The key (t, kind, a, b, seq) is total over a
// batch, so every permutation of one batch must pop the identical events,
// field for field — with and without an unconsumed lane tail to merge.
TEST(ShardEventQueue, PushBatchIsIndependentOfBatchOrder) {
  constexpr double kEpochEnd = 5.0;
  // Many events share the clamped epoch start, so kind, owner, sender and
  // seq decide; some are due past the epoch end. Distinct seq ranges keep
  // the keys of two batches apart.
  const auto make_batch = [](double start, std::uint64_t salt,
                             std::uint64_t first_seq) {
    std::vector<ShardEvent> evs;
    std::uint64_t x = salt;
    for (std::uint64_t i = first_seq; i < first_seq + 300; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto kind = static_cast<ShardEventKind>(2 + (x >> 20) % 3);
      const double t = (x >> 8) % 4 == 0
                           ? start + static_cast<double>((x >> 30) % 64) / 8.0
                           : start;
      ShardEvent ev = shard_event(t, kind, static_cast<NodeId>((x >> 40) % 8),
                                  static_cast<NodeId>((x >> 48) % 8), i);
      ev.t_orig = t - 1.0;
      ev.rtt_ms = static_cast<float>(i);
      ev.gossip = static_cast<NodeId>(i % 13);
      ev.gt_rtt_ms = static_cast<double>(x % 1000);
      ev.sys_coord = Coordinate(Vec{static_cast<double>(i), 1.0, 2.0});
      ev.app_coord = Coordinate(Vec{3.0, static_cast<double>(i), 4.0});
      ev.coord_err = static_cast<double>(i) / 300.0;
      evs.push_back(ev);
    }
    return evs;
  };
  const auto drain = [](ShardEventQueue& q) {
    std::vector<ShardEvent> out;
    while (!q.empty()) out.push_back(q.pop());
    return out;
  };
  const auto expect_identical = [](const std::vector<ShardEvent>& got,
                                   const std::vector<ShardEvent>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const ShardEvent& g = got[i];
      const ShardEvent& w = want[i];
      ASSERT_EQ(g.t, w.t) << "pop " << i;
      ASSERT_EQ(g.kind, w.kind) << "pop " << i;
      ASSERT_EQ(g.a, w.a) << "pop " << i;
      ASSERT_EQ(g.b, w.b) << "pop " << i;
      ASSERT_EQ(g.seq, w.seq) << "pop " << i;
      ASSERT_EQ(g.t_orig, w.t_orig) << "pop " << i;
      ASSERT_EQ(g.rtt_ms, w.rtt_ms) << "pop " << i;
      ASSERT_EQ(g.gossip, w.gossip) << "pop " << i;
      ASSERT_EQ(g.gt_rtt_ms, w.gt_rtt_ms) << "pop " << i;
      ASSERT_EQ(g.sys_coord, w.sys_coord) << "pop " << i;
      ASSERT_EQ(g.app_coord, w.app_coord) << "pop " << i;
      ASSERT_EQ(g.coord_err, w.coord_err) << "pop " << i;
    }
  };
  // With a tail: a first batch is drained up to the epoch end, leaving its
  // later events in the lane for the second batch to merge with.
  const auto run = [&](bool with_tail, const std::vector<ShardEvent>& batch) {
    ShardEventQueue q;
    if (with_tail) {
      std::vector<ShardEvent> first = make_batch(0.0, 5, 0);
      q.push_batch(first);
      while (q.has_event_before(kEpochEnd)) (void)q.pop();
      EXPECT_FALSE(q.empty());
    }
    std::vector<ShardEvent> copy = batch;
    q.push_batch(copy);
    return drain(q);
  };

  const std::vector<ShardEvent> batch = make_batch(kEpochEnd, 11, 1000);
  Rng rng(23);
  for (const bool with_tail : {false, true}) {
    const std::vector<ShardEvent> want = run(with_tail, batch);
    EXPECT_EQ(want.size() > batch.size(), with_tail);
    for (int k = 0; k < 20; ++k) {
      std::vector<ShardEvent> shuffled = batch;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.uniform_int(i)]);
      expect_identical(run(with_tail, shuffled), want);
    }
  }
}

// A lane tail — a pong due past the epoch end, a migrated node's timer —
// survives into the next push_batch and merges with the new batch by the
// canonical key; migration extraction then finds the node's events in lane
// and calendar alike. The reference queue receives the same events one push
// at a time, so both must agree on every extracted and popped event.
TEST(ShardEventQueue, LaneTailMergesWithNextBatchAndExtractsInOrder) {
  ShardEventQueue q;
  ShardEventQueue ref;
  const auto both_push = [&](const ShardEvent& ev) {
    q.push(ev);
    ref.push(ev);
  };
  const auto both_batch = [&](std::vector<ShardEvent> batch) {
    for (const ShardEvent& ev : batch) ref.push(ev);
    q.push_batch(batch);
    EXPECT_TRUE(batch.empty());
  };
  const auto expect_same = [](const ShardEvent& a, const ShardEvent& b) {
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.seq, b.seq);
  };
  const auto run_epoch = [&](double epoch_end) {
    while (ref.has_event_before(epoch_end)) {
      ASSERT_TRUE(q.has_event_before(epoch_end));
      ShardEvent ev = q.pop();
      expect_same(ev, ref.pop());
      if (ev.kind == ShardEventKind::kPingTimer) {  // re-arm one epoch on
        ev.t += 5.0;
        both_push(ev);
      }
    }
    EXPECT_FALSE(q.has_event_before(epoch_end));
  };

  both_push(shard_event(3.0, ShardEventKind::kPingTimer, 1, -1, 0));
  both_push(shard_event(4.0, ShardEventKind::kPingTimer, 2, -1, 0));
  // Epoch [0, 5): two clamped deliveries, a pong for node 1 due at 7.5 and
  // node 5's timer, migrated in with its node, due at 8.0.
  both_batch({shard_event(7.5, ShardEventKind::kPong, 1, 4, 3),
              shard_event(0.0, ShardEventKind::kPong, 1, 3, 2),
              shard_event(8.0, ShardEventKind::kPingTimer, 5, -1, 0),
              shard_event(0.0, ShardEventKind::kPing, 2, 3, 1)});
  run_epoch(5.0);
  ASSERT_EQ(q.size(), 4u);  // lane tail of two + two re-armed timers

  // Epoch [5, 10): the new batch interleaves with the tail, including an
  // equal-time ping that must precede the tail's pong (kind order).
  both_batch({shard_event(7.5, ShardEventKind::kPing, 5, 1, 5),
              shard_event(5.0, ShardEventKind::kPing, 1, 2, 4),
              shard_event(12.0, ShardEventKind::kPong, 1, 2, 6)});
  ASSERT_EQ(q.size(), 7u);

  std::vector<ShardEvent> got;
  std::vector<ShardEvent> want;
  q.extract_node_events(1, got);
  ref.extract_node_events(1, want);
  ASSERT_EQ(got.size(), 4u);  // ping 5.0, pong 7.5, timer 8.0, pong 12.0
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_same(got[i], want[i]);
  EXPECT_EQ(got[1].kind, ShardEventKind::kPong);  // the carried tail
  EXPECT_EQ(got[2].kind, ShardEventKind::kPingTimer);  // from the calendar

  ASSERT_EQ(q.size(), 3u);
  run_epoch(10.0);
  run_epoch(15.0);
  EXPECT_EQ(q.size(), ref.size());
}

// The engine's rhythm — one timer per node re-armed every epoch plus one
// epoch-clamped delivery batch, as in BM_ShardEventQueueEpochBatch — must
// retain bytes in proportion to what is pending at once, not to the number
// of epochs absorbed. (A calendar that kept every drained batch's storage
// in the bucket its day mapped to grew toward buckets x batch.)
TEST(ShardEventQueue, RetainedBytesTrackPendingHighWater) {
  constexpr int kNodes = 64;
  constexpr int kBatch = 128;
  constexpr int kEpochs = 1500;
  constexpr double kInterval = 5.0;
  std::uint64_t x = 17;
  const auto next = [&x](std::uint64_t n) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % n;
  };

  ShardEventQueue q;
  for (int i = 0; i < kNodes; ++i)
    q.push(shard_event(static_cast<double>(next(5000)) / 1000.0,
                       ShardEventKind::kPingTimer, i, -1, 0));
  std::vector<ShardEvent> batch;
  std::size_t high_water = q.size();
  std::uint64_t seq = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const double start = static_cast<double>(e) * kInterval;
    for (int i = 0; i < kBatch; ++i)
      batch.push_back(shard_event(
          start, i % 2 == 0 ? ShardEventKind::kPing : ShardEventKind::kPong,
          static_cast<NodeId>(next(kNodes)), static_cast<NodeId>(next(kNodes)),
          seq++));
    q.push_batch(batch);
    high_water = std::max(high_water, q.size());
    while (q.has_event_before(start + kInterval)) {
      ShardEvent ev = q.pop();
      if (ev.kind == ShardEventKind::kPingTimer) {
        ev.t += kInterval;
        q.push(ev);
      }
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kNodes));
  EXPECT_LE(q.memory_bytes(), 3 * high_water * sizeof(ShardEvent))
      << "pending high-water " << high_water << " events";
}

// Far-future track ticks coexist with near-term timer traffic across many
// bucket wrap-arounds — the sharded constructor's exact layout.
TEST(ShardEventQueue, TrackTicksSurviveAmongDenseTimers) {
  ShardEventQueue q;
  for (int k = 1; k <= 5; ++k)
    q.push(shard_event(600.0 * k, ShardEventKind::kTrack, -1, -1, 0));
  for (int i = 0; i < 200; ++i)
    q.push(shard_event(static_cast<double>(i) * 0.025,
                       ShardEventKind::kPingTimer, i, -1, 0));
  double last = 0.0;
  int ticks = 0, timers = 0;
  // Hold pattern: every popped timer re-arms 5s ahead until past the ticks.
  while (!q.empty()) {
    const ShardEvent ev = q.pop();
    ASSERT_GE(ev.t, last);
    last = ev.t;
    if (ev.kind == ShardEventKind::kTrack) {
      ++ticks;
    } else {
      ++timers;
      if (ev.t < 3300.0)
        q.push(shard_event(ev.t + 5.0, ShardEventKind::kPingTimer, ev.a, -1,
                           ev.seq + 1));
    }
  }
  EXPECT_EQ(ticks, 5);
  EXPECT_GT(timers, 200 * 600);  // ~660 re-arms per timer chain
}

}  // namespace
}  // namespace nc::sim

// EpochMailbox, the epoch hand-off between shards: every sent event reaches
// its receiver exactly once with its time clamped to the delivering epoch,
// dst-error records merge into their canonical order, and a steady-state
// epoch reuses every buffer.
#include "sim/shard_mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nc::sim {
namespace {

constexpr double kInterval = 5.0;

/// Sender s's traffic in the epoch [epoch_start, epoch_start + kInterval):
/// per node and receiver, a ping stamped with its processing time, a pong
/// whose stochastic time may fall past the next boundary, and a dst-error
/// record at the processing time — each kind in the order the engine's
/// queue emits it. Every sent event is appended to `sent` (when given).
void emit_epoch(EpochMailbox& mb, int shards, double epoch_start,
                int per_sender, std::vector<std::uint64_t>& seqs,
                std::vector<ShardEvent>* sent = nullptr) {
  Rng rng(static_cast<std::uint64_t>(epoch_start) + 17);
  for (int s = 0; s < shards; ++s) {
    auto& seq = seqs[static_cast<std::size_t>(s)];
    for (int i = 0; i < per_sender; ++i) {
      const double t = epoch_start + static_cast<double>(i) * 0.01;
      const NodeId from = static_cast<NodeId>(s * 100 + i % 7);
      for (int r = 0; r < shards; ++r) {
        const NodeId to = static_cast<NodeId>(r * 100 + i % 5);
        ShardEvent& ping = mb.append(s, r);
        ping.t = ping.t_orig = t;
        ping.kind = ShardEventKind::kPing;
        ping.a = to;
        ping.b = from;
        ping.seq = seq++;
        ping.rtt_ms = static_cast<float>(i + 1);
        if (sent != nullptr) sent->push_back(ping);

        ShardEvent& pong = mb.append(s, r);
        pong.t = pong.t_orig = epoch_start + rng.uniform(0.0, 2.0 * kInterval);
        pong.kind = ShardEventKind::kPong;
        pong.a = to;
        pong.b = from;
        pong.seq = seq++;
        pong.sys_coord = Coordinate(Vec{pong.t, 1.0, 2.0});
        if (sent != nullptr) sent->push_back(pong);

        mb.send_dst_error(s, r, DstErrorRecord{t, from, to, seq++, 0.5});
      }
    }
  }
}

[[nodiscard]] auto event_id(const ShardEvent& ev) {
  return std::make_tuple(ev.kind, ev.a, ev.b, ev.seq);
}

// Every event a receiver's column holds comes out once, with its processing
// time clamped up to the delivering boundary and every other field intact;
// events already staged (a migrated node's pending ones) stay first and
// keep their time.
TEST(EpochMailbox, EveryEventDeliveredOnceWithClampedTime) {
  const int W = 3;
  EpochMailbox mb(W);
  std::vector<std::uint64_t> seqs(W, 0);
  std::vector<ShardEvent> sent;
  emit_epoch(mb, W, 0.0, 11, seqs, &sent);
  const double boundary = kInterval;

  std::size_t delivered = 0;
  for (int r = 0; r < W; ++r) {
    ShardEvent migrated;
    migrated.t = boundary - 1.0;  // unclamped even though before the boundary
    migrated.kind = ShardEventKind::kPingTimer;
    migrated.a = static_cast<NodeId>(r * 100 + 99);
    std::vector<ShardEvent> staging{migrated};
    mb.collect_events_into(r, boundary, staging);
    ASSERT_FALSE(staging.empty());
    EXPECT_EQ(staging.front().t, boundary - 1.0);
    EXPECT_EQ(staging.front().a, migrated.a);
    staging.erase(staging.begin());

    std::vector<ShardEvent> expected;
    for (const ShardEvent& ev : sent)
      if (ev.a / 100 == r) expected.push_back(ev);
    ASSERT_EQ(staging.size(), expected.size()) << "receiver " << r;
    const auto by_id = [](const ShardEvent& x, const ShardEvent& y) {
      return event_id(x) < event_id(y);
    };
    std::sort(staging.begin(), staging.end(), by_id);
    std::sort(expected.begin(), expected.end(), by_id);
    for (std::size_t i = 0; i < staging.size(); ++i) {
      const ShardEvent& got = staging[i];
      const ShardEvent& want = expected[i];
      ASSERT_EQ(event_id(got), event_id(want)) << "receiver " << r << " pos " << i;
      EXPECT_EQ(got.t, std::max(want.t_orig, boundary));
      EXPECT_EQ(got.t_orig, want.t_orig);
      EXPECT_EQ(got.rtt_ms, want.rtt_ms);
      EXPECT_EQ(got.sys_coord, want.sys_coord);
    }
    delivered += staging.size();
    for (int s = 0; s < W; ++s) EXPECT_TRUE(mb.cell(s, r).events.empty());
  }
  EXPECT_EQ(delivered, sent.size());
}

// The k-way dst-error merge must reproduce what a gather-then-sort by
// (t, from, to, seq) gives: the per-destination order the streaming medians
// consume.
TEST(EpochMailbox, MergeEqualsCanonicalSort) {
  const int W = 3;
  EpochMailbox mb(W);
  std::vector<std::uint64_t> seqs(W, 0);
  emit_epoch(mb, W, 0.0, 11, seqs);

  for (int r = 0; r < W; ++r) {
    // Reference: gather every run destined to r, then sort.
    std::vector<DstErrorRecord> expected;
    for (int s = 0; s < W; ++s) {
      const auto& run = mb.cell(s, r).dst_errors;
      expected.insert(expected.end(), run.begin(), run.end());
    }
    std::sort(expected.begin(), expected.end(), &dst_error_less);

    std::vector<DstErrorRecord> out;
    mb.collect_dst_errors_into(r, out);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, expected[i].t) << "receiver " << r << " pos " << i;
      ASSERT_EQ(out[i].from, expected[i].from);
      ASSERT_EQ(out[i].to, expected[i].to);
      ASSERT_EQ(out[i].seq, expected[i].seq);
      ASSERT_EQ(out[i].err, expected[i].err);
    }
    // Runs are reset for the next epoch.
    for (int s = 0; s < W; ++s) EXPECT_TRUE(mb.cell(s, r).dst_errors.empty());
  }
}

TEST(EpochMailbox, CollectIntoClearsStaleOutput) {
  EpochMailbox mb(2);
  std::vector<DstErrorRecord> out(7);  // stale junk from a previous epoch
  mb.collect_dst_errors_into(0, out);
  EXPECT_TRUE(out.empty());
  mb.send_dst_error(1, 0, DstErrorRecord{1.0, 100, 1, 0, 0.25});
  mb.collect_dst_errors_into(0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, 100);
}

// The no-reallocation contract of the steady state: with the capacity hints
// sized for the per-epoch traffic, a second identical epoch reuses every
// buffer — both runs of every cell, the staging buffers and the dst-error
// buffers keep their exact capacity and data pointers.
TEST(EpochMailbox, SecondEpochReallocatesNothing) {
  const int W = 2;
  const int kPerSender = 9;
  EpochMailbox mb(W, /*event_hint=*/2 * kPerSender,
                  /*dst_error_hint=*/kPerSender);
  std::vector<std::uint64_t> seqs(W, 0);
  std::vector<ShardEvent> staging[W];
  std::vector<DstErrorRecord> dst_errors[W];
  const auto deliver = [&](double boundary) {
    for (int r = 0; r < W; ++r) {
      staging[r].clear();  // what push_batch leaves behind
      mb.collect_events_into(r, boundary, staging[r]);
      mb.collect_dst_errors_into(r, dst_errors[r]);
    }
  };

  // Epoch 1: warm every buffer.
  emit_epoch(mb, W, 0.0, kPerSender, seqs);
  deliver(kInterval);

  struct Snapshot {
    const void* data;
    std::size_t capacity;
  };
  const auto snapshot = [&] {
    std::vector<Snapshot> snaps;
    for (int s = 0; s < W; ++s) {
      for (int r = 0; r < W; ++r) {
        const EpochMailbox::Cell& cell = mb.cell(s, r);
        snaps.push_back({cell.events.data(), cell.events.capacity()});
        snaps.push_back({cell.dst_errors.data(), cell.dst_errors.capacity()});
      }
    }
    for (int r = 0; r < W; ++r) {
      snaps.push_back({staging[r].data(), staging[r].capacity()});
      snaps.push_back({dst_errors[r].data(), dst_errors[r].capacity()});
    }
    return snaps;
  };
  const std::vector<Snapshot> warm = snapshot();

  // Epoch 2: same traffic shape.
  emit_epoch(mb, W, kInterval, kPerSender, seqs);
  deliver(2.0 * kInterval);

  const std::vector<Snapshot> after = snapshot();
  ASSERT_EQ(after.size(), warm.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(after[i].data, warm[i].data) << "buffer " << i << " reallocated";
    EXPECT_EQ(after[i].capacity, warm[i].capacity) << "buffer " << i;
  }
}

TEST(EpochMailbox, CapacityHintPresizesRuns) {
  EpochMailbox mb(2, 32, 16);
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 2; ++r) {
      EXPECT_GE(mb.cell(s, r).events.capacity(), 32u);
      EXPECT_GE(mb.cell(s, r).dst_errors.capacity(), 16u);
    }
  }
  EXPECT_THROW(EpochMailbox(0), CheckError);
}

}  // namespace
}  // namespace nc::sim

#include "latency/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "latency/trace_generator.hpp"

namespace nc::lat {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceIo, WriteReadRoundTrip) {
  const std::string path = temp_path("roundtrip.nctr");
  {
    TraceWriter w(path, 5);
    w.append({0.5, 0, 1, 12.5f});
    w.append({1.5, 2, 3, 200.0f});
    w.close();
    EXPECT_EQ(w.written(), 2u);
  }
  TraceReader r(path);
  EXPECT_EQ(r.num_nodes(), 5);
  EXPECT_EQ(r.record_count(), 2u);
  const auto a = r.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->t_s, 0.5);
  EXPECT_EQ(a->src, 0);
  EXPECT_EQ(a->dst, 1);
  EXPECT_EQ(a->rtt_ms, 12.5f);
  const auto b = r.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->src, 2);
  EXPECT_EQ(r.next(), std::nullopt);
}

TEST(TraceIo, DestructorClosesAndPatchesCount) {
  const std::string path = temp_path("dtor.nctr");
  {
    TraceWriter w(path, 3);
    w.append({0.0, 0, 1, 1.0f});
  }  // no explicit close
  TraceReader r(path);
  EXPECT_EQ(r.record_count(), 1u);
}

TEST(TraceIo, RejectsGarbageFile) {
  const std::string path = temp_path("garbage.nctr");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a trace";
  }
  EXPECT_THROW(TraceReader{path}, CheckError);
}

// A body cut short of the header's record count (a damaged partition
// slice) must fail loudly, naming both counts, not end the replay early.
TEST(TraceIo, TruncatedBodyRejectedNamingBothCounts) {
  const std::string path = temp_path("truncated.nctr");
  {
    TraceWriter w(path, 4);
    for (int i = 0; i < 5; ++i)
      w.append({static_cast<double>(i), 0, 1, 10.0f});
  }
  // Cut the last 20-byte record in half.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);
  TraceReader r(path);
  EXPECT_EQ(r.record_count(), 5u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(r.next().has_value());
  try {
    (void)r.next();
    FAIL() << "a truncated body must not end the stream cleanly";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("declares 5 records"), std::string::npos) << what;
    EXPECT_NE(what.find("ends after 4"), std::string::npos) << what;
  }
}

// Records cross the writer's and the reader's block boundaries unchanged,
// in the 20-byte format.
TEST(TraceIo, RoundTripAcrossBlockBoundaries) {
  const std::string path = temp_path("blocks.nctr");
  const std::size_t n = 2 * kTraceBlockRecords + 7;
  const auto record = [](std::size_t i) {
    return TraceRecord{0.25 * static_cast<double>(i), static_cast<NodeId>(i % 5),
                       static_cast<NodeId>((i + 1) % 5),
                       1.0f + static_cast<float>(i) / 3.0f};
  };
  {
    TraceWriter w(path, 5);
    for (std::size_t i = 0; i < n; ++i) w.append(record(i));
    w.close();
  }
  EXPECT_EQ(std::filesystem::file_size(path), 20 + 20 * n);
  TraceReader r(path);
  ASSERT_EQ(r.record_count(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto got = r.next();
    ASSERT_TRUE(got.has_value()) << i;
    const TraceRecord want = record(i);
    ASSERT_EQ(got->t_s, want.t_s) << i;
    ASSERT_EQ(got->src, want.src) << i;
    ASSERT_EQ(got->dst, want.dst) << i;
    ASSERT_EQ(got->rtt_ms, want.rtt_ms) << i;
    ASSERT_EQ(got->gt_rtt_ms, 0.0) << i;  // files carry no ground truth
  }
  EXPECT_EQ(r.next(), std::nullopt);
}

// A full disk must fail the close that claims the file complete, not a
// shard worker reading a "truncated trace" mid-run. The destructor of an
// unclosed writer on the same device stays quiet.
TEST(TraceWriter, FullDeviceFailsAtClose) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  TraceWriter w("/dev/full", 4);
  for (int i = 0; i < 100000; ++i) w.append({static_cast<double>(i), 0, 1, 1.0f});
  EXPECT_EQ(w.written(), 100000u);
  EXPECT_THROW(w.close(), CheckError);
  {
    TraceWriter unclosed("/dev/full", 4);
    unclosed.append({0.0, 0, 1, 1.0f});
  }  // best-effort close, no throw
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(TraceReader{temp_path("does-not-exist.nctr")}, CheckError);
}

TEST(TraceIo, AppendAfterCloseRejected) {
  const std::string path = temp_path("closed.nctr");
  TraceWriter w(path, 2);
  w.close();
  EXPECT_THROW(w.append({0.0, 0, 1, 1.0f}), CheckError);
}

TEST(TraceIo, CsvExport) {
  const std::string bin = temp_path("csv-src.nctr");
  {
    TraceWriter w(bin, 3);
    w.append({1.0, 0, 1, 10.0f});
    w.append({2.0, 1, 2, 20.0f});
  }
  TraceReader r(bin);
  const std::string csv = temp_path("out.csv");
  EXPECT_EQ(export_csv(r, csv), 2u);
  std::ifstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t_s,src,dst,rtt_ms");
  std::getline(in, line);
  EXPECT_EQ(line, "1,0,1,10");
}

// ----------------------------------------------------------- Partitioner --

TEST(TracePartition, SplitsByDstOwnerShardPreservingOrder) {
  const std::string src_path = temp_path("part-src.nctr");
  {
    TraceWriter w(src_path, 8);
    // dst cycles all shards; times strictly increase.
    for (int i = 0; i < 40; ++i)
      w.append({static_cast<double>(i), static_cast<NodeId>(i % 8),
                static_cast<NodeId>((i + 1) % 8), 10.0f + static_cast<float>(i)});
  }
  TraceReader src(src_path);
  const auto paths = partition_trace(src, temp_path("part"), 8, 3);
  ASSERT_EQ(paths.size(), 3u);

  std::uint64_t total = 0;
  for (int s = 0; s < 3; ++s) {
    TraceReader slice(paths[static_cast<std::size_t>(s)]);
    EXPECT_EQ(slice.num_nodes(), 8);
    double last_t = -1.0;
    while (auto r = slice.next()) {
      // Routed by the ONE partition function, original order preserved.
      EXPECT_EQ(shard_of_node(r->dst, 8, 3), s);
      EXPECT_GT(r->t_s, last_t);
      last_t = r->t_s;
      ++total;
    }
  }
  EXPECT_EQ(total, 40u);  // nothing dropped, nothing duplicated
}

TEST(TracePartition, SingleShardSliceEqualsTheSource) {
  const std::string src_path = temp_path("part1-src.nctr");
  generate_trace_file(
      [] {
        TraceGenConfig c;
        c.topology.num_nodes = 8;
        c.duration_s = 60.0;
        c.seed = 33;
        c.availability.enabled = false;
        return c;
      }(),
      src_path);
  TraceReader src(src_path);
  const auto paths = partition_trace(src, temp_path("part1"), 8, 1);
  ASSERT_EQ(paths.size(), 1u);
  TraceReader slice(paths[0]);
  TraceReader ref(src_path);
  EXPECT_EQ(slice.record_count(), ref.record_count());
  while (auto expect = ref.next()) {
    const auto got = slice.next();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->t_s, expect->t_s);
    ASSERT_EQ(got->src, expect->src);
    ASSERT_EQ(got->dst, expect->dst);
    ASSERT_EQ(got->rtt_ms, expect->rtt_ms);
  }
}

TEST(TracePartition, RejectsBadArguments) {
  const std::string src_path = temp_path("partbad-src.nctr");
  {
    TraceWriter w(src_path, 8);
    w.append({0.0, 0, 1, 1.0f});
  }
  TraceReader a(src_path);
  EXPECT_THROW(partition_trace(a, temp_path("partbad"), 8, 0), CheckError);
  TraceReader b(src_path);
  // Partition node space must cover the trace's.
  EXPECT_THROW(partition_trace(b, temp_path("partbad"), 4, 2), CheckError);
}

/// Yields `good` well-formed records, then one whose dst is out of range.
class BadDstSource final : public TraceSource {
 public:
  explicit BadDstSource(int good) : good_(good) {}
  std::optional<TraceRecord> next() override {
    const int i = i_++;
    return TraceRecord{static_cast<double>(i), 0, i < good_ ? 1 + i % 11 : 99, 5.0f};
  }
  int num_nodes() const override { return 12; }

 private:
  int good_;
  int i_ = 0;
};

// A split that throws part-way (a truncated input, a bad dst id) must not
// leave slice files behind: the caller never receives their paths.
TEST(PartitionTrace, ThrowingSourceLeavesNoSlices) {
  const std::string src_path = temp_path("part-throw-src.nctr");
  {
    TraceWriter w(src_path, 12);
    for (int i = 0; i < 50; ++i)
      w.append({static_cast<double>(i), static_cast<NodeId>(i % 12),
                static_cast<NodeId>((i + 5) % 12), 10.0f});
  }
  std::filesystem::resize_file(src_path, std::filesystem::file_size(src_path) - 30);
  const std::string prefix = temp_path("part-throw");
  const auto no_slices = [&](int shards) {
    for (int s = 0; s < shards; ++s)
      if (std::filesystem::exists(prefix + ".shard" + std::to_string(s))) return false;
    return true;
  };

  TraceReader truncated(src_path);
  EXPECT_THROW(partition_trace(truncated, prefix, 12, 2), CheckError);
  EXPECT_TRUE(no_slices(2));

  BadDstSource bad_dst(4000);  // fails after the first block of one slice
  EXPECT_THROW(partition_trace(bad_dst, prefix, 12, 3), CheckError);
  EXPECT_TRUE(no_slices(3));
}

// ------------------------------------------------------------- Generator --

TraceGenConfig small_config() {
  TraceGenConfig c;
  c.topology.num_nodes = 8;
  c.duration_s = 120.0;
  c.seed = 33;
  c.availability.enabled = false;
  c.link_model.loss_prob = 0.0;
  return c;
}

TEST(TraceGenerator, RecordsAreTimeOrderedAndValid) {
  TraceGenerator gen(small_config());
  double last_t = 0.0;
  std::uint64_t n = 0;
  while (auto r = gen.next()) {
    ASSERT_GE(r->t_s, last_t);
    ASSERT_LT(r->t_s, 120.0);
    ASSERT_GE(r->src, 0);
    ASSERT_LT(r->src, 8);
    ASSERT_GE(r->dst, 0);
    ASSERT_LT(r->dst, 8);
    ASSERT_NE(r->src, r->dst);
    ASSERT_GT(r->rtt_ms, 0.0f);
    last_t = r->t_s;
    ++n;
  }
  // 8 nodes at 1 Hz for 120 s, no loss/churn: ~960 records.
  EXPECT_NEAR(static_cast<double>(n), 960.0, 16.0);
  EXPECT_EQ(gen.produced(), n);
}

TEST(TraceGenerator, RoundRobinCoversAllPartners) {
  TraceGenerator gen(small_config());
  std::set<NodeId> partners_of_3;
  while (auto r = gen.next())
    if (r->src == 3) partners_of_3.insert(r->dst);
  EXPECT_EQ(partners_of_3.size(), 7u);  // every other node
}

TEST(TraceGenerator, DeterministicBySeed) {
  TraceGenerator a(small_config());
  TraceGenerator b(small_config());
  while (true) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra.has_value()) break;
    ASSERT_EQ(ra->t_s, rb->t_s);
    ASSERT_EQ(ra->src, rb->src);
    ASSERT_EQ(ra->dst, rb->dst);
    ASSERT_EQ(ra->rtt_ms, rb->rtt_ms);
  }
}

TEST(TraceGenerator, LossReducesYield) {
  TraceGenConfig c = small_config();
  c.link_model.loss_prob = 0.3;
  TraceGenerator gen(c);
  std::uint64_t n = 0;
  while (gen.next()) ++n;
  EXPECT_LT(static_cast<double>(n), 0.8 * static_cast<double>(gen.attempts()));
  EXPECT_GT(static_cast<double>(n), 0.5 * static_cast<double>(gen.attempts()));
}

TEST(TraceGenerator, PingIntervalControlsRate) {
  TraceGenConfig c = small_config();
  c.ping_interval_s = 10.0;
  TraceGenerator gen(c);
  std::uint64_t n = 0;
  while (gen.next()) ++n;
  EXPECT_NEAR(static_cast<double>(n), 96.0, 10.0);
}

TEST(TraceGenerator, FileGenerationMatchesStreaming) {
  const std::string path = temp_path("gen.nctr");
  const auto written = generate_trace_file(small_config(), path);
  TraceReader r(path);
  EXPECT_EQ(r.record_count(), written);
  EXPECT_EQ(r.num_nodes(), 8);

  TraceGenerator gen(small_config());
  std::uint64_t matched = 0;
  while (auto expect = gen.next()) {
    const auto got = r.next();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->t_s, expect->t_s);
    ASSERT_EQ(got->rtt_ms, expect->rtt_ms);
    ++matched;
  }
  EXPECT_EQ(matched, written);
}

TEST(TraceGenerator, DefaultWorkersFollowNodeCount) {
  EXPECT_EQ(TraceGenerator::default_workers(8), 1);
  EXPECT_EQ(TraceGenerator::default_workers(TraceGenerator::kMinParallelNodes - 1), 1);
  const int big = TraceGenerator::default_workers(2048);
  EXPECT_GE(big, 1);
  EXPECT_LE(big, TraceGenerator::kMaxWorkers);
  EXPECT_EQ(TraceGenerator(small_config()).workers(), 1);
  EXPECT_THROW(TraceGenerator(small_config(), 0), CheckError);
}

// Generated records carry the link's ground truth at sample time: after
// the drain, the network answers the same value for every record's link
// at its last sample.
TEST(TraceGenerator, StampsGroundTruth) {
  TraceGenerator gen(small_config(), 2);
  EXPECT_TRUE(gen.stamps_ground_truth());
  std::vector<TraceRecord> last(64);
  while (auto r = gen.next()) {
    ASSERT_GT(r->gt_rtt_ms, 0.0);
    last[static_cast<std::size_t>(std::min(r->src, r->dst) * 8 + std::max(r->src, r->dst))] = *r;
  }
  for (const TraceRecord& r : last) {
    if (r.src == kInvalidNode) continue;
    EXPECT_EQ(gen.network().ground_truth_rtt(r.src, r.dst, r.t_s), r.gt_rtt_ms);
  }
}

// A throw inside a link-stage worker surfaces from next() on the calling
// thread, and keeps surfacing. Link (0, 1) is pushed past the end of the
// trace before the first next(), so the worker that later samples it finds
// its clock going backwards.
TEST(TraceGenerator, WorkerFailureSurfacesFromNext) {
  for (int workers : {2, 3}) {
    TraceGenerator gen(small_config(), workers);
    (void)gen.network().ground_truth_rtt(0, 1, 1e6);
    const auto drain = [&gen] {
      while (gen.next()) {
      }
    };
    EXPECT_THROW(drain(), CheckError) << "W=" << workers;
    EXPECT_THROW((void)gen.next(), CheckError) << "W=" << workers;
  }
}

// The destructor joins the workers whether the generator was drained, read
// part-way (chunks still queued ahead of the reader) or never read.
TEST(TraceGenerator, DestructorJoinsWorkersAtAnyPoint) {
  TraceGenConfig c = small_config();
  c.topology.num_nodes = 200;
  c.duration_s = 600.0;
  { TraceGenerator never_read(c, 4); }
  {
    TraceGenerator part_read(c, 4);
    ASSERT_TRUE(part_read.next().has_value());
  }
  TraceGenerator drained(c, 4);
  while (drained.next()) {
  }
  EXPECT_EQ(drained.attempts(), 200u * 600u);
}

// The generator's bytes split by part and add up to its total, and its
// link lanes cost at most 125 bytes per touched link: a 96-byte slot plus
// its share of the row indexes and of each lane's last, partly filled slab
// block. A PlanetLab-sized trace (269 nodes) over 900 s touches most
// of its 36k links. A scheduled route step shows in its own part.
TEST(TraceGenerator, MemoryBytesSumTheirPartsPerTouchedLink) {
  TraceGenConfig c;
  c.topology.num_nodes = 269;
  c.duration_s = 900.0;
  c.seed = 41;
  for (int workers : {1, 4}) {
    TraceGenerator gen(c, workers);
    gen.network().schedule_route_change(3, 7, 1.5, 450.0);
    while (gen.next()) {
    }
    const TraceGenMemory m = gen.memory_bytes();
    EXPECT_EQ(m.total(), m.link_bytes + m.route_schedule_bytes + m.node_bytes +
                             m.chunk_bytes + m.ping_schedule_bytes);
    EXPECT_GT(m.route_schedule_bytes, 0u);
    EXPECT_GT(m.node_bytes, 0u);
    EXPECT_GT(m.chunk_bytes, 0u);
    EXPECT_GT(m.ping_schedule_bytes, 0u);
    const std::size_t links = gen.network().link_count();
    EXPECT_GT(links, 25000u) << "W=" << workers;
    EXPECT_LE(m.link_bytes / links, 125u) << "W=" << workers;
  }
}

TEST(TraceGenerator, ChurnSuppressesDownNodes) {
  TraceGenConfig c = small_config();
  c.availability.enabled = true;
  c.availability.initial_up_prob = 0.5;
  c.availability.mean_up_s = 1e9;   // whoever starts up stays up
  c.availability.mean_down_s = 1e9; // whoever starts down stays down
  TraceGenerator gen(c);
  std::set<NodeId> sources;
  while (auto r = gen.next()) sources.insert(r->src);
  EXPECT_LT(sources.size(), 8u);  // some nodes never ping
  EXPECT_GE(sources.size(), 1u);
}

}  // namespace
}  // namespace nc::lat

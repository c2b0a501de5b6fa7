// run_open_loop (serve/load_generator.hpp) against a hand-fed publisher:
// the latency histogram holds answered queries only, so its tails never
// mix empty answers in with served ones.
#include "serve/load_generator.hpp"

#include <gtest/gtest.h>

#include "common/vec.hpp"
#include "estimate/snapshot.hpp"

namespace nc::serve {
namespace {

constexpr int kNodes = 10;

LoadConfig short_load() {
  LoadConfig c;
  c.clients = 1;
  c.rate_qps = 2000.0;
  c.duration_s = 0.2;
  return c;
}

TEST(LoadGenerator, NothingPublishedRecordsNoLatency) {
  const est::SnapshotPublisher pub;
  const LoadReport r = run_open_loop(pub, kNodes, short_load());
  EXPECT_GT(r.issued, 0u);
  EXPECT_EQ(r.answered, 0u);
  EXPECT_EQ(r.latency.count(), 0u);
}

TEST(LoadGenerator, LatencyCountsAnsweredQueries) {
  est::SnapshotPublisher pub;
  est::EpochSnapshot& snap = pub.staging(kNodes);
  for (int i = 0; i < kNodes; ++i)
    snap.nodes[static_cast<std::size_t>(i)] = {
        Coordinate(Vec({10.0 * i, 0.0})), 0.1, 0.9, 1};
  pub.publish(1.0);

  const LoadReport r = run_open_loop(pub, kNodes, short_load());
  EXPECT_GT(r.answered, 0u);
  EXPECT_EQ(r.latency.count(), r.answered);
}

}  // namespace
}  // namespace nc::serve

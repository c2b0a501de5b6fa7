// Bit-identity pin for the two-stage trace generator.
//
// ReferenceGenerator below is the serial generator TraceGenerator replaced:
// a binary-heap ping schedule and one LatencyNetwork::sample_rtt per slot,
// with the oracle read back through ground_truth_rtt after each record (the
// way the replay engine's single reader used to query the generating
// network). Every test drives it in lockstep with TraceGenerator at pinned
// worker counts and requires the same bits in every record, the stamped
// ground truth included, and the same produced()/attempts() after every
// next() call, the final nullopt included.
#include "latency/trace_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <queue>
#include <string>
#include <vector>

#include "eval/registry.hpp"
#include "eval/scenario.hpp"

namespace nc::lat {
namespace {

class ReferenceGenerator {
 public:
  explicit ReferenceGenerator(const TraceGenConfig& config)
      : config_(config),
        network_(Topology::make(config.topology), config.link_model,
                 config.availability, config.seed) {
    const int n = network_.topology().size();
    rr_counter_.resize(static_cast<std::size_t>(n));
    Rng rng = Rng::derived(config.seed, 0x7363686564ULL /* "sched" */);
    for (NodeId id = 0; id < n; ++id) {
      schedule_.push({rng.uniform(0.0, config.ping_interval_s), id});
      rr_counter_[static_cast<std::size_t>(id)] =
          rng.uniform_int(static_cast<std::uint64_t>(n - 1));
    }
  }

  [[nodiscard]] LatencyNetwork& network() { return network_; }
  [[nodiscard]] std::uint64_t produced() const { return produced_; }
  [[nodiscard]] std::uint64_t attempts() const { return attempts_; }

  std::optional<TraceRecord> next() {
    while (!schedule_.empty()) {
      const PingSlot slot = schedule_.top();
      schedule_.pop();
      if (slot.t >= config_.duration_s) return std::nullopt;
      schedule_.push({slot.t + config_.ping_interval_s, slot.src});
      ++attempts_;
      if (!network_.node_up(slot.src, slot.t)) continue;
      const NodeId dst = next_partner(slot.src);
      const auto rtt = network_.sample_rtt(slot.src, dst, slot.t);
      if (!rtt.has_value()) continue;
      ++produced_;
      TraceRecord r{slot.t, slot.src, dst, static_cast<float>(*rtt)};
      r.gt_rtt_ms = network_.ground_truth_rtt(slot.src, dst, slot.t);
      return r;
    }
    return std::nullopt;
  }

 private:
  struct PingSlot {
    double t;
    NodeId src;
    friend bool operator>(const PingSlot& a, const PingSlot& b) {
      return a.t != b.t ? a.t > b.t : a.src > b.src;
    }
  };

  NodeId next_partner(NodeId src) {
    const int n = network_.topology().size();
    auto& counter = rr_counter_[static_cast<std::size_t>(src)];
    const auto idx = static_cast<NodeId>(counter % static_cast<std::uint64_t>(n - 1));
    ++counter;
    return idx >= src ? idx + 1 : idx;
  }

  TraceGenConfig config_;
  LatencyNetwork network_;
  std::priority_queue<PingSlot, std::vector<PingSlot>, std::greater<>> schedule_;
  std::vector<std::uint64_t> rr_counter_;
  std::uint64_t produced_ = 0;
  std::uint64_t attempts_ = 0;
};

bool same_record(const TraceRecord& a, const TraceRecord& b) {
  return std::bit_cast<std::uint64_t>(a.t_s) == std::bit_cast<std::uint64_t>(b.t_s) &&
         a.src == b.src && a.dst == b.dst &&
         std::bit_cast<std::uint32_t>(a.rtt_ms) == std::bit_cast<std::uint32_t>(b.rtt_ms) &&
         std::bit_cast<std::uint64_t>(a.gt_rtt_ms) ==
             std::bit_cast<std::uint64_t>(b.gt_rtt_ms);
}

/// What one next() call returned, and the counters right after it.
struct Call {
  std::optional<TraceRecord> record;
  std::uint64_t produced = 0;
  std::uint64_t attempts = 0;
};

/// A preset's workload at `n` nodes, long enough for ~26k schedule slots:
/// more chunks than lookahead buffers, so the hand-out crosses chunk
/// boundaries and every buffer is reused.
eval::ScenarioSpec spec_of(const std::string& preset, int n, std::uint64_t seed) {
  eval::ScenarioSpec spec = eval::make_scenario(preset);
  spec.mode = eval::SimMode::kReplay;
  spec.workload.num_nodes = n;
  spec.workload.seed = seed;
  spec.workload.duration_s = 26000.0 * spec.workload.ping_interval_s / n;
  return spec;
}

template <typename Generator>
void schedule_routes(const eval::ScenarioSpec& spec, Generator& gen) {
  for (const eval::RouteChangeEvent& rc : spec.workload.route_changes)
    gen.network().schedule_route_change(rc.i, rc.j, rc.factor, rc.at_t);
}

/// The reference's calls through its first nullopt.
std::vector<Call> reference_calls(const eval::ScenarioSpec& spec) {
  ReferenceGenerator ref(eval::resolve_trace_config(spec.workload));
  schedule_routes(spec, ref);
  std::vector<Call> calls;
  do {
    Call c;
    c.record = ref.next();
    c.produced = ref.produced();
    c.attempts = ref.attempts();
    calls.push_back(c);
  } while (calls.back().record.has_value());
  return calls;
}

/// Replays `want` against a fresh TraceGenerator at `workers`; "" when
/// every call matched, else the first divergence.
std::string first_divergence(const eval::ScenarioSpec& spec,
                             const std::vector<Call>& want, int workers) {
  TraceGenerator gen(eval::resolve_trace_config(spec.workload), workers);
  if (gen.workers() != workers) return "worker count not pinned";
  schedule_routes(spec, gen);
  if (want.size() < 2) return "empty trace: nothing compared";
  // One call past the end as well: it must stay at nullopt with the same
  // counters.
  for (std::size_t i = 0; i <= want.size(); ++i) {
    const Call& w = want[std::min(i, want.size() - 1)];
    const std::optional<TraceRecord> got = gen.next();
    const std::string where = "call " + std::to_string(i) + ": ";
    if (w.record.has_value() != got.has_value())
      return where + (got ? "generator ran on" : "generator ended early");
    if (got.has_value() && !same_record(*w.record, *got)) return where + "record differs";
    if (gen.produced() != w.produced || gen.attempts() != w.attempts)
      return where + "counters differ";
  }
  return "";
}

void expect_match(const eval::ScenarioSpec& spec, std::initializer_list<int> workers,
                  const std::string& label) {
  const std::vector<Call> want = reference_calls(spec);
  for (int w : workers)
    EXPECT_EQ(first_divergence(spec, want, w), "") << label << " W=" << w;
}

TEST(TraceGeneratorReference, EveryPresetMatchesAtEveryWorkerCount) {
  int configs = 0;
  for (const std::string& preset : eval::scenario_names())
    for (int n : {2, 3, 12, 64, 269})
      for (std::uint64_t seed : {1u, 2u}) {
        expect_match(spec_of(preset, n, seed), {1, 2, 3, 4},
                     preset + " n=" + std::to_string(n) + " seed=" + std::to_string(seed));
        configs += 4;
      }
  EXPECT_EQ(configs, 240);
}

// Scheduled steps are written into the network's link lanes before the
// first next(), then applied by whichever worker owns the link.
TEST(TraceGeneratorReference, RouteSchedulesMatch) {
  for (const std::string& schedule : eval::route_schedule_names())
    for (int n : {3, 12, 64}) {
      eval::ScenarioSpec spec = spec_of("planetlab", n, 5);
      eval::apply_route_schedule(spec, schedule);
      expect_match(spec, {1, 2, 3, 4}, schedule + " n=" + std::to_string(n));
    }
}

TEST(TraceGeneratorReference, AvailabilityOffMatches) {
  for (int n : {2, 12, 269}) {
    eval::ScenarioSpec spec = spec_of("churn", n, 9);
    spec.workload.availability = AvailabilityConfig{.enabled = false};
    expect_match(spec, {1, 2, 3, 4}, "n=" + std::to_string(n));
  }
}

// The replay oracle now reads the stamped truth instead of querying the
// generating network after each record. Hexfloats recorded from the
// network-queried oracle: planetlab, 48 nodes, 900 s, shards 1 and 3 (the
// single reader either way; collect_oracle never partitions).
TEST(TraceGeneratorReference, OracleMetricsPinnedAtShardsOneAndThree) {
  for (int shards : {1, 3}) {
    eval::ScenarioSpec spec = eval::make_scenario("planetlab");
    spec.mode = eval::SimMode::kReplay;
    spec.workload.num_nodes = 48;
    spec.workload.duration_s = 900.0;
    spec.measurement.collect_oracle = true;
    spec.shards = shards;
    const eval::ScenarioOutput out = eval::run_scenario(spec);
    EXPECT_EQ(out.records, 33725u);
    EXPECT_EQ(out.attempts, 43200u);
    const stats::Ecdf cdf = out.metrics.oracle_per_node_median_error();
    double sum = 0.0;
    for (double v : cdf.sorted_values()) sum += v;
    EXPECT_EQ(cdf.size(), 43u) << "shards=" << shards;
    EXPECT_EQ(cdf.min(), 0x1.2b9973bf737efp-5) << "shards=" << shards;
    EXPECT_EQ(cdf.median(), 0x1.fbf80514e09c2p-5) << "shards=" << shards;
    EXPECT_EQ(cdf.max(), 0x1.d70118be3e433p-4) << "shards=" << shards;
    EXPECT_EQ(sum, 0x1.6777a9d5f66dbp+1) << "shards=" << shards;
    EXPECT_EQ(out.metrics.oracle_median_error_of(0), 0x1.e30e0b98dd333p-5);
    EXPECT_EQ(out.metrics.oracle_median_error_of(7), 0x1.9979bdf2e0e08p-5);
    EXPECT_EQ(out.metrics.oracle_median_error_of(23), 0x1.93691af45a3b3p-5);
    EXPECT_EQ(out.metrics.oracle_median_error_of(46), 0x1.d4915e275b404p-5);
  }
}

}  // namespace
}  // namespace nc::lat

#include "serve/load_generator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace nc::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Stream-domain tag for the load threads' operand draws ("serv").
constexpr std::uint64_t kServeStream = 0x73657276ULL;

struct ThreadResult {
  LatencyRecorder latency;
  ServiceStats service;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t first_version = 0;
  std::uint64_t last_version = 0;
};

void client_loop(const est::SnapshotPublisher& source, int num_nodes,
                 const LoadConfig& config, const std::atomic<bool>* stop,
                 int thread_idx, Clock::time_point t0, ThreadResult& result) {
  CoordinateService service(&source, num_nodes);
  Rng rng = Rng::derived(config.seed, kServeStream,
                         static_cast<std::uint64_t>(thread_idx));
  result.first_version = source.published();

  const double per_thread_qps =
      config.rate_qps / static_cast<double>(config.clients);
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(config.duration_s));

  const auto draw_node = [&] {
    return static_cast<NodeId>(
        rng.uniform_int(static_cast<std::uint64_t>(num_nodes)));
  };
  std::vector<CoordinateService::Neighbor> neighbors;
  std::vector<NodeId> group(static_cast<std::size_t>(config.centroid_size));

  // Open loop: the next arrival is scheduled on the thread's own Poisson
  // clock regardless of when the previous query finished. If the service
  // (or this core) falls behind, `next` drifts into the past and every
  // late query's latency includes its queue delay — that is the point.
  double offset_s = rng.exponential(per_thread_qps);
  for (;;) {
    const auto next = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(offset_s));
    if (next >= deadline) break;
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    if (const auto now = Clock::now(); next > now)
      std::this_thread::sleep_until(next);

    // The query: mix drawn per arrival, operands uniform over the world.
    const double kind = rng.uniform();
    bool got_answer = false;
    if (kind < config.mix.nearest_k) {
      service.nearest_k(draw_node(), config.k, neighbors);
      got_answer = !neighbors.empty();
    } else if (kind < config.mix.nearest_k + config.mix.centroid) {
      for (NodeId& id : group) id = draw_node();
      got_answer = service.centroid(group).has_value();
    } else {
      NodeId a = draw_node();
      NodeId b = draw_node();
      if (a == b) b = static_cast<NodeId>((b + 1) % num_nodes);
      got_answer = service.distance_ms(a, b).has_value();
    }

    // Only answers enter the histogram: an empty answer (no snapshot yet,
    // or an operand not placed) serves nothing, and mixing those in would
    // make the tails describe the pre-publish window. issued - answered
    // counts them.
    const auto done = Clock::now();
    ++result.issued;
    if (got_answer) {
      ++result.answered;
      const auto scheduled_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - next);
      result.latency.record(
          scheduled_ns.count() > 0
              ? static_cast<std::uint64_t>(scheduled_ns.count())
              : 0);
    }

    offset_s += rng.exponential(per_thread_qps);
  }
  result.service = service.stats();
  result.last_version = service.snapshot_version();
}

}  // namespace

LoadReport run_open_loop(const est::SnapshotPublisher& source, int num_nodes,
                         const LoadConfig& config,
                         const std::atomic<bool>* stop) {
  NC_CHECK_MSG(config.clients >= 1, "need at least one client thread");
  NC_CHECK_MSG(config.rate_qps > 0.0, "rate must be positive");
  NC_CHECK_MSG(config.duration_s > 0.0, "duration must be positive");
  NC_CHECK_MSG(num_nodes >= 2, "need at least two nodes to query");
  NC_CHECK_MSG(config.centroid_size >= 1, "empty centroid group");
  NC_CHECK_MSG(config.mix.nearest_k >= 0.0 && config.mix.centroid >= 0.0 &&
                   config.mix.nearest_k + config.mix.centroid <= 1.0,
               "query mix fractions must be a sub-distribution");

  const auto t0 = Clock::now();
  std::vector<ThreadResult> results(static_cast<std::size_t>(config.clients));
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (int c = 0; c < config.clients; ++c)
      threads.emplace_back(client_loop, std::cref(source), num_nodes,
                           std::cref(config), stop, c, t0,
                           std::ref(results[static_cast<std::size_t>(c)]));
    for (std::thread& t : threads) t.join();
  }

  LoadReport report;
  report.elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  report.first_version = results.empty() ? 0 : results.front().first_version;
  for (const ThreadResult& r : results) {
    report.latency.merge(r.latency);
    report.service.add(r.service);
    report.issued += r.issued;
    report.answered += r.answered;
    report.first_version = std::min(report.first_version, r.first_version);
    report.last_version = std::max(report.last_version, r.last_version);
  }
  return report;
}

}  // namespace nc::serve

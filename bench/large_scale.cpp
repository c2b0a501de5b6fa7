// Large-scale tier: the 100k-node run, end to end, within a fixed memory
// budget.
//
// ISSUE 7's acceptance bench. The event-core suite scores the kernel at
// bench-tier sizes (256/1k/4k); this tier runs the configurations the
// compact per-client link index (core/nc_client.hpp), the sparse shard
// link store (common/link_store.hpp) and partitioned trace ingest
// (lat::partition_trace + ShardedEngine::run_partitioned) exist for:
//   * ONLINE runs at n in {10k, 50k, 100k} (1 sim hour by default) — the
//     per-row MemoryBudget breakdown is the point: client bytes must grow
//     ~linearly in n (the old dense per-client index made them quadratic),
//     and link bytes must track touched links, not n^2/W;
//   * a 10k-node REPLAY over a generated trace file, pre-partitioned by
//     owner shard so every worker ingests its own slice (wall time covers
//     partition + run; the one-pass generation is timed separately).
// Each row prints events/sec plus the MemoryBudget components as a JSON
// object for the BENCH_pr7.json record; scripts/bench_diff.py gates both
// events/sec and mem_bytes across PRs.
//
// Flags: --scenario (planetlab), --nodes (0 = the full 10k/50k/100k suite,
//        otherwise one size), --hours (1), --seed (7), --shards (1),
//        --online (1), --replay (1), --selfcheck (0: also run the
//        single-reader replay and require bit-identical metrics),
//        --trace-dir (/tmp: where generated traces and slices go).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "latency/trace.hpp"
#include "latency/trace_generator.hpp"
#include "sim/sharded_sim.hpp"

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_row(const char* engine, int nodes, int shards, double wall,
               std::uint64_t events, double err,
               const nc::sim::MemoryBudget& mem) {
  const double rate = static_cast<double>(events) / wall;
  std::printf("%12s %7d %6d %10.2f %14llu %12.0f %10.4f %10s %10s %10s\n",
              engine, nodes, shards, wall,
              static_cast<unsigned long long>(events), rate, err,
              nc::eval::fmt_bytes(mem.client_bytes).c_str(),
              nc::eval::fmt_bytes(mem.link_bytes).c_str(),
              nc::eval::fmt_bytes(mem.total()).c_str());
  std::printf(
      "  json: {\"engine\": \"%s\", \"nodes\": %d, \"shards\": %d, "
      "\"wall_s\": %.2f, \"events\": %llu, \"events_per_s\": %.0f, "
      "\"median_err\": %.4f, \"mem_clients\": %llu, \"mem_links\": %llu, "
      "\"mem_estimator\": %llu, \"mem_mailbox\": %llu, "
      "\"mem_neighbors\": %llu, \"mem_snapshot_base\": %llu, "
      "\"mem_snapshot_delta\": %llu, \"mem_queues\": %llu, "
      "\"mem_collectors\": %llu, \"mem_bytes\": %llu}\n",
      engine, nodes, shards, wall, static_cast<unsigned long long>(events),
      rate, err, static_cast<unsigned long long>(mem.client_bytes),
      static_cast<unsigned long long>(mem.link_bytes),
      static_cast<unsigned long long>(mem.estimator_bytes),
      static_cast<unsigned long long>(mem.mailbox_bytes),
      static_cast<unsigned long long>(mem.neighbor_bytes),
      static_cast<unsigned long long>(mem.snapshot_base_bytes),
      static_cast<unsigned long long>(mem.snapshot_delta_bytes),
      static_cast<unsigned long long>(mem.queue_bytes),
      static_cast<unsigned long long>(mem.collector_bytes),
      static_cast<unsigned long long>(mem.total()));
}

}  // namespace

int main(int argc, char** argv) {
  const nc::Flags flags = ncb::parse_flags_exact(
      argc, argv, {"scenario", "nodes", "hours", "seed", "shards", "online",
                   "replay", "selfcheck", "trace-dir"});
  nc::eval::ScenarioSpec base = ncb::scenario_spec(
      flags, {.nodes = 0, .hours = 1.0, .full_nodes = 0, .full_hours = 1.0,
              .seed = 7, .mode = nc::eval::SimMode::kOnline, .shards = 1});
  const int shards = std::max(1, base.shards);
  const bool run_online = flags.get_int("online", 1) != 0;
  const bool run_replay = flags.get_int("replay", 1) != 0;
  const bool selfcheck = flags.get_int("selfcheck", 0) != 0;
  const std::string trace_dir = flags.get_string("trace-dir", "/tmp");

  std::vector<int> online_sizes, replay_sizes;
  if (base.workload.num_nodes > 0) {
    online_sizes.push_back(base.workload.num_nodes);
    replay_sizes.push_back(base.workload.num_nodes);
  } else {
    online_sizes = {10000, 50000, 100000};
    replay_sizes = {10000};
  }

  ncb::print_header(
      "large scale: the 100k-node tier (compact indexes, sparse links, "
      "partitioned ingest)",
      "");
  std::printf("scenario=%s, %.2f h, seed %llu, shards %d\n",
              flags.get_string("scenario", "planetlab").c_str(),
              base.workload.duration_s / 3600.0,
              static_cast<unsigned long long>(base.workload.seed), shards);
  std::printf("\n%12s %7s %6s %10s %14s %12s %10s %10s %10s %10s\n", "engine",
              "nodes", "shards", "wall(s)", "events", "events/s", "median-err",
              "mem-cli", "mem-link", "mem-total");

  if (run_online) {
    for (const int n : online_sizes) {
      nc::eval::ScenarioSpec spec = base;
      spec.workload.num_nodes = n;
      spec.shards = shards;
      const auto t0 = std::chrono::steady_clock::now();
      nc::sim::ShardedEngine sim(
          nc::eval::resolve_online_config(spec), shards,
          nc::lat::Topology::make(
              nc::eval::resolve_topology_config(spec.workload)),
          spec.workload.link_model.value_or(nc::lat::LinkModelConfig{}),
          spec.workload.availability.value_or(nc::lat::AvailabilityConfig{}),
          nc::eval::resolve_route_changes(spec.workload));
      sim.run();
      print_row("online-large", n, shards, wall_seconds_since(t0),
                sim.events_processed(), sim.metrics().median_relative_error(),
                sim.memory_budget());
    }
  }

  if (run_replay) {
    for (const int n : replay_sizes) {
      nc::eval::ScenarioSpec rspec = base;
      rspec.mode = nc::eval::SimMode::kReplay;
      rspec.workload.num_nodes = n;
      nc::sim::ReplayConfig rc;
      rc.client = rspec.client;
      rc.duration_s = rspec.workload.duration_s;
      rc.measure_start_s = nc::eval::resolved_measure_start_s(rspec);
      rc.epoch_s = rspec.workload.ping_interval_s;
      rc.shards = shards;

      // One-pass generation to disk, then the one-pass splitter. Both are
      // timed outside the replay row: the row scores INGEST + replay, the
      // workload a recorded real-world trace gives us.
      const std::string prefix =
          trace_dir + "/bench_large_scale_" + std::to_string(n);
      const std::string whole = prefix + ".nctr";
      const auto tgen = std::chrono::steady_clock::now();
      const std::uint64_t written = nc::lat::generate_trace_file(
          nc::eval::resolve_trace_config(rspec.workload), whole);
      std::printf("  trace: %llu records in %.2f s -> %s\n",
                  static_cast<unsigned long long>(written),
                  wall_seconds_since(tgen), whole.c_str());

      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::string> slice_paths;
      {
        nc::lat::TraceReader whole_reader(whole);
        slice_paths = nc::lat::partition_trace(whole_reader, prefix, n, shards);
      }
      std::vector<std::unique_ptr<nc::lat::TraceReader>> slices;
      std::vector<nc::lat::TraceSource*> sources;
      for (const std::string& p : slice_paths) {
        slices.push_back(std::make_unique<nc::lat::TraceReader>(p));
        sources.push_back(slices.back().get());
      }
      nc::sim::ShardedEngine engine(rc, n);
      engine.run_partitioned(sources);
      print_row("replay-large", n, shards, wall_seconds_since(t0),
                engine.events_processed(),
                engine.metrics().median_relative_error(),
                engine.memory_budget());

      if (selfcheck) {
        // The partitioned ingest must be bit-identical to the single-reader
        // path on the unsplit trace — the run aborts loudly if not.
        nc::lat::TraceReader whole_reader(whole);
        nc::sim::ShardedEngine ref(rc, n);
        ref.run(whole_reader);
        NC_CHECK_MSG(
            ref.metrics().median_relative_error() ==
                    engine.metrics().median_relative_error() &&
                ref.metrics().observation_count() ==
                    engine.metrics().observation_count() &&
                ref.events_processed() == engine.events_processed(),
            "partitioned replay diverged from the single reader "
            "(determinism bug)");
        std::printf("  selfcheck: partitioned == single-reader (err, obs, "
                    "events)\n");
      }
      for (const std::string& p : slice_paths) std::remove(p.c_str());
      std::remove(whole.c_str());
    }
  }

  std::printf(
      "\nnote: client bytes must grow ~linearly in n (compact per-client\n"
      "index; the dense form was quadratic in aggregate), and link bytes\n"
      "track touched links, not n^2/W. Replay rows cover partition + run;\n"
      "trace generation is printed separately. Shard speedup needs real\n"
      "cores.\n");
  return 0;
}

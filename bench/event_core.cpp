// Event-core kernel suite: events/sec of the epoch-sharded engine across
// deployment sizes, in BOTH simulation modes.
//
// PR 4 rebuilt the hot event-dispatch structures (calendar-queue scheduler,
// merge-based mailboxes, dense link/membership state); PR 5 collapsed every
// run — online and replay — onto that one kernel and slab-allocated
// NCClient's per-link filter state. This bench is the kernel's scorecard.
// For each n in --sizes (default 256, 1k, 4k) it runs the same named
// scenario through ShardedEngine, the one engine, in
//   * ONLINE mode at --shards = 1, 2, 4, ... (powers of two up to
//     --max-shards), and
//   * REPLAY mode over a generated trace at the same shard counts (wall
//     time includes the trace generation, whose node stage is serial and
//     bounds replay scaling per Amdahl),
// reports events/sec, and cross-checks that every shard count produced
// bit-identical metrics (the kernel's core guarantee; the run aborts loudly
// if not). Each row is also printed as a JSON object; no gate reads those
// rows (the regression gate compares perfbench records, DESIGN.md Sec. 16),
// and until perfbench takes a shard count they are the shard-count sweep.
//
// Flags: --scenario (planetlab), --nodes (0 = the full 256/1k/4k suite,
//        otherwise one size), --hours (1), --seed (7), --max-shards (4),
//        --replay (1: include replay rows).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "latency/trace_generator.hpp"
#include "sim/sharded_sim.hpp"

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// `gen`: the trace generator's bytes on replay rows, else null.
void print_row(const char* engine, int nodes, int shards, double wall,
               std::uint64_t events, double err,
               const nc::sim::MemoryBudget& mem,
               const nc::lat::TraceGenMemory* gen = nullptr) {
  const double rate = static_cast<double>(events) / wall;
  std::printf("%8s %6d %7d %10.2f %14llu %12.0f %12.4f %12s\n", engine, nodes,
              shards, wall, static_cast<unsigned long long>(events), rate, err,
              nc::eval::fmt_bytes(mem.total()).c_str());
  std::printf("  json: {\"engine\": \"%s\", \"nodes\": %d, \"shards\": %d, "
              "\"wall_s\": %.2f, \"events\": %llu, \"events_per_s\": %.0f, "
              "\"median_err\": %.4f, \"mem_bytes\": %llu, "
              "\"rebalance_bytes\": %llu, \"neighbor_bytes\": %llu, "
              "\"snapshot_base_bytes\": %llu, \"snapshot_delta_bytes\": "
              "%llu, \"queue_bytes\": %llu, \"collector_bytes\": %llu",
              engine, nodes, shards, wall,
              static_cast<unsigned long long>(events), rate, err,
              static_cast<unsigned long long>(mem.total()),
              static_cast<unsigned long long>(mem.rebalance_bytes),
              static_cast<unsigned long long>(mem.neighbor_bytes),
              static_cast<unsigned long long>(mem.snapshot_base_bytes),
              static_cast<unsigned long long>(mem.snapshot_delta_bytes),
              static_cast<unsigned long long>(mem.queue_bytes),
              static_cast<unsigned long long>(mem.collector_bytes));
  if (gen != nullptr)
    std::printf(", \"gen_bytes\": %llu",
                static_cast<unsigned long long>(gen->total()));
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const nc::Flags flags = ncb::parse_flags_exact(
      argc, argv,
      {"scenario", "nodes", "hours", "seed", "max-shards", "replay", "full"});
  nc::eval::ScenarioSpec base = ncb::scenario_spec(
      flags, {.nodes = 0, .hours = 1.0, .full_nodes = 0, .full_hours = 1.0,
              .seed = 7, .mode = nc::eval::SimMode::kOnline});
  const int max_shards = flags.get_int32("max-shards", 4);
  const bool run_replay = flags.get_int("replay", 1) != 0;

  std::vector<int> sizes;
  if (base.workload.num_nodes > 0) {
    sizes.push_back(base.workload.num_nodes);
  } else {
    sizes = {256, 1024, 4096};
  }

  ncb::print_header(
      "event core: events/sec of the sharded kernel vs deployment size", "");
  std::printf("scenario=%s, %.2f h, seed %llu, hardware threads: %u\n",
              flags.get_string("scenario", "planetlab").c_str(),
              base.workload.duration_s / 3600.0,
              static_cast<unsigned long long>(base.workload.seed),
              std::thread::hardware_concurrency());
  std::printf("\n%8s %6s %7s %10s %14s %12s %12s %12s\n", "engine", "nodes",
              "shards", "wall(s)", "events", "events/s", "median-err", "mem");

  for (const int n : sizes) {
    nc::eval::ScenarioSpec spec = base;
    spec.workload.num_nodes = n;

    double ref_err = 0.0, ref_inst = 0.0;
    std::uint64_t ref_obs = 0;
    for (int w = 1; w <= max_shards; w *= 2) {
      spec.shards = w;
      const auto t0 = std::chrono::steady_clock::now();
      nc::sim::ShardedEngine sim(
          nc::eval::resolve_online_config(spec), w,
          nc::lat::Topology::make(
              nc::eval::resolve_topology_config(spec.workload)),
          spec.workload.link_model.value_or(nc::lat::LinkModelConfig{}),
          spec.workload.availability.value_or(nc::lat::AvailabilityConfig{}),
          nc::eval::resolve_route_changes(spec.workload));
      sim.run();
      const double wall = wall_seconds_since(t0);

      const double err = sim.metrics().median_relative_error();
      const double inst = sim.metrics().mean_instability_ms_per_s();
      if (w == 1) {
        ref_err = err;
        ref_inst = inst;
        ref_obs = sim.metrics().observation_count();
      } else {
        NC_CHECK_MSG(err == ref_err && inst == ref_inst &&
                         sim.metrics().observation_count() == ref_obs,
                     "sharded run diverged from shards=1 (determinism bug)");
      }
      print_row("sharded", n, w, wall, sim.events_processed(), err,
                sim.memory_budget());
    }

    if (run_replay) {
      // Replay mode on the same kernel: the generated trace replaces the
      // timers. The reader is serial (shard 0), so replay's parallel
      // fraction is the per-record stamp/observe work.
      nc::eval::ScenarioSpec rspec = spec;
      rspec.mode = nc::eval::SimMode::kReplay;
      nc::sim::ReplayConfig rc;
      rc.client = rspec.client;
      rc.duration_s = rspec.workload.duration_s;
      rc.measure_start_s = nc::eval::resolved_measure_start_s(rspec);
      rc.epoch_s = rspec.workload.ping_interval_s;
      double rref_err = 0.0;
      std::uint64_t rref_obs = 0;
      for (int w = 1; w <= max_shards; w *= 2) {
        rc.shards = w;
        const auto t0 = std::chrono::steady_clock::now();
        nc::lat::TraceGenerator gen(
            nc::eval::resolve_trace_config(rspec.workload));
        nc::sim::ShardedEngine engine(rc, gen.num_nodes());
        engine.run(gen);
        const double wall = wall_seconds_since(t0);

        const double err = engine.metrics().median_relative_error();
        if (w == 1) {
          rref_err = err;
          rref_obs = engine.metrics().observation_count();
        } else {
          NC_CHECK_MSG(err == rref_err &&
                           engine.metrics().observation_count() == rref_obs,
                       "replay run diverged from shards=1 (determinism bug)");
        }
        const nc::lat::TraceGenMemory gen_mem = gen.memory_bytes();
        print_row("replay", n, w, wall, engine.events_processed(), err,
                  engine.memory_budget(), &gen_mem);
      }
    }
  }
  std::printf("\nnote: shard speedup needs real cores; on a 1-core host all\n"
              "shard counts serialize. Replay rows include the trace\n"
              "generation in wall time. Online and replay rows differ in\n"
              "workload semantics, so compare events/sec within one engine\n"
              "label, not across.\n");
  return 0;
}

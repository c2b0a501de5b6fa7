// Rebalance tier: does dynamic ownership keep every worker busy under
// churn?
//
// PR 9's acceptance bench. The epoch-sharded kernel block-partitions node
// ids at construction; under churn and flash-crowd availability the live
// population drifts away from that static split and some workers idle at
// the barriers while others grind. Dynamic ownership (sim/sharded_sim.hpp,
// --rebalance=K) re-plans the partition every K epochs from per-node event
// weights and migrates a bounded batch of nodes per barrier — metrics stay
// bit-identical, only the placement moves.
//
// For each scenario in {churn, flash-crowd} x n in {10k, 20k} this bench
// runs the ONLINE engine twice — static partition vs. rebalancing — under
// an identical staged-rollout skew (the lowest n/4 ids join a third of the
// way in, so the static split is genuinely lopsided, as a real staged
// deployment would be) and reports events/sec plus the per-shard busy-time
// spread (max-min)/mean of CLOCK_THREAD_CPUTIME_ID over delivery +
// processing segments (barrier waits excluded). Each row also prints a
// JSON object; no gate reads those rows (the regression gate compares
// perfbench records, DESIGN.md Sec. 16).
//
// Flags: --scenario (flash-crowd; selects the ONE preset to run instead of
//        the two-preset suite, and the selfcheck workload), --nodes (0 =
//        the 10k/20k suite, otherwise one size), --hours (0.25), --seed
//        (7), --shards (2), --rebalance (8: decision interval in epochs for
//        the ON rows), --rebalance-moves (64: migration batch bound),
//        --selfcheck (off: skip the grid; run a small built-in workload and
//        require ON==OFF and ON@W==ON@1 metrics bit-for-bit plus
//        migrations > 0, then exit).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/sharded_sim.hpp"

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double util_spread(const std::vector<double>& busy) {
  if (busy.size() < 2) return 0.0;
  const double mx = *std::max_element(busy.begin(), busy.end());
  const double mn = *std::min_element(busy.begin(), busy.end());
  const double mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) /
      static_cast<double>(busy.size());
  return mean > 0.0 ? (mx - mn) / mean : 0.0;
}

struct RowResult {
  double wall = 0.0;
  std::uint64_t events = 0;
  double spread = 0.0;
  std::uint64_t migrated = 0;
  double median_err = 0.0;
  std::uint64_t observations = 0;
  std::uint64_t pings_sent = 0;
  nc::sim::MemoryBudget mem;
};

/// One online run of `spec` with the staged-rollout skew applied: the
/// lowest n/4 ids stay down until duration/3. The skew is part of the
/// WORKLOAD (identical for on and off rows); rebalancing only changes which
/// worker owns whom.
RowResult run_row(nc::eval::ScenarioSpec spec, int shards, int interval,
                  int max_moves) {
  spec.shards = shards;
  spec.rebalance_interval_epochs = interval;
  spec.rebalance_max_moves = max_moves;
  nc::lat::AvailabilityConfig av =
      spec.workload.availability.value_or(nc::lat::AvailabilityConfig{});
  av.staged_down_count = spec.workload.num_nodes / 4;
  av.staged_join_s = spec.workload.duration_s / 3.0;
  spec.workload.availability = av;

  const auto t0 = std::chrono::steady_clock::now();
  nc::sim::ShardedEngine sim(
      nc::eval::resolve_online_config(spec), shards,
      nc::lat::Topology::make(nc::eval::resolve_topology_config(spec.workload)),
      spec.workload.link_model.value_or(nc::lat::LinkModelConfig{}), av,
      nc::eval::resolve_route_changes(spec.workload));
  sim.run();
  RowResult r;
  r.wall = wall_seconds_since(t0);
  r.events = sim.events_processed();
  r.spread = util_spread(sim.shard_busy_seconds());
  r.migrated = sim.migrated_nodes();
  r.median_err = sim.metrics().median_relative_error();
  r.observations = sim.metrics().observation_count();
  r.pings_sent = sim.pings_sent();
  r.mem = sim.memory_budget();
  return r;
}

void print_row(const std::string& scenario, int nodes, int shards,
               int rebalance_on, const RowResult& r) {
  const double rate = static_cast<double>(r.events) / r.wall;
  std::printf("%12s %7d %6d %4s %10.2f %14llu %12.0f %11.3f %9llu %10s\n",
              scenario.c_str(), nodes, shards, rebalance_on ? "on" : "off",
              r.wall, static_cast<unsigned long long>(r.events), rate, r.spread,
              static_cast<unsigned long long>(r.migrated),
              nc::eval::fmt_bytes(r.mem.total()).c_str());
  std::printf(
      "  json: {\"scenario\": \"%s\", \"nodes\": %d, \"shards\": %d, "
      "\"rebalance\": %d, \"wall_s\": %.2f, \"events\": %llu, "
      "\"events_per_s\": %.0f, \"util_spread\": %.4f, \"migrated\": %llu, "
      "\"rebalance_bytes\": %llu, \"queue_bytes\": %llu, "
      "\"collector_bytes\": %llu, \"mem_bytes\": %llu, \"median_err\": "
      "%.4f}\n",
      scenario.c_str(), nodes, shards, rebalance_on, r.wall,
      static_cast<unsigned long long>(r.events), rate, r.spread,
      static_cast<unsigned long long>(r.migrated),
      static_cast<unsigned long long>(r.mem.rebalance_bytes),
      static_cast<unsigned long long>(r.mem.queue_bytes),
      static_cast<unsigned long long>(r.mem.collector_bytes),
      static_cast<unsigned long long>(r.mem.total()), r.median_err);
}

}  // namespace

int main(int argc, char** argv) {
  const nc::Flags flags = ncb::parse_flags_exact(
      argc, argv, {"scenario", "nodes", "hours", "seed", "shards", "rebalance",
                   "rebalance-moves", "selfcheck", "full"});
  const int shards = std::max(2, flags.get_int32("shards", 2));
  const int interval = std::max(1, flags.get_int32("rebalance", 8));
  const int max_moves = std::max(1, flags.get_int32("rebalance-moves", 64));

  const auto spec_for = [&](const std::string& scenario, int nodes,
                            double hours) {
    NC_CHECK_MSG(nc::eval::scenario_exists(scenario),
                 "unknown scenario preset");
    nc::eval::ScenarioSpec spec = nc::eval::make_scenario(scenario);
    spec.mode = nc::eval::SimMode::kOnline;
    spec.workload.num_nodes = nodes;
    spec.workload.duration_s = 3600.0 * hours;
    spec.workload.seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 7));
    return spec;
  };

  if (flags.get_bool("selfcheck", false)) {
    // The CI smoke path: a small workload, and the tentpole's contract
    // checked loudly — rebalancing must change placement, never results.
    const std::string scenario = flags.get_string("scenario", "flash-crowd");
    const auto spec = spec_for(scenario, 256, 0.1);
    const RowResult off = run_row(spec, shards, 0, max_moves);
    const RowResult on = run_row(spec, shards, 2, max_moves);
    const RowResult serial = run_row(spec, 1, 2, max_moves);
    NC_CHECK_MSG(on.migrated > 0, "selfcheck workload produced no migrations");
    NC_CHECK_MSG(on.median_err == off.median_err &&
                     on.observations == off.observations &&
                     on.pings_sent == off.pings_sent &&
                     on.events == off.events,
                 "rebalancing changed results at the same shard count "
                 "(determinism bug)");
    NC_CHECK_MSG(on.median_err == serial.median_err &&
                     on.observations == serial.observations &&
                     on.pings_sent == serial.pings_sent &&
                     on.events == serial.events,
                 "rebalanced run diverged from shards=1 (determinism bug)");
    std::printf("selfcheck: scenario=%s shards=%d — on == off == serial "
                "(err, obs, pings, events), %llu nodes migrated\n",
                scenario.c_str(), shards,
                static_cast<unsigned long long>(on.migrated));
    return 0;
  }

  std::vector<std::string> scenarios = {"churn", "flash-crowd"};
  if (flags.has("scenario"))
    scenarios = {flags.get_string("scenario", "flash-crowd")};
  std::vector<int> sizes = {10000, 20000};
  if (const int nodes = flags.get_int32("nodes", 0); nodes > 0) sizes = {nodes};
  const double hours = flags.get_double("hours", 0.25);

  ncb::print_header(
      "rebalance: per-shard utilization under churn, static vs dynamic "
      "ownership",
      "");
  std::printf("shards=%d, rebalance every %d epochs (<=%d moves), %.2f h, "
              "staged skew: lowest n/4 ids join at t=duration/3\n",
              shards, interval, max_moves, hours);
  std::printf("\n%12s %7s %6s %4s %10s %14s %12s %11s %9s %10s\n", "scenario",
              "nodes", "shards", "reb", "wall(s)", "events", "events/s",
              "util-spread", "migrated", "mem");

  for (const std::string& scenario : scenarios) {
    for (const int n : sizes) {
      const auto spec = spec_for(scenario, n, hours);
      const RowResult off = run_row(spec, shards, 0, max_moves);
      print_row(scenario, n, shards, 0, off);
      const RowResult on = run_row(spec, shards, interval, max_moves);
      print_row(scenario, n, shards, 1, on);
      NC_CHECK_MSG(on.median_err == off.median_err &&
                       on.observations == off.observations &&
                       on.events == off.events,
                   "rebalancing changed results (determinism bug)");
    }
  }

  std::printf(
      "\nnote: util-spread is (max-min)/mean of per-shard busy CPU time\n"
      "(delivery + processing segments; barrier waits excluded), so it\n"
      "measures work imbalance even on a 1-core host where wall-clock\n"
      "cannot speed up. Rows self-check that rebalancing never changes\n"
      "metrics.\n");
  return 0;
}

// Shared scaffolding for the bench binaries.
//
// Standard workload flags (every bench takes --scenario/--nodes/--seed; most
// take the rest — each binary's header comment lists its exact vocabulary):
//   --scenario=NAME  named workload preset from the scenario registry
//                    (planetlab, intercontinental, churn, flash-crowd,
//                    drift-heavy, lan-cluster)
//   --nodes=N        number of nodes
//   --hours=H        simulated duration (some benches use --days/--minutes)
//   --seed=S         master seed
//   --jobs=N         worker threads for independent experiment points
//   --shards=N       worker shards WITHIN one run (replay and online alike;
//                    0 and 1 both mean one shard — every run goes through
//                    the epoch-sharded kernel; a replay at N > 1 reads one
//                    trace slice per shard unless it collects oracle
//                    metrics)
//   --route-schedule=NAME  named route-change schedule composed into the
//                    workload (none, single-link, regional-shift,
//                    backbone-flap)
//   --backend=NAME   estimator backend preset answering RTT queries
//                    (coordinates, idms, idms-volatile, idms-sticky,
//                    snapshot)
//   --rebalance=K    dynamic shard ownership: re-plan the node partition
//                    every K epochs (0 = static block partition, default)
//   --rebalance-moves=M  max nodes migrated per rebalance barrier
//   --full           paper-scale workload (overrides the laptop defaults)
// Unknown flags, bad positional arguments and malformed values (--nodes=abc)
// print a usage message and exit 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "eval/grid.hpp"
#include "eval/registry.hpp"
#include "eval/report.hpp"
#include "eval/scenario.hpp"

namespace ncb {

/// Parses argv against the standard flags plus `extra`; prints usage and
/// exits 2 on unknown flags, malformed arguments or malformed values.
inline nc::Flags parse_flags(int argc, const char* const* argv,
                             std::initializer_list<const char*> extra = {}) {
  std::vector<std::string> allowed = {
      "scenario", "nodes",     "hours",           "seed",
      "jobs",     "shards",    "backend",         "route-schedule",
      "full",     "rebalance", "rebalance-moves"};
  allowed.insert(allowed.end(), extra.begin(), extra.end());
  return nc::Flags::parse_or_exit(argc, argv, allowed);
}

/// For benches whose vocabulary replaces part of the standard set (e.g.
/// --days instead of --hours): validates against exactly `allowed`.
inline nc::Flags parse_flags_exact(int argc, const char* const* argv,
                                   std::initializer_list<const char*> allowed) {
  return nc::Flags::parse_or_exit(
      argc, argv, std::vector<std::string>(allowed.begin(), allowed.end()));
}

struct WorkloadDefaults {
  int nodes = 269;
  double hours = 4.0;
  int full_nodes = 269;
  double full_hours = 4.0;
  std::int64_t seed = 1;
  const char* scenario = "planetlab";
  nc::eval::SimMode mode = nc::eval::SimMode::kReplay;
};

/// Builds the bench's base spec: the --scenario registry preset with the
/// standard workload flags applied on top. Unknown scenario names print the
/// registered list and exit 2.
inline nc::eval::ScenarioSpec scenario_spec(const nc::Flags& flags,
                                            const WorkloadDefaults& d = {}) {
  const std::string name = flags.get_string("scenario", d.scenario);
  if (!nc::eval::scenario_exists(name)) {
    std::cerr << "unknown scenario '" << name
              << "' (registered: " << nc::eval::scenario_names_joined() << ")\n";
    std::exit(2);
  }
  nc::eval::ScenarioSpec spec = nc::eval::make_scenario(name);
  spec.mode = d.mode;
  const bool full = flags.get_bool("full", false);
  spec.workload.num_nodes = flags.get_int32("nodes", full ? d.full_nodes : d.nodes);
  spec.workload.duration_s =
      3600.0 * flags.get_double("hours", full ? d.full_hours : d.hours);
  spec.workload.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", d.seed));
  spec.shards = flags.get_int32("shards", 0);
  // Route-change schedules compose into any workload; applied after the
  // node-count/duration overrides so the expansion sees the final values.
  const std::string schedule = flags.get_string("route-schedule", "none");
  if (!nc::eval::route_schedule_exists(schedule)) {
    std::cerr << "unknown route schedule '" << schedule << "' (registered: "
              << nc::eval::route_schedule_names_joined() << ")\n";
    std::exit(2);
  }
  nc::eval::apply_route_schedule(spec, schedule);
  // Estimator backend presets compose the same way (default: coordinates).
  const std::string backend = flags.get_string("backend", "coordinates");
  if (!nc::eval::backend_exists(backend)) {
    std::cerr << "unknown backend '" << backend
              << "' (registered: " << nc::eval::backend_names_joined() << ")\n";
    std::exit(2);
  }
  nc::eval::apply_backend(spec, backend);
  spec.rebalance_interval_epochs = flags.get_int32("rebalance", 0);
  spec.rebalance_max_moves = flags.get_int32("rebalance-moves", spec.rebalance_max_moves);
  return spec;
}

/// The --jobs worker pool (default 1: serial).
inline nc::eval::ExperimentGrid grid(const nc::Flags& flags) {
  return nc::eval::ExperimentGrid(flags.get_int32("jobs", 1));
}

inline void print_header(const std::string& title, const std::string& paper_claim) {
  std::cout << "\n==== " << title << " ====\n";
  if (!paper_claim.empty()) std::cout << "paper: " << paper_claim << "\n";
}

inline void print_workload(const nc::eval::ScenarioSpec& spec) {
  std::printf(
      "workload: scenario=%s, %d nodes, %.2f h %s, seed %llu, measure from "
      "%.2f h\n",
      spec.scenario.c_str(), spec.workload.num_nodes,
      spec.workload.duration_s / 3600.0,
      spec.mode == nc::eval::SimMode::kReplay ? "replay" : "online",
      static_cast<unsigned long long>(spec.workload.seed),
      nc::eval::resolved_measure_start_s(spec) / 3600.0);
}

struct SweepPoint {
  double median_error = 0.0;
  double instability = 0.0;
  double pct_updates = 0.0;  // % of nodes changing c_a per second
};

inline SweepPoint sweep_point(const nc::eval::ScenarioOutput& out) {
  return {out.metrics.median_relative_error(),
          out.metrics.mean_instability_ms_per_s(),  // paper: s = sum(dx)/t
          out.metrics.mean_pct_nodes_updating_per_s()};
}

/// One grid pass over `base` with each heuristic in turn; results in the
/// heuristics' order.
inline std::vector<SweepPoint> run_points(
    const nc::eval::ScenarioSpec& base,
    const std::vector<nc::HeuristicConfig>& heuristics,
    const nc::eval::ExperimentGrid& grid) {
  std::vector<nc::eval::ScenarioSpec> specs(heuristics.size(), base);
  for (std::size_t i = 0; i < heuristics.size(); ++i)
    specs[i].client.heuristic = heuristics[i];
  std::vector<SweepPoint> points;
  points.reserve(specs.size());
  for (const auto& out : grid.run(specs)) points.push_back(sweep_point(out));
  return points;
}

}  // namespace ncb

// Estimator-backend comparison grid: coordinates vs the IDMS delay matrix,
// side by side across scenarios.
//
// The paper's position is that a stabilized coordinate system answers
// latency queries accurately from O(n) state; the IDMS line of work keeps
// the measured delays themselves. This bench runs every registered backend
// preset (eval/registry.hpp: coordinates, idms, idms-volatile, idms-sticky)
// over each scenario and prints one comparison table per scenario — error,
// instability, backend coverage, staleness, estimator memory, feed traffic
// — plus a per-run memory-budget breakdown. Staleness sensitivity reads
// straight off the idms-volatile (60 s horizon) vs idms-sticky (1 h) rows.
//
// Flags: --scenario (empty = the planetlab/churn/drift-heavy trio),
//        --nodes (96), --hours (1), --seed (1), --jobs (1), --shards (0),
//        --full (269 nodes, 4 h).
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

using namespace nc;

int main(int argc, char** argv) {
  const Flags flags = ncb::parse_flags_exact(
      argc, argv, {"scenario", "nodes", "hours", "seed", "jobs", "shards",
                   "full"});

  std::vector<std::string> scenarios;
  const std::string chosen = flags.get_string("scenario", "");
  if (!chosen.empty()) {
    if (!eval::scenario_exists(chosen)) {
      std::cerr << "unknown scenario '" << chosen
                << "' (registered: " << eval::scenario_names_joined() << ")\n";
      return 2;
    }
    scenarios = {chosen};
  } else {
    scenarios = {"planetlab", "churn", "drift-heavy"};
  }

  const bool full = flags.get_bool("full", false);
  const int nodes = flags.get_int32("nodes", full ? 269 : 96);
  const double hours = flags.get_double("hours", full ? 4.0 : 1.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int shards = flags.get_int32("shards", 0);
  const eval::ExperimentGrid grid = ncb::grid(flags);
  const std::vector<std::string> backends = eval::backend_names();

  ncb::print_header(
      "estimator backends: accuracy vs state cost, per scenario",
      "stable coordinates answer from O(n) state; a delay matrix answers "
      "covered pairs exactly but pays O(sampled pairs) memory + reports");
  std::printf("%d nodes, %.2f h replay, seed %llu, %zu backends\n", nodes,
              hours, static_cast<unsigned long long>(seed), backends.size());

  for (const std::string& scenario : scenarios) {
    std::vector<eval::ScenarioSpec> specs;
    specs.reserve(backends.size());
    for (const std::string& backend : backends) {
      eval::ScenarioSpec spec = eval::make_scenario(scenario);
      spec.workload.num_nodes = nodes;
      spec.workload.duration_s = 3600.0 * hours;
      spec.workload.seed = seed;
      spec.shards = shards;
      eval::apply_backend(spec, backend);
      specs.push_back(std::move(spec));
    }
    const std::vector<eval::ScenarioOutput> outputs = grid.run(specs);

    std::vector<std::pair<std::string, const eval::ScenarioOutput*>> runs;
    for (std::size_t i = 0; i < outputs.size(); ++i)
      runs.emplace_back(backends[i], &outputs[i]);
    std::cout << '\n';
    eval::print_backend_comparison(std::cout, "scenario " + scenario, runs);
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      std::cout << "  " << scenario << '/' << backends[i] << ' ';
      eval::print_memory_budget(std::cout, outputs[i]);
    }
  }
  std::printf(
      "\nreading the table: coverage is the fraction of queries answered\n"
      "from the backend's own state (the rest fell back or missed); stale\n"
      "is the fraction of live entries past the staleness horizon. The\n"
      "idms-volatile vs idms-sticky rows bracket the staleness sensitivity.\n");
  return 0;
}

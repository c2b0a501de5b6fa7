// Fig. 11 — Application-level suppression vs the raw MP filter (paper: with
// their chosen parameters, RELATIVE and ENERGY leave the relative-error CDF
// unchanged while shifting the whole instability distribution into a far
// more stable regime).
//
// Flags: --scenario (planetlab), --nodes (269), --hours (4), --seed, --jobs,
//        --window (32).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const nc::Flags flags = ncb::parse_flags(argc, argv, {"window"});
  nc::eval::ScenarioSpec spec = ncb::scenario_spec(flags);
  const int window = flags.get_int32("window", 32);

  ncb::print_header("Fig. 11: RELATIVE/ENERGY vs raw MP filter",
                    "error CDFs coincide; instability CDF shifts left by "
                    "orders of magnitude");
  ncb::print_workload(spec);

  std::vector<nc::eval::ScenarioSpec> specs(3, spec);
  specs[0].client.heuristic = nc::HeuristicConfig::always();
  specs[1].client.heuristic = nc::HeuristicConfig::energy(8.0, window);
  specs[2].client.heuristic = nc::HeuristicConfig::relative(0.3, window);
  auto outs = ncb::grid(flags).run(specs);
  const nc::eval::ScenarioOutput& raw = outs[0];
  const nc::eval::ScenarioOutput& energy = outs[1];
  const nc::eval::ScenarioOutput& relative = outs[2];

  const auto raw_err = raw.metrics.per_node_median_error();
  const auto en_err = energy.metrics.per_node_median_error();
  const auto re_err = relative.metrics.per_node_median_error();
  nc::eval::print_cdf_table(std::cout,
                            "\nmedian relative error (CDF over nodes)",
                            {{"energy+mp", &en_err},
                             {"relative+mp", &re_err},
                             {"raw-mp", &raw_err}});

  const auto raw_inst = raw.metrics.instability();
  const auto en_inst = energy.metrics.instability();
  const auto re_inst = relative.metrics.instability();
  nc::eval::print_cdf_table(std::cout, "\ninstability, ms/s (CDF over seconds)",
                            {{"energy+mp", &en_inst},
                             {"relative+mp", &re_inst},
                             {"raw-mp", &raw_inst}});

  std::printf("\nmean instability:   energy=%.2f relative=%.2f raw-mp=%.2f ms/s\n",
              energy.metrics.mean_instability_ms_per_s(),
              relative.metrics.mean_instability_ms_per_s(),
              raw.metrics.mean_instability_ms_per_s());
  std::printf("median error:       energy=%.4f relative=%.4f raw-mp=%.4f\n",
              energy.metrics.median_relative_error(),
              relative.metrics.median_relative_error(),
              raw.metrics.median_relative_error());
  return 0;
}

// Fig. 9 — Error, instability and application-update frequency vs window
// size (paper: thresholds fixed at tau=8 / eps_r=0.3; windows of 2^5-2^9
// modestly improve accuracy while steadily increasing stability and cutting
// the fraction of nodes updating per second; at window 128 RELATIVE reaches
// ~7% error, ~5 ms/s instability and ~1% updates/s; they deploy window 32).
//
// Flags: --scenario (planetlab), --nodes (200; --full 269),
//        --hours (2; --full 4), --seed, --jobs, --max-log2 (12),
//        --energy-tau (8), --relative-eps (0.3).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const nc::Flags flags =
      ncb::parse_flags(argc, argv, {"max-log2", "energy-tau", "relative-eps"});
  nc::eval::ScenarioSpec spec = ncb::scenario_spec(
      flags, {.nodes = 200, .hours = 2.0, .full_nodes = 269, .full_hours = 4.0});
  const int max_log2 = flags.get_int32("max-log2", 12);
  const double tau = flags.get_double("energy-tau", 8.0);
  const double eps = flags.get_double("relative-eps", 0.3);
  const auto grid = ncb::grid(flags);

  ncb::print_header("Fig. 9: window-size sweep for ENERGY and RELATIVE",
                    "large windows (2^5..2^9) improve all three metrics; very "
                    "large windows update too rarely");
  ncb::print_workload(spec);

  for (int which = 0; which < 2; ++which) {
    std::cout << (which == 0 ? "\nENERGY (tau=" + nc::eval::fmt(tau, 3) + "):\n"
                             : "\nRELATIVE (eps_r=" + nc::eval::fmt(eps, 3) + "):\n");
    std::vector<nc::HeuristicConfig> heuristics;
    for (int lg = 2; lg <= max_log2; ++lg) {
      const int window = 1 << lg;
      heuristics.push_back(which == 0 ? nc::HeuristicConfig::energy(tau, window)
                                      : nc::HeuristicConfig::relative(eps, window));
    }
    const auto points = ncb::run_points(spec, heuristics, grid);
    nc::eval::TextTable t({"window", "median rel err", "instability", "%nodes-upd/s"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const int lg = 2 + static_cast<int>(i);
      const ncb::SweepPoint& p = points[i];
      t.add_row({"2^" + std::to_string(lg) + "=" + std::to_string(1 << lg),
                 nc::eval::fmt(p.median_error, 3), nc::eval::fmt(p.instability, 4),
                 nc::eval::fmt(p.pct_updates, 3)});
    }
    t.print(std::cout);
  }
  std::cout << "\nexpected shape: instability and update rate fall as the window\n"
               "grows; error is flat or slightly improving through mid-size\n"
               "windows and worsens only for the largest (too few updates).\n";
  return 0;
}

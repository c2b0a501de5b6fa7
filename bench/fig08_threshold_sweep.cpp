// Fig. 8 — Instability and median relative error vs update threshold for
// the window-based heuristics, window fixed at 32 (paper: RELATIVE's
// stability rises near-linearly with eps_r and ENERGY's smoothly with tau;
// accuracy holds until tau = 8 (ENERGY) / eps_r = 0.3 (RELATIVE), the
// parameters used for the deployment).
//
// Flags: --scenario (planetlab), --nodes (269), --hours (2; --full 4),
//        --seed, --jobs, --window (32), --energy-taus=..., --relative-eps=...
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const nc::Flags flags =
      ncb::parse_flags(argc, argv, {"window", "energy-taus", "relative-eps"});
  nc::eval::ScenarioSpec spec =
      ncb::scenario_spec(flags, {.hours = 2.0, .full_hours = 4.0});
  const int window = flags.get_int32("window", 32);
  const auto taus =
      flags.get_double_list("energy-taus", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  const auto epss = flags.get_double_list(
      "relative-eps", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  const auto grid = ncb::grid(flags);

  ncb::print_header("Fig. 8: threshold sweep for ENERGY and RELATIVE (window 32)",
                    "stability rises with threshold; accuracy knees at "
                    "tau=8 / eps_r=0.3");
  ncb::print_workload(spec);

  std::vector<nc::HeuristicConfig> heuristics;
  for (double tau : taus)
    heuristics.push_back(nc::HeuristicConfig::energy(tau, window));
  for (double eps : epss)
    heuristics.push_back(nc::HeuristicConfig::relative(eps, window));
  const auto points = ncb::run_points(spec, heuristics, grid);

  std::cout << "\nENERGY:\n";
  nc::eval::TextTable et({"tau", "median rel err", "instability", "%nodes-upd/s"});
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const ncb::SweepPoint& p = points[i];
    et.add_row({nc::eval::fmt(taus[i], 4), nc::eval::fmt(p.median_error, 3),
                nc::eval::fmt(p.instability, 4), nc::eval::fmt(p.pct_updates, 3)});
  }
  et.print(std::cout);

  std::cout << "\nRELATIVE:\n";
  nc::eval::TextTable rt({"eps_r", "median rel err", "instability", "%nodes-upd/s"});
  for (std::size_t i = 0; i < epss.size(); ++i) {
    const ncb::SweepPoint& p = points[taus.size() + i];
    rt.add_row({nc::eval::fmt(epss[i], 3), nc::eval::fmt(p.median_error, 3),
                nc::eval::fmt(p.instability, 4), nc::eval::fmt(p.pct_updates, 3)});
  }
  rt.print(std::cout);

  std::cout << "\nexpected shape: instability falls monotonically as the threshold\n"
               "grows; error stays flat through the paper's operating points\n"
               "(tau=8, eps_r=0.3) and degrades beyond them.\n";
  return 0;
}

// Fig. 10 — All four update heuristics across thresholds (paper: the
// windowless SYSTEM and APPLICATION heuristics can only trade accuracy for
// stability and are sensitive to tau — small tau behaves like the raw MP
// filter, large tau rarely updates and error explodes; only around tau=16 do
// they approach the window-based heuristics, which hold both metrics at
// once).
//
// Flags: --scenario (planetlab), --nodes (200; --full 269),
//        --hours (2; --full 4), --seed, --jobs, --window (32),
//        --taus=..., --relative-eps=...
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const nc::Flags flags =
      ncb::parse_flags(argc, argv, {"window", "taus", "relative-eps"});
  nc::eval::ScenarioSpec spec = ncb::scenario_spec(
      flags, {.nodes = 200, .hours = 2.0, .full_nodes = 269, .full_hours = 4.0});
  const int window = flags.get_int32("window", 32);
  const auto taus =
      flags.get_double_list("taus", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  const auto epss = flags.get_double_list(
      "relative-eps", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  const auto grid = ncb::grid(flags);

  ncb::print_header("Fig. 10: threshold sensitivity of all four heuristics",
                    "window-based heuristics hold accuracy at every threshold; "
                    "windowless ones trade it away");
  ncb::print_workload(spec);

  // One grid pass over the whole figure: system/application/energy rows per
  // tau, then relative rows per eps.
  std::vector<std::pair<std::string, std::string>> labels;  // (heuristic, threshold)
  std::vector<nc::HeuristicConfig> heuristics;
  for (double tau : taus) {
    labels.emplace_back("system", nc::eval::fmt(tau, 4));
    heuristics.push_back(nc::HeuristicConfig::system(tau));
  }
  for (double tau : taus) {
    labels.emplace_back("application", nc::eval::fmt(tau, 4));
    heuristics.push_back(nc::HeuristicConfig::application(tau));
  }
  for (double tau : taus) {
    labels.emplace_back("energy", nc::eval::fmt(tau, 4));
    heuristics.push_back(nc::HeuristicConfig::energy(tau, window));
  }
  for (double eps : epss) {
    labels.emplace_back("relative", nc::eval::fmt(eps, 3));
    heuristics.push_back(nc::HeuristicConfig::relative(eps, window));
  }
  const auto points = ncb::run_points(spec, heuristics, grid);

  nc::eval::TextTable t(
      {"heuristic", "threshold", "median rel err", "instability", "%nodes-upd/s"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ncb::SweepPoint& p = points[i];
    t.add_row({labels[i].first, labels[i].second, nc::eval::fmt(p.median_error, 3),
               nc::eval::fmt(p.instability, 4), nc::eval::fmt(p.pct_updates, 3)});
  }
  t.print(std::cout);
  std::cout << "\nexpected shape: for system/application, error grows sharply with\n"
               "tau while energy/relative stay flat; at small tau the windowless\n"
               "rows approach raw-MP instability.\n";
  return 0;
}

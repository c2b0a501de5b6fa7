// Fig. 12 — APPLICATION/CENTROID: the windowless APPLICATION trigger
// publishing the centroid of the last 32 system coordinates (paper: more
// stable than plain APPLICATION/SYSTEM, but still a direct accuracy/
// stability trade-off that is sensitive to tau — evidence that the windowed
// heuristics' win comes from change detection deciding WHEN to update, not
// merely from publishing a centroid).
//
// Flags: --scenario (planetlab), --nodes (200; --full 269),
//        --hours (2; --full 4), --seed, --jobs, --window (32), --taus=...
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const nc::Flags flags = ncb::parse_flags(argc, argv, {"window", "taus"});
  nc::eval::ScenarioSpec spec = ncb::scenario_spec(
      flags, {.nodes = 200, .hours = 2.0, .full_nodes = 269, .full_hours = 4.0});
  const int window = flags.get_int32("window", 32);
  const auto taus =
      flags.get_double_list("taus", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  const auto grid = ncb::grid(flags);

  ncb::print_header("Fig. 12: APPLICATION/CENTROID threshold sweep",
                    "stability only at the expense of accuracy; not robust to "
                    "tau (contrast with Fig. 8)");
  ncb::print_workload(spec);

  // The reference ENERGY point rides the same grid pass as the sweep.
  std::vector<nc::HeuristicConfig> heuristics;
  for (double tau : taus)
    heuristics.push_back(nc::HeuristicConfig::application_centroid(tau, window));
  heuristics.push_back(nc::HeuristicConfig::energy(8.0, window));
  const auto points = ncb::run_points(spec, heuristics, grid);

  nc::eval::TextTable t({"tau", "median rel err", "instability", "%nodes-upd/s"});
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const ncb::SweepPoint& p = points[i];
    t.add_row({nc::eval::fmt(taus[i], 4), nc::eval::fmt(p.median_error, 3),
               nc::eval::fmt(p.instability, 4), nc::eval::fmt(p.pct_updates, 3)});
  }
  t.print(std::cout);

  const ncb::SweepPoint& en = points.back();
  std::printf("\nreference energy(tau=8,k=%d): err=%.3f instability=%.3f\n", window,
              en.median_error, en.instability);
  std::cout << "expected shape: no tau matches energy's (error, instability) pair;\n"
               "low tau is unstable, high tau is inaccurate.\n";
  return 0;
}

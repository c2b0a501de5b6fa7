// Fig. 3 — Histogram and time-scatter of raw latency on ONE representative
// link (paper: measurements vary by two orders of magnitude; long-latency
// pings keep occurring across the whole three-day trace, not in one burst).
//
// Flags: --scenario (planetlab), --days (3), --seed, --src/--dst (default:
// first node of region 0 to first node of region 2 — us-east to europe on
// the planetlab mix, mirroring the paper's sub-200 ms common case).
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "latency/link_model.hpp"
#include "stats/histogram.hpp"
#include "stats/running_stats.hpp"

int main(int argc, char** argv) {
  const nc::Flags flags = ncb::parse_flags_exact(
      argc, argv, {"scenario", "days", "seed", "src", "dst"});
  const double days = flags.get_double("days", 3.0);

  nc::eval::ScenarioSpec spec = ncb::scenario_spec(flags);
  spec.workload.duration_s = days * 24.0 * 3600.0;
  const nc::lat::TraceGenConfig cfg = nc::eval::resolve_trace_config(spec.workload);

  nc::lat::Topology topo = nc::lat::Topology::make(cfg.topology);
  const int far_region = topo.region_count() > 2 ? 2 : topo.region_count() - 1;
  const nc::NodeId src = flags.get_int32("src", topo.first_node_in_region(0));
  // Single-region scenarios (lan-cluster) would make the far-region default
  // collapse onto src; fall back to src's neighbor.
  nc::NodeId default_dst = topo.first_node_in_region(far_region);
  if (default_dst == src)
    default_dst = static_cast<nc::NodeId>((src + 1) % topo.size());
  const nc::NodeId dst = flags.get_int32("dst", default_dst);
  if (src == dst) {
    std::fprintf(stderr, "--src and --dst must name two distinct nodes\n");
    return 2;
  }
  nc::lat::LatencyNetwork net(std::move(topo), cfg.link_model,
                              nc::lat::AvailabilityConfig{.enabled = false},
                              cfg.seed);

  ncb::print_header("Fig. 3: one link's raw latency over time",
                    "two orders of magnitude on a single link; spikes spread "
                    "across the whole trace");
  std::printf("scenario %s, link: node %d -> node %d (base %.1f ms), %.1f days at 1 Hz\n",
              spec.scenario.c_str(), src, dst, net.topology().base_rtt_ms(src, dst),
              days);

  nc::stats::Histogram hist(nc::eval::fig3_bucket_edges());
  const double duration = days * 24.0 * 3600.0;

  // Per-6-hour windows: spike counts prove the tail is not one incident.
  const double window_s = 6.0 * 3600.0;
  const int windows = std::max(1, static_cast<int>(duration / window_s));
  std::vector<std::uint64_t> spikes_per_window(static_cast<std::size_t>(windows), 0);
  std::vector<double> max_per_window(static_cast<std::size_t>(windows), 0.0);
  nc::stats::RunningStats all;

  for (double t = 0.0; t < duration; t += 1.0) {
    const auto rtt = net.sample_rtt(src, dst, t);
    if (!rtt.has_value()) continue;
    hist.add(*rtt);
    all.add(*rtt);
    const int w = std::min(windows - 1, static_cast<int>(t / window_s));
    if (*rtt > 1000.0) ++spikes_per_window[static_cast<std::size_t>(w)];
    max_per_window[static_cast<std::size_t>(w)] =
        std::max(max_per_window[static_cast<std::size_t>(w)], *rtt);
  }

  nc::eval::print_histogram(std::cout, "raw ping latency (ms) vs frequency", hist);
  std::printf("\nsamples %" PRIu64 "  mean %.1f ms  min %.1f  max %.0f\n",
              all.count(), all.mean(), all.min(), all.max());

  std::cout << "\nspikes (> 1 s) per 6-hour window — spread over time:\n";
  nc::eval::TextTable t({"window", "hours", "spikes>1s", "max(ms)"});
  for (int w = 0; w < windows; ++w) {
    t.add_row({std::to_string(w),
               nc::eval::fmt(w * 6.0, 3) + "-" + nc::eval::fmt((w + 1) * 6.0, 3),
               std::to_string(spikes_per_window[static_cast<std::size_t>(w)]),
               nc::eval::fmt(max_per_window[static_cast<std::size_t>(w)], 5)});
  }
  t.print(std::cout);
  return 0;
}

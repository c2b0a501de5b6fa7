// Serving-tier bench: tail latency of the CoordinateService under open-loop
// load, CONCURRENT with the engine advancing the embedding.
//
// ISSUE 8's acceptance bench. The engine runs an online scenario on its own
// thread with snapshot publication on; run_open_loop fires Poisson query
// arrivals (distance / nearest-k / centroid mix) against the publisher from
// `--clients` threads at `--rate` aggregate qps, measuring each query from
// its SCHEDULED arrival (serve/load_generator.hpp — no coordinated
// omission). Each row reports achieved throughput plus p50/p95/p99/p999/max
// microseconds of the ANSWERED queries (empty answers are counted in the
// row's "empty" field, not timed) for the BENCH record's "serving" section;
// scripts/bench_diff.py gates p99 and qps across PRs.
//
// ISSUE 10 adds --snapshot-deltas: churn-proportional publication (full base
// every --base-interval publishes, compact deltas between). Each row also
// reports snapshot_publish_bytes_per_epoch — the mean wire bytes one publish
// costs — which bench_diff gates downward; with deltas on it should sit at a
// small fraction of the full-buffer cost on a churny scenario. --selfcheck
// runs a shadow reader that reconstructs the delta stream through a
// SnapshotView during the run and fails the bench loudly if the final
// reconstructed view differs from the published full snapshot in any slot.
//
// The serving path never waits on the shard workers (one snapshot-pointer
// copy per query; O(changed slots) per refresh under deltas), so on a
// multi-core host engine events/s should match the unloaded
// bench_event_core rows; on a 1-core container the two tiers time-slice and
// the tail mostly measures scheduler preemption — compare records from the
// same host class only.
//
// Flags: standard (--scenario picks ONE preset; default runs the planetlab
//        and churn presets back to back), --nodes (269), --hours (0.25),
//        --seed (7), --shards (2), plus
//        --clients (2)        open-loop client threads
//        --rate (5000)        aggregate target qps across clients
//        --load-seconds (5)   wall-clock load length per scenario
//        --k (5)              nearest-k fan-out
//        --snapshot-deltas    publish delta snapshots instead of full buffers
//        --base-interval (16) full-base cadence under --snapshot-deltas
//        --selfcheck          verify delta reconstruction == full snapshot
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/load_generator.hpp"
#include "sim/sharded_sim.hpp"

namespace {

struct Row {
  std::string scenario;
  int nodes = 0;
  int shards = 0;
  bool snapshot_deltas = false;
  nc::serve::LoadConfig load;
  nc::serve::LoadReport report;
  std::uint64_t snapshots = 0;      // versions published by the engine
  double publish_bytes_per_epoch = 0.0;  // mean wire bytes per publish
  std::uint64_t engine_events = 0;  // kernel events processed
  double engine_wall_s = 0.0;       // engine thread, construction to join
};

struct DeltaOptions {
  bool enabled = false;
  int base_interval = 16;
  bool selfcheck = false;
};

Row run_one(const nc::eval::ScenarioSpec& spec,
            const nc::serve::LoadConfig& load, const DeltaOptions& deltas) {
  const int shards = std::max(1, spec.shards);
  nc::sim::OnlineSimConfig oc = nc::eval::resolve_online_config(spec);
  oc.publish_snapshots = true;
  oc.snapshot_deltas = deltas.enabled;
  oc.snapshot_base_interval = deltas.base_interval;

  const auto t0 = std::chrono::steady_clock::now();
  nc::sim::ShardedEngine engine(
      oc, shards,
      nc::lat::Topology::make(nc::eval::resolve_topology_config(spec.workload)),
      spec.workload.link_model.value_or(nc::lat::LinkModelConfig{}),
      spec.workload.availability.value_or(nc::lat::AvailabilityConfig{}),
      nc::eval::resolve_route_changes(spec.workload));

  // The engine advances on its own thread; the open-loop clients query its
  // publisher concurrently. The load runs its full wall-clock length even if
  // the simulation finishes first (late queries then hit the final
  // snapshot), so rows at one rate stay comparable.
  std::exception_ptr engine_error;
  std::thread engine_thread([&] {
    try {
      engine.run();
    } catch (...) {
      engine_error = std::current_exception();
    }
  });

  // Shadow reconstruction check: a reader that follows the delta stream the
  // whole run (so mid-run catch-up paths are exercised, not just the final
  // base copy) and must land exactly on the published end state.
  std::atomic<bool> check_stop{false};
  std::atomic<bool> check_ok{true};
  std::thread checker;
  if (deltas.selfcheck) {
    checker = std::thread([&] {
      nc::est::SnapshotView view(&engine.snapshot_publisher());
      while (!check_stop.load(std::memory_order_acquire)) {
        view.refresh();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const nc::est::EpochSnapshot* rec = view.refresh();
      const auto full = engine.snapshot_publisher().latest();
      const bool ok = rec != nullptr && full != nullptr &&
                      rec->version == full->version &&
                      rec->nodes == full->nodes;
      if (!ok) check_ok.store(false, std::memory_order_release);
    });
  }

  Row row;
  row.report =
      nc::serve::run_open_loop(engine.snapshot_publisher(), engine.num_nodes(),
                               load);
  engine_thread.join();
  if (checker.joinable()) {
    check_stop.store(true, std::memory_order_release);
    checker.join();
  }
  if (engine_error) std::rethrow_exception(engine_error);
  if (!check_ok.load()) {
    std::fprintf(stderr,
                 "SELFCHECK FAILED: delta-reconstructed view differs from "
                 "the published full snapshot (scenario %s)\n",
                 spec.scenario.c_str());
    std::exit(1);
  }

  const nc::est::SnapshotPublisher& pub = engine.snapshot_publisher();
  row.scenario = spec.scenario;
  row.nodes = engine.num_nodes();
  row.shards = shards;
  row.snapshot_deltas = deltas.enabled;
  row.load = load;
  row.snapshots = pub.published();
  if (pub.published() > 0)
    row.publish_bytes_per_epoch =
        static_cast<double>(pub.published_base_bytes() +
                            pub.published_delta_bytes()) /
        static_cast<double>(pub.published());
  row.engine_events = engine.events_processed();
  row.engine_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return row;
}

void print_row(const Row& r) {
  const nc::serve::LoadReport& rep = r.report;
  std::printf("%12s %6d %6d %7d %9.0f %9.0f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
              r.scenario.c_str(), r.nodes, r.shards, r.load.clients,
              r.load.rate_qps, rep.qps(), rep.latency.p50_us(),
              rep.latency.p95_us(), rep.latency.p99_us(),
              rep.latency.p999_us(),
              static_cast<double>(rep.latency.max_ns()) / 1000.0);
  std::printf(
      "  json: {\"scenario\": \"%s\", \"nodes\": %d, \"shards\": %d, "
      "\"clients\": %d, \"rate_qps\": %.0f, \"duration_s\": %.2f, "
      "\"queries\": %llu, \"answered\": %llu, \"empty\": %llu, "
      "\"qps\": %.0f, \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
      "\"p999_us\": %.1f, \"max_us\": %.1f, \"snapshot_first\": %llu, "
      "\"snapshot_last\": %llu, \"snapshots\": %llu, "
      "\"snapshot_deltas\": %d, \"snapshot_publish_bytes_per_epoch\": %.1f, "
      "\"engine_events\": %llu, \"engine_wall_s\": %.2f}\n",
      r.scenario.c_str(), r.nodes, r.shards, r.load.clients, r.load.rate_qps,
      rep.elapsed_s, static_cast<unsigned long long>(rep.issued),
      static_cast<unsigned long long>(rep.answered),
      static_cast<unsigned long long>(rep.service.empty_answers), rep.qps(),
      rep.latency.p50_us(), rep.latency.p95_us(), rep.latency.p99_us(),
      rep.latency.p999_us(),
      static_cast<double>(rep.latency.max_ns()) / 1000.0,
      static_cast<unsigned long long>(rep.first_version),
      static_cast<unsigned long long>(rep.last_version),
      static_cast<unsigned long long>(r.snapshots),
      r.snapshot_deltas ? 1 : 0, r.publish_bytes_per_epoch,
      static_cast<unsigned long long>(r.engine_events), r.engine_wall_s);
}

}  // namespace

int main(int argc, char** argv) {
  const nc::Flags flags =
      ncb::parse_flags(argc, argv,
                       {"clients", "rate", "load-seconds", "k",
                        "snapshot-deltas", "base-interval", "selfcheck"});

  nc::serve::LoadConfig load;
  load.clients = static_cast<int>(flags.get_int("clients", 2));
  load.rate_qps = flags.get_double("rate", 5000.0);
  load.duration_s = flags.get_double("load-seconds", 5.0);
  load.k = static_cast<int>(flags.get_int("k", 5));

  DeltaOptions deltas;
  deltas.enabled = flags.get_bool("snapshot-deltas", false);
  deltas.base_interval =
      static_cast<int>(flags.get_int("base-interval", 16));
  deltas.selfcheck = flags.get_bool("selfcheck", false) && deltas.enabled;

  // One preset when --scenario is given, otherwise the default pair: the
  // steady embedding (planetlab) and the one that keeps rewriting itself
  // (churn) — the serving tail must hold in both.
  std::vector<std::string> names;
  const std::string chosen = flags.get_string("scenario", "");
  if (!chosen.empty())
    names.push_back(chosen);
  else
    names = {"planetlab", "churn"};

  ncb::print_header(
      "serving tier: open-loop query latency over published snapshots",
      "the coordinate system as a SERVICE: stable coordinates are only "
      "useful if applications can read them cheaply while the system runs");
  std::printf("\n%12s %6s %6s %7s %9s %9s %8s %8s %8s %8s %8s\n", "scenario",
              "nodes", "shards", "clients", "rate", "qps", "p50us", "p95us",
              "p99us", "p999us", "maxus");

  for (const std::string& name : names) {
    nc::eval::ScenarioSpec spec = ncb::scenario_spec(
        flags,
        {.nodes = 269, .hours = 0.25, .full_nodes = 269, .full_hours = 1.0,
         .seed = 7, .scenario = name.c_str(),
         .mode = nc::eval::SimMode::kOnline, .shards = 2});
    load.seed = spec.workload.seed;
    print_row(run_one(spec, load, deltas));
  }

  std::printf(
      "\nnote: open-loop (no coordinated omission) — latency is measured\n"
      "from each query's scheduled Poisson arrival, so service stalls are\n"
      "charged to the queries they delay. On a 1-core host the engine and\n"
      "the clients time-slice; cross-PR comparison needs same host class.\n");
  return 0;
}

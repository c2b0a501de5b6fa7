// Open-loop closed-world load generator for the CoordinateService.
//
// OPEN LOOP: each client thread schedules query arrivals by WALL CLOCK at
// its share of the aggregate rate (Poisson inter-arrivals), independent of
// when earlier queries complete, and measures each query's latency from its
// SCHEDULED arrival time — so when the service stalls, the queue that
// builds up is charged to the stalled requests. A closed loop (issue, wait,
// issue) would silently absorb exactly the stalls a tail-latency benchmark
// exists to expose: the coordinated-omission mistake HdrHistogram-style
// harnesses guard against.
//
// CLOSED WORLD: the query population is the fixed node id space [0,
// num_nodes) of the deployment under test; operands are drawn uniformly
// from each thread's own deterministic Rng stream (Rng::derived(seed,
// thread)), so two runs with equal config issue the same query sequence per
// thread — only the timing is physical.
//
// Each thread owns its CoordinateService instance and LatencyRecorder
// (coordinate_service.hpp's thread contract); the run merges them into one
// LoadReport after join. The recorder holds answered queries only, so its
// percentiles are serving tails even when part of the load window ran
// before the first publish. Engine-concurrency comes from the caller: start
// the engine on its own thread with publish_snapshots on, then call
// run_open_loop against its publisher (bench/serving.cpp does exactly
// this).
#pragma once

#include <atomic>
#include <cstdint>

#include "estimate/snapshot.hpp"
#include "serve/coordinate_service.hpp"
#include "serve/recorder.hpp"

namespace nc::serve {

/// Query mix (fractions of issued queries; remainder goes to distance).
struct LoadMix {
  double nearest_k = 0.08;
  double centroid = 0.02;
};

struct LoadConfig {
  /// Open-loop client threads, each with its own service instance.
  int clients = 2;
  /// Aggregate arrival rate across all clients (queries per second).
  double rate_qps = 5000.0;
  /// Wall-clock run length; the loop also stops when `stop` (run_open_loop
  /// argument) becomes true.
  double duration_s = 10.0;
  int k = 5;             // nearest-k fan-out
  int centroid_size = 8; // replica-group size for centroid queries
  LoadMix mix;
  std::uint64_t seed = 1;
};

struct LoadReport {
  /// Answered queries only, each from its scheduled arrival; the
  /// issued - answered empty answers stay out of the tails.
  LatencyRecorder latency;
  ServiceStats service;          // merged per-thread service counters
  std::uint64_t issued = 0;      // queries fired
  std::uint64_t answered = 0;    // non-empty answers
  double elapsed_s = 0.0;        // wall clock, start to last thread joined
  std::uint64_t first_version = 0;  // snapshot version at start (0: none)
  std::uint64_t last_version = 0;   // newest version any thread observed

  /// Achieved throughput (issued queries per wall second).
  [[nodiscard]] double qps() const noexcept {
    return elapsed_s > 0.0 ? static_cast<double>(issued) / elapsed_s : 0.0;
  }
};

/// Runs the open-loop workload against `source` covering nodes [0,
/// num_nodes). Blocks until config.duration_s elapses or `stop` (optional)
/// becomes true; returns the merged report.
[[nodiscard]] LoadReport run_open_loop(const est::SnapshotPublisher& source,
                                       int num_nodes, const LoadConfig& config,
                                       const std::atomic<bool>* stop = nullptr);

}  // namespace nc::serve

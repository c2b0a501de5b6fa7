// The benchmark's open-loop serving client.
//
// One thread fires Poisson query arrivals (90% distance, 8% nearest-k with
// k = 5, 2% centroid of 8 ids) at a CoordinateService over a
// SnapshotPublisher. Each query is timed from its SCHEDULED arrival, so a
// stall is charged to every query it delays. The client sleeps only until
// shortly before a due time and spins the last stretch, so its own wake-up
// latency stays out of the service time; what remains is reported apart as
// the generator's lateness (scheduled arrival to actual send). Every sample
// keeps its query kind and whether the answer was empty.
//
// A serving window runs a reference-rate segment, then a binary search over
// the fixed rate ladder (bench_logic.hpp), then the reference rate again
// until the window closes, shortly before the publishing engine's end.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "bench_logic.hpp"
#include "common/rng.hpp"
#include "estimate/snapshot.hpp"
#include "serve/coordinate_service.hpp"
#include "spans.hpp"

namespace perfbench {

enum QueryKind : std::uint8_t { kDistance = 0, kNearestK = 1, kCentroid = 2, kKinds = 3 };

inline const char* kind_name(int k) {
  static constexpr const char* kNames[kKinds] = {"distance", "nearest_k", "centroid"};
  return kNames[k];
}

struct QuerySample {
  std::uint32_t late_ns = 0;     // scheduled arrival -> actual send
  std::uint32_t service_ns = 0;  // actual send -> answer
  std::uint8_t kind = kDistance;
  std::uint8_t answered = 0;
  [[nodiscard]] std::uint64_t latency_ns() const noexcept {
    return std::uint64_t{late_ns} + service_ns;
  }
};

/// The queries of one open-loop segment at one rate.
struct Segment {
  double wall_s = 0.0;
  /// The client thread's CPU time over the segment's wall time: about 1
  /// for a spinning client, lower when the host took the CPU away.
  double cpu_share = 0.0;
  std::vector<QuerySample> samples;
  std::uint64_t max_version_lag = 0;  // published() - answered version
};

/// The ladder verdict inputs of a segment (an empty answer ranks as +inf).
ProbeOutcome probe_outcome(const Segment& s);

class OpenLoopClient {
 public:
  /// `spans` (optional) receives one span per query, from scheduled arrival
  /// to answer; with it set the client also tracks version lag.
  /// `engine_done` is raised by the publishing engine's thread when it ends
  /// (normally or by an exception); it closes the window like stop_version.
  OpenLoopClient(const nc::est::SnapshotPublisher& source, int num_nodes,
                 std::uint64_t seed, const std::atomic<bool>& engine_done,
                 const SpanRecorder* rec, SpanRecorder::Buffer* spans);

  /// Fires arrivals at `rate_qps` for `length_s` seconds, or until the
  /// source has published `stop_version` or the engine is done. Returns
  /// false when either ended the segment early.
  bool run(double rate_qps, double length_s, std::uint64_t stop_version,
           Segment& out, std::uint64_t parent_span = 0);

 private:
  [[nodiscard]] bool issue(std::uint8_t& kind);
  [[nodiscard]] nc::NodeId draw_node();

  [[nodiscard]] bool closed(std::uint64_t stop_version) const;

  const nc::est::SnapshotPublisher& source_;
  const std::atomic<bool>& engine_done_;
  int num_nodes_;
  nc::serve::CoordinateService service_;
  nc::Rng rng_;
  const SpanRecorder* rec_;
  SpanRecorder::Buffer* spans_;
  std::vector<nc::serve::CoordinateService::Neighbor> neighbors_;
  std::vector<nc::NodeId> group_;
};

/// Everything one serving window measured.
struct ServeWindow {
  std::vector<QuerySample> ref;  // the accepted reference segment's queries
  double ref_cpu_share = 0.0;    // its Segment::cpu_share
  bool ladder_complete = false;  // the search ran to its end
  double max_qps = 0.0;          // achieved rate at the highest passing rung
  std::uint64_t max_version_lag = 0;
};

/// Runs one window: 1 s at the 20k qps reference rate, the ladder search
/// with 0.2 s probes, and unmeasured load at the reference rate until the
/// source publishes stop_version or the engine is done. A search cut short
/// that way leaves ladder_complete false. The reference segment,
/// and a probe that fails, are run again (up to twice) when the host held
/// the client off the CPU (cpu_share below kQuietShare): such a reading
/// describes the host, not the service.
inline constexpr double kQuietShare = 0.9;
ServeWindow serve_window(OpenLoopClient& client, std::uint64_t stop_version,
                         SpanRecorder::Buffer* spans, const SpanRecorder* rec,
                         std::uint64_t parent_span);

}  // namespace perfbench

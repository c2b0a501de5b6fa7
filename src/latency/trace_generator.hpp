// Streaming synthetic-trace generator.
//
// Reproduces the paper's measurement methodology (Sec. III): every node
// sends one application-level UDP ping per `ping_interval_s` to its
// neighbors in round-robin order, cycling through all other nodes. Records
// stream out in global time order without materializing the trace. Lost
// pings and down nodes simply produce no record, which is why the paper's
// 269-node, 3-day trace holds 43M samples instead of the ~70M a perfect
// 1 Hz schedule would yield.
//
// Memory is O(nodes) for the schedule and node state plus O(links touched)
// for link state: one 96-byte slot per undirected link sampled so far,
// plus its share of the row indexes — ~112 bytes per link in all, 119 MB
// at n = 2048 over 900 s. memory_bytes() reports the parts.
//
// Records are generated one chunk of schedule slots at a time, in two
// stages (LatencyNetwork::node_stage / link_stage). The node stage walks
// the schedule in (t, src) order on the calling thread. The link stage
// runs on `workers()` threads (on the calling thread when there is one
// worker), each over the slots whose link lies in its own lane of the
// network's link table. No node draw depends on a link draw, and a link's
// draws depend only on its own sample times, so every record is
// bit-identical for any worker count. next() hands each chunk's surviving
// records out in schedule order while later chunks are in the link stage,
// so the generator runs ahead of its reader; each record therefore
// carries its ground truth, stamped at sample time. DESIGN.md Sec. 5.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "latency/link_model.hpp"
#include "latency/trace.hpp"

namespace nc::lat {

struct TraceGenConfig {
  TopologyConfig topology;
  LinkModelConfig link_model;
  AvailabilityConfig availability;
  double duration_s = 4.0 * 3600.0;
  double ping_interval_s = 1.0;  // per-node ping period
  std::uint64_t seed = 1;
};

/// Heap bytes a TraceGenerator holds, by part.
struct TraceGenMemory {
  std::uint64_t link_bytes = 0;            // the network's link lanes
  std::uint64_t route_schedule_bytes = 0;  // the network's route-step table
  std::uint64_t node_bytes = 0;            // the network's per-node state
  std::uint64_t chunk_bytes = 0;           // chunk job lanes and hand-out order
  std::uint64_t ping_schedule_bytes = 0;   // ping ring and round-robin counters
  [[nodiscard]] std::uint64_t total() const noexcept {
    return link_bytes + route_schedule_bytes + node_bytes + chunk_bytes +
           ping_schedule_bytes;
  }
};

class TraceGenerator final : public TraceSource {
 public:
  /// Runs the link stage on default_workers(nodes) workers.
  explicit TraceGenerator(const TraceGenConfig& config);
  /// Pins the worker count (>= 1). Every record is the same for any count;
  /// the invariance tests use this to prove it.
  TraceGenerator(const TraceGenConfig& config, int workers);
  /// Joins the workers, drained or not.
  ~TraceGenerator() override;
  TraceGenerator(const TraceGenerator&) = delete;
  TraceGenerator& operator=(const TraceGenerator&) = delete;

  /// Next successful ping observation, in non-decreasing time order, with
  /// its ground truth stamped; nullopt once the configured duration is
  /// exhausted. A throw in any worker surfaces here, and again from every
  /// later call.
  [[nodiscard]] std::optional<TraceRecord> next() override;

  [[nodiscard]] int num_nodes() const override { return network_.topology().size(); }
  [[nodiscard]] bool stamps_ground_truth() const override { return true; }

  [[nodiscard]] const Topology& topology() const noexcept { return network_.topology(); }
  /// The generating network. Route changes may be scheduled on it before
  /// the first next(); its link state is complete, and safe to query from
  /// the calling thread, once next() has returned nullopt.
  [[nodiscard]] LatencyNetwork& network() noexcept { return network_; }

  /// Successful observations handed out so far.
  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }
  /// Ping attempts (successful or not) up to the last record handed out,
  /// or all of them once next() has returned nullopt.
  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }

  [[nodiscard]] int workers() const noexcept { return network_.link_lanes(); }

  /// Heap bytes held right now. Waits for any chunk still in its link
  /// stage first, so the link lanes are read while no worker writes them.
  [[nodiscard]] TraceGenMemory memory_bytes() const;

  /// The worker count for a trace over `num_nodes` nodes on this host:
  /// one below kMinParallelNodes, else the hardware thread count capped at
  /// kMaxWorkers.
  [[nodiscard]] static int default_workers(int num_nodes);
  static constexpr int kMinParallelNodes = 192;
  static constexpr int kMaxWorkers = 4;

 private:
  /// Chunks in flight: the one being handed out plus the ones queued for
  /// (or in) the link stage, so workers rarely wait on the node stage.
  static constexpr std::size_t kChunkBuffers = 3;

  struct PingSlot {
    double t;
    NodeId src;
    [[nodiscard]] friend bool operator<(const PingSlot& a, const PingSlot& b) {
      return a.t != b.t ? a.t < b.t : a.src < b.src;
    }
  };

  /// One ping that passed the node stage, in its link's lane.
  struct LinkJob {
    double t = 0.0;
    std::uint64_t attempt = 0;  // attempts() once this slot is handed out
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    bool overload = false;
    // Written by the link stage.
    bool lost = false;
    float rtt_ms = 0.0f;
    double truth_ms = 0.0;
  };

  /// One worker's jobs in one chunk, on its own cache lines.
  struct alignas(64) Lane {
    std::vector<LinkJob> jobs;
    std::size_t cursor = 0;           // next job to hand out
    std::exception_ptr error;         // the lane's first failure, if any
    std::uint64_t error_attempt = 0;  // ... and the slot it failed at
  };

  /// One chunk of schedule slots, from its node stage to its hand-out.
  struct alignas(64) Chunk {
    std::vector<Lane> lanes;          // one per worker
    std::vector<std::uint8_t> order;  // the jobs in schedule order, as lanes
    std::size_t order_pos = 0;        // next entry of `order` to hand out
    /// Workers still in this chunk's link stage (worker threads only).
    std::atomic<std::uint32_t> pending{0};
  };

  [[nodiscard]] NodeId next_partner(NodeId src);
  /// Pops the earliest slot and re-arms it one interval later.
  [[nodiscard]] PingSlot pop_and_rearm();
  /// Node stage for the next chunk's slots, then its link stage: inline
  /// with one worker, else handed to the worker threads.
  void stage(Chunk& chunk);
  void run_node_stage(Chunk& chunk);
  void run_lane(Lane& lane) noexcept;
  void worker_loop(std::size_t w);
  /// Stages every free buffer, then waits for the next chunk in schedule
  /// order and rethrows its link-stage failure; nullptr once exhausted.
  [[nodiscard]] Chunk* advance();
  /// Tells the worker threads to exit and joins them.
  void stop_workers() noexcept;

  TraceGenConfig config_;
  LatencyNetwork network_;

  /// The ping schedule: one slot per node, sorted by (t, src), in a ring
  /// whose head is the earliest slot.
  std::vector<PingSlot> ring_;
  std::size_t head_ = 0;
  std::vector<std::uint64_t> rr_counter_;  // per-node round-robin progress
  std::uint64_t slots_taken_ = 0;          // schedule slots the node stage took
  bool exhausted_ = false;                 // the schedule reached duration_s

  std::array<Chunk, kChunkBuffers> chunks_;
  std::uint64_t staged_ = 0;   // chunks staged so far; chunk i is chunks_[i % B]
  std::uint64_t handed_ = 0;   // chunks fully handed out
  Chunk* current_ = nullptr;   // chunk `handed_` once its link stage is done

  std::uint64_t produced_ = 0;
  std::uint64_t attempts_ = 0;
  std::exception_ptr failure_;

  /// Chunks handed to the worker threads (the low 32 bits of staged_);
  /// idle workers wait on it.
  std::atomic<std::uint32_t> published_{0};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> threads_;
};

/// Generates a full trace to a binary file; returns records written.
std::uint64_t generate_trace_file(const TraceGenConfig& config,
                                  const std::string& path);

}  // namespace nc::lat

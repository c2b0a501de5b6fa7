#include "latency/trace_generator.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace nc::lat {

namespace {

/// Schedule slots per chunk: enough link-stage work per hand-off (a few
/// hundred microseconds per worker) that waking the workers costs a few
/// percent at most, few enough that a chunk's jobs (at most ~330 KB) stay
/// in L2.
constexpr std::size_t kChunkSlots = 8192;

}  // namespace

int TraceGenerator::default_workers(int num_nodes) {
  if (num_nodes < kMinParallelNodes) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, static_cast<unsigned>(kMaxWorkers)));
}

TraceGenerator::TraceGenerator(const TraceGenConfig& config)
    : TraceGenerator(config, default_workers(config.topology.num_nodes)) {}

TraceGenerator::TraceGenerator(const TraceGenConfig& config, int workers)
    : config_(config),
      network_(Topology::make(config.topology), config.link_model,
               config.availability, config.seed, workers) {
  NC_CHECK_MSG(config.duration_s > 0.0, "duration must be positive");
  NC_CHECK_MSG(config.ping_interval_s > 0.0, "ping interval must be positive");
  NC_CHECK_MSG(workers <= 255, "at most 255 link-stage workers");

  const int n = network_.topology().size();
  rr_counter_.resize(static_cast<std::size_t>(n));
  ring_.reserve(static_cast<std::size_t>(n));
  Rng rng = Rng::derived(config.seed, 0x7363686564ULL /* "sched" */);
  for (NodeId id = 0; id < n; ++id) {
    // Random phase staggers nodes inside the second; random round-robin
    // starting point decorrelates who measures whom first.
    ring_.push_back({rng.uniform(0.0, config.ping_interval_s), id});
    rr_counter_[static_cast<std::size_t>(id)] =
        rng.uniform_int(static_cast<std::uint64_t>(n - 1));
  }
  std::sort(ring_.begin(), ring_.end());

  for (Chunk& chunk : chunks_) chunk.lanes.resize(static_cast<std::size_t>(workers));
  if (workers == 1) return;  // the calling thread runs the link stage
  threads_.reserve(static_cast<std::size_t>(workers));
  try {
    for (std::size_t w = 0; w < static_cast<std::size_t>(workers); ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  } catch (...) {
    stop_workers();
    throw;
  }
}

TraceGenerator::~TraceGenerator() { stop_workers(); }

void TraceGenerator::stop_workers() noexcept {
  if (threads_.empty()) return;
  stopping_.store(true, std::memory_order_release);
  published_.fetch_add(1, std::memory_order_release);
  published_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

NodeId TraceGenerator::next_partner(NodeId src) {
  const int n = network_.topology().size();
  auto& counter = rr_counter_[static_cast<std::size_t>(src)];
  const auto idx = static_cast<NodeId>(counter % static_cast<std::uint64_t>(n - 1));
  ++counter;
  // Map [0, n-2] onto node ids skipping src.
  return idx >= src ? idx + 1 : idx;
}

TraceGenerator::PingSlot TraceGenerator::pop_and_rearm() {
  // The head's cell becomes the tail's. Every other slot was re-armed from
  // a time no later than the head's, and rounding is monotonic, so the
  // re-armed slot is never earlier than any of them: the scan from the
  // tail stops at once unless rounding made its time equal to a slot with
  // a higher src.
  const std::size_t n = ring_.size();
  const PingSlot slot = ring_[head_];
  const PingSlot rearmed{slot.t + config_.ping_interval_s, slot.src};
  std::size_t pos = head_;
  head_ = head_ + 1 == n ? 0 : head_ + 1;
  while (pos != head_) {
    const std::size_t prev = pos == 0 ? n - 1 : pos - 1;
    if (!(rearmed < ring_[prev])) break;
    ring_[pos] = ring_[prev];
    pos = prev;
  }
  ring_[pos] = rearmed;
  return slot;
}

void TraceGenerator::run_node_stage(Chunk& chunk) {
  for (Lane& lane : chunk.lanes) {
    lane.jobs.clear();
    lane.cursor = 0;
  }
  chunk.order.clear();
  chunk.order_pos = 0;
  for (std::size_t k = 0; k < kChunkSlots; ++k) {
    if (ring_[head_].t >= config_.duration_s) {
      exhausted_ = true;
      return;
    }
    const PingSlot slot = pop_and_rearm();
    ++slots_taken_;
    if (!network_.node_up(slot.src, slot.t)) continue;  // down nodes do not ping
    const NodeId dst = next_partner(slot.src);
    const PingNodes nodes = network_.node_stage(slot.src, dst, slot.t);
    if (!nodes.target_up) continue;  // the ping times out
    const int lane = network_.link_lane(slot.src, dst);
    LinkJob job;
    job.t = slot.t;
    job.attempt = slots_taken_;
    job.src = slot.src;
    job.dst = dst;
    job.overload = nodes.overload;
    chunk.lanes[static_cast<std::size_t>(lane)].jobs.push_back(job);
    chunk.order.push_back(static_cast<std::uint8_t>(lane));
  }
}

void TraceGenerator::run_lane(Lane& lane) noexcept {
  for (LinkJob& job : lane.jobs) {
    try {
      const LinkSample s = network_.link_stage(job.src, job.dst, job.t, job.overload);
      job.lost = !s.rtt_ms.has_value();
      if (!job.lost) job.rtt_ms = static_cast<float>(*s.rtt_ms);
      job.truth_ms = s.truth_ms;
    } catch (...) {
      lane.error = std::current_exception();
      lane.error_attempt = job.attempt;
      return;
    }
  }
}

void TraceGenerator::stage(Chunk& chunk) {
  run_node_stage(chunk);
  if (threads_.empty()) {
    run_lane(chunk.lanes[0]);
    return;
  }
  chunk.pending.store(static_cast<std::uint32_t>(threads_.size()),
                      std::memory_order_relaxed);
  published_.store(static_cast<std::uint32_t>(staged_ + 1), std::memory_order_release);
  published_.notify_all();
}

void TraceGenerator::worker_loop(std::size_t w) {
  for (std::uint64_t seq = 0;; ++seq) {
    for (std::uint32_t p;
         (p = published_.load(std::memory_order_acquire)) == static_cast<std::uint32_t>(seq);)
      published_.wait(p, std::memory_order_acquire);
    if (stopping_.load(std::memory_order_acquire)) return;
    Chunk& chunk = chunks_[seq % kChunkBuffers];
    run_lane(chunk.lanes[w]);
    if (chunk.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      chunk.pending.notify_one();
  }
}

TraceGenerator::Chunk* TraceGenerator::advance() {
  while (!exhausted_ && staged_ < handed_ + kChunkBuffers) {
    stage(chunks_[staged_ % kChunkBuffers]);
    ++staged_;
  }
  if (handed_ == staged_) return nullptr;
  Chunk& chunk = chunks_[handed_ % kChunkBuffers];
  for (std::uint32_t p; (p = chunk.pending.load(std::memory_order_acquire)) != 0;)
    chunk.pending.wait(p, std::memory_order_acquire);
  // Several lanes may fail in one chunk: surface the failure a serial
  // generator would have met first.
  const Lane* failed = nullptr;
  for (const Lane& lane : chunk.lanes)
    if (lane.error && (failed == nullptr || lane.error_attempt < failed->error_attempt))
      failed = &lane;
  if (failed != nullptr) std::rethrow_exception(failed->error);
  return &chunk;
}

std::optional<TraceRecord> TraceGenerator::next() {
  if (failure_) std::rethrow_exception(failure_);
  for (;;) {
    if (current_ != nullptr) {
      Chunk& chunk = *current_;
      while (chunk.order_pos < chunk.order.size()) {
        Lane& lane = chunk.lanes[chunk.order[chunk.order_pos++]];
        const LinkJob& job = lane.jobs[lane.cursor++];
        if (job.lost) continue;
        ++produced_;
        attempts_ = job.attempt;
        return TraceRecord{job.t, job.src, job.dst, job.rtt_ms, job.truth_ms};
      }
      current_ = nullptr;
      ++handed_;
    }
    try {
      current_ = advance();
    } catch (...) {
      failure_ = std::current_exception();
      throw;
    }
    if (current_ == nullptr) {
      attempts_ = slots_taken_;
      return std::nullopt;
    }
  }
}

TraceGenMemory TraceGenerator::memory_bytes() const {
  for (const Chunk& chunk : chunks_)
    for (std::uint32_t p; (p = chunk.pending.load(std::memory_order_acquire)) != 0;)
      chunk.pending.wait(p, std::memory_order_acquire);
  TraceGenMemory m;
  m.link_bytes = network_.link_bytes();
  m.route_schedule_bytes = network_.route_schedule_bytes();
  m.node_bytes = network_.node_bytes();
  for (const Chunk& chunk : chunks_) {
    m.chunk_bytes += chunk.lanes.capacity() * sizeof(Lane) + chunk.order.capacity();
    for (const Lane& lane : chunk.lanes)
      m.chunk_bytes += lane.jobs.capacity() * sizeof(LinkJob);
  }
  m.ping_schedule_bytes = ring_.capacity() * sizeof(PingSlot) +
                          rr_counter_.capacity() * sizeof(std::uint64_t);
  return m;
}

std::uint64_t generate_trace_file(const TraceGenConfig& config,
                                  const std::string& path) {
  TraceGenerator gen(config);
  TraceWriter writer(path, gen.num_nodes());
  while (auto r = gen.next()) writer.append(*r);
  writer.close();
  return writer.written();
}

}  // namespace nc::lat

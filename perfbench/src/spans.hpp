// Fixed-size in-memory span recorder for the traced run.
//
// Every span is (kind, start, end, id, parent, thread). The recorder owns a
// fixed number of per-thread buffers of fixed capacity, all allocated up
// front: each thread role records into its own buffer without atomics or
// allocation. Spans past a buffer's capacity are dropped but still counted
// in the buffer's per-kind aggregates (count and total time), so every
// trace-source read and every query is accounted for even when only the
// first ones are kept. write() dumps everything when the run ends.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint16_t {
  kInit,           // argument parsing, table lookup, recorder set-up
  kRep,            // one repetition (parent of the spans below)
  kSetup,          // everything before the run call
  kTopologyBuild,  // lat::Topology::make
  kTraceGen,       // lat::TraceGenerator construction
  kPartition,      // lat::partition_trace (generation + split)
  kEngineBuild,    // sim::ShardedEngine construction
  kRun,            // the engine's run call
  kTraceRead,      // one TraceSource::next() on a partitioned slice
  kServe,          // one serving segment (reference rate or ladder probe)
  kQuery,          // one query, from scheduled arrival to answer
  kShadowRefresh,  // one shadow SnapshotView::refresh that advanced
  kCheck,          // correctness checks of one repetition
  kReference,      // the one-shard reference run of an unrecorded seed
  kCorePass,       // the single-thread NCClient::observe pass
  kTeardown,       // engine and trace destruction
  kHostProbe,      // the host-speed probe after a repetition
  kCount
};

inline const char* span_name(SpanKind k) {
  static constexpr std::array<const char*, static_cast<std::size_t>(SpanKind::kCount)>
      kNames = {"init",       "rep",           "setup",   "topology_build",
                "trace_gen",  "partition",     "engine_build", "run",
                "trace_read", "serve",         "query",   "shadow_refresh",
                "check",      "reference",     "core_pass", "teardown",
                "host_probe"};
  return kNames[static_cast<std::size_t>(k)];
}

using Clock = std::chrono::steady_clock;

/// A traced run fails when its leaf spans cover less of the process wall
/// time than this (SpanRecorder::leaf_coverage).
inline constexpr double kMinSpanCoverage = 0.95;

/// CPU seconds the calling thread (process) has run. The host's stolen time
/// does not advance them (the kernel charges steal to no task).
inline double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Nanoseconds since `origin` (the process's first timestamp).
inline std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // 0 for unnamed spans
  std::uint64_t parent = 0;  // id of the enclosing span, 0 for a root
  SpanKind kind = SpanKind::kInit;
  std::uint16_t thread = 0;  // buffer index
};

class SpanRecorder {
 public:
  class Buffer {
   public:
    /// Records one span; O(1), no allocation.
    void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t parent = 0) noexcept {
      record_with_id(kind, start_ns, end_ns, next_id(), parent);
    }
    /// Reserves an id for a span recorded later (a parent whose children
    /// finish first).
    std::uint64_t next_id() noexcept { return (std::uint64_t{thread_} << 48) | ++seq_; }
    void record_with_id(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                        std::uint64_t id, std::uint64_t parent = 0) noexcept {
      const auto k = static_cast<std::size_t>(kind);
      ++count_[k];
      total_ns_[k] += end_ns - start_ns;
      if (used_ < spans_.size())
        spans_[used_++] = {start_ns, end_ns, id, parent, kind, thread_};
      else
        ++dropped_;
    }

    [[nodiscard]] std::uint64_t count(SpanKind k) const noexcept {
      return count_[static_cast<std::size_t>(k)];
    }
    [[nodiscard]] std::int64_t total_ns(SpanKind k) const noexcept {
      return total_ns_[static_cast<std::size_t>(k)];
    }
    [[nodiscard]] const Span* begin() const noexcept { return spans_.data(); }
    [[nodiscard]] const Span* end() const noexcept { return spans_.data() + used_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

   private:
    friend class SpanRecorder;
    std::vector<Span> spans_;
    std::size_t used_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t seq_ = 0;
    std::uint16_t thread_ = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(SpanKind::kCount)> count_{};
    std::array<std::int64_t, static_cast<std::size_t>(SpanKind::kCount)> total_ns_{};
  };

  /// `buffers` per-thread buffers of `capacity` spans each, allocated now.
  SpanRecorder(Clock::time_point origin, int buffers, std::size_t capacity)
      : origin_(origin), buffers_(static_cast<std::size_t>(buffers)) {
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
      buffers_[i].spans_.resize(capacity);
      buffers_[i].thread_ = static_cast<std::uint16_t>(i);
    }
  }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Buffer `i`. Callers assign one buffer per thread role; a buffer may
  /// pass to another thread only across a join.
  Buffer& buffer(int i) { return buffers_.at(static_cast<std::size_t>(i)); }

  [[nodiscard]] std::int64_t now_ns() const { return ns_since(origin_, Clock::now()); }
  [[nodiscard]] Clock::time_point origin() const noexcept { return origin_; }

  /// Sum over every buffer of the per-kind count / total time.
  [[nodiscard]] std::uint64_t count(SpanKind k) const noexcept {
    std::uint64_t n = 0;
    for (const Buffer& b : buffers_) n += b.count(k);
    return n;
  }
  [[nodiscard]] std::int64_t total_ns(SpanKind k) const noexcept {
    std::int64_t n = 0;
    for (const Buffer& b : buffers_) n += b.total_ns(k);
    return n;
  }
  [[nodiscard]] std::uint64_t stored() const noexcept {
    std::uint64_t n = 0;
    for (const Buffer& b : buffers_) n += static_cast<std::uint64_t>(b.end() - b.begin());
    return n;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const Buffer& b : buffers_) n += b.dropped();
    return n;
  }

  /// Share of [0, wall_end_ns] covered by the union of the leaf spans (those
  /// no stored span names as its parent) over every buffer. Umbrella spans
  /// such as a whole repetition are left out, so a stretch that no phase
  /// span (set-up step, run call, serving segment, check, ...) accounts for
  /// counts as uncovered.
  [[nodiscard]] double leaf_coverage(std::int64_t wall_end_ns) const {
    std::vector<std::uint64_t> parents;
    for (const Buffer& b : buffers_)
      for (const Span& s : b) parents.push_back(s.parent);
    std::sort(parents.begin(), parents.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> leaves;
    for (const Buffer& b : buffers_)
      for (const Span& s : b)
        if (!std::binary_search(parents.begin(), parents.end(), s.id))
          leaves.emplace_back(s.start_ns, s.end_ns);
    std::sort(leaves.begin(), leaves.end());
    std::int64_t covered = 0, reach = 0;
    for (const auto& [a, b] : leaves) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    return wall_end_ns > 0 ? static_cast<double>(covered) / static_cast<double>(wall_end_ns)
                           : 0.0;
  }

  /// Writes the per-kind aggregates, then every stored span, one per line:
  /// "span <kind> <thread> <id> <parent> <start_ns> <end_ns>". Returns false
  /// when the file cannot be written.
  bool write(const std::string& path, const std::string& header) const {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                      &std::fclose);
    if (!f) return false;
    std::fprintf(f.get(), "%s\n", header.c_str());
    for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
      const auto kind = static_cast<SpanKind>(k);
      std::fprintf(f.get(), "kind %s count %llu total_ns %lld\n", span_name(kind),
                   static_cast<unsigned long long>(count(kind)),
                   static_cast<long long>(total_ns(kind)));
    }
    std::fprintf(f.get(), "stored %llu dropped %llu\n",
                 static_cast<unsigned long long>(stored()),
                 static_cast<unsigned long long>(dropped()));
    for (const Buffer& b : buffers_)
      for (const Span& s : b)
        std::fprintf(f.get(), "span %s %u %llx %llx %lld %lld\n", span_name(s.kind),
                     static_cast<unsigned>(s.thread), static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    return std::fflush(f.get()) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Buffer> buffers_;
};

/// RAII span on an optional buffer: a no-op (no clock reads) when the
/// buffer is null, which is how untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder::Buffer* buffer, const SpanRecorder* rec, SpanKind kind,
             std::uint64_t parent = 0)
      : buffer_(buffer), rec_(rec), kind_(kind), parent_(parent) {
    if (buffer_ != nullptr) {
      id_ = buffer_->next_id();
      start_ = rec_->now_ns();
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr)
      buffer_->record_with_id(kind_, start_, rec_->now_ns(), id_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanRecorder::Buffer* buffer_;
  const SpanRecorder* rec_;
  SpanKind kind_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace perfbench

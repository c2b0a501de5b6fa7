// A timing TraceSource decorator: forwards next() to the wrapped source,
// adds the time spent inside it to a counter and, when given a span buffer,
// records one span per read. One decorator is used by one thread only (the
// generator by the partitioning thread, each slice by its shard's worker),
// so its counters need no synchronisation.
#pragma once

#include <cstdint>
#include <optional>

#include "latency/trace.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedSource final : public nc::lat::TraceSource {
 public:
  TimedSource(nc::lat::TraceSource& inner, const SpanRecorder& rec,
              SpanRecorder::Buffer* spans, std::uint64_t parent_span)
      : inner_(inner), rec_(rec), spans_(spans), parent_(parent_span) {}

  [[nodiscard]] std::optional<nc::lat::TraceRecord> next() override {
    const auto t0 = Clock::now();
    std::optional<nc::lat::TraceRecord> r = inner_.next();
    const auto t1 = Clock::now();
    busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    if (r) ++records_;
    if (spans_ != nullptr)
      spans_->record(SpanKind::kTraceRead, ns_since(rec_.origin(), t0),
                     ns_since(rec_.origin(), t1), parent_);
    return r;
  }
  [[nodiscard]] int num_nodes() const override { return inner_.num_nodes(); }

  [[nodiscard]] std::int64_t busy_ns() const noexcept { return busy_ns_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  nc::lat::TraceSource& inner_;
  const SpanRecorder& rec_;
  SpanRecorder::Buffer* spans_;
  std::uint64_t parent_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace perfbench

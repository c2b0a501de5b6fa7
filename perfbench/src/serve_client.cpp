#include "serve_client.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

namespace perfbench {

namespace {

/// Stream-domain tag of the client's operand draws ("pbsv").
constexpr std::uint64_t kClientStream = 0x70627376ULL;

/// Sleeping is only used for gaps longer than this; the client wakes this
/// early and spins the rest, so scheduler wake-up latency is not charged to
/// the query.
constexpr auto kSpinFloor = std::chrono::microseconds(200);
constexpr auto kWakeEarly = std::chrono::microseconds(150);

constexpr double kRefRateQps = 20000.0;
constexpr double kRefSeconds = 1.0;
constexpr double kProbeSeconds = 0.2;

std::uint32_t clamp_ns(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

ProbeOutcome probe_outcome(const Segment& s) {
  ProbeOutcome o;
  o.issued = s.samples.size();
  std::vector<double> all;
  all.reserve(s.samples.size());
  for (const QuerySample& q : s.samples)
    all.push_back(q.answered ? static_cast<double>(q.latency_ns())
                             : std::numeric_limits<double>::infinity());
  o.p99_all_ns = nearest_rank(all, 99.0);
  o.end_backlog_ns = s.samples.empty() ? 0.0 : static_cast<double>(s.samples.back().late_ns);
  return o;
}

OpenLoopClient::OpenLoopClient(const nc::est::SnapshotPublisher& source, int num_nodes,
                               std::uint64_t seed, const std::atomic<bool>& engine_done,
                               const SpanRecorder* rec, SpanRecorder::Buffer* spans)
    : source_(source),
      engine_done_(engine_done),
      num_nodes_(num_nodes),
      service_(&source, num_nodes),
      rng_(nc::Rng::derived(seed, kClientStream)),
      rec_(rec),
      spans_(spans),
      group_(8) {}

bool OpenLoopClient::closed(std::uint64_t stop_version) const {
  return source_.published() >= stop_version || engine_done_.load(std::memory_order_acquire);
}

nc::NodeId OpenLoopClient::draw_node() {
  return static_cast<nc::NodeId>(rng_.uniform_int(static_cast<std::uint64_t>(num_nodes_)));
}

bool OpenLoopClient::issue(std::uint8_t& kind) {
  const double u = rng_.uniform();
  if (u < 0.08) {
    kind = kNearestK;
    service_.nearest_k(draw_node(), 5, neighbors_);
    return !neighbors_.empty();
  }
  if (u < 0.10) {
    kind = kCentroid;
    for (nc::NodeId& id : group_) id = draw_node();
    return service_.centroid(group_).has_value();
  }
  kind = kDistance;
  const nc::NodeId a = draw_node();
  nc::NodeId b = draw_node();
  if (a == b) b = static_cast<nc::NodeId>((b + 1) % num_nodes_);
  return service_.distance_ms(a, b).has_value();
}

bool OpenLoopClient::run(double rate_qps, double length_s, std::uint64_t stop_version,
                         Segment& out, std::uint64_t parent_span) {
  out.samples.clear();
  out.samples.reserve(static_cast<std::size_t>(rate_qps * std::min(length_s, 10.0) * 1.3) + 64);
  out.max_version_lag = 0;

  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(length_s));
  double offset_s = rng_.exponential(rate_qps);
  bool stopped = false;
  Clock::time_point last = t0;
  for (;;) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(offset_s));
    if (due >= deadline) break;
    if (closed(stop_version)) {
      stopped = true;
      break;
    }
    auto now = Clock::now();
    if (due - now > kSpinFloor) std::this_thread::sleep_until(due - kWakeEarly);
    while ((now = Clock::now()) < due) {
    }
    std::uint8_t kind = kDistance;
    const bool answered = issue(kind);
    last = Clock::now();
    out.samples.push_back({clamp_ns(now - due), clamp_ns(last - now), kind,
                           static_cast<std::uint8_t>(answered)});
    if (spans_ != nullptr) {
      spans_->record(SpanKind::kQuery, ns_since(rec_->origin(), due),
                     ns_since(rec_->origin(), last), parent_span);
      const std::uint64_t published = source_.published();
      const std::uint64_t seen = service_.snapshot_version();
      if (published > seen) out.max_version_lag = std::max(out.max_version_lag, published - seen);
    }
    offset_s += rng_.exponential(rate_qps);
  }
  const auto end = Clock::now();
  out.wall_s = std::chrono::duration<double>(std::max(last, std::min(end, deadline)) - t0).count();
  const double elapsed = std::chrono::duration<double>(end - t0).count();
  out.cpu_share = elapsed > 0.0 ? (thread_cpu_s() - cpu0) / elapsed : 1.0;
  return !stopped;
}

ServeWindow serve_window(OpenLoopClient& client, std::uint64_t stop_version,
                         SpanRecorder::Buffer* spans, const SpanRecorder* rec,
                         std::uint64_t parent_span) {
  ServeWindow w;
  Segment seg;
  // Runs one segment; false once the window closed (stop_version reached or
  // the engine done). A
  // segment that ends below kQuietShare while the window is open is run
  // again, up to twice: what it measured was the host, not the service.
  const auto run_quiet = [&](double rate, double length_s, auto&& accept) {
    bool open = true;
    for (int attempt = 0; attempt < 3 && open; ++attempt) {
      ScopedSpan span(spans, rec, SpanKind::kServe, parent_span);
      open = client.run(rate, length_s, stop_version, seg, span.id());
      w.max_version_lag = std::max(w.max_version_lag, seg.max_version_lag);
      if (accept() || seg.cpu_share >= kQuietShare) break;
    }
    return open;
  };

  bool open = run_quiet(kRefRateQps, kRefSeconds, [] { return false; });
  w.ref = seg.samples;
  w.ref_cpu_share = seg.cpu_share;

  if (open) {
    const std::vector<double> ladder = ladder_rates();
    std::vector<double> achieved(ladder.size(), 0.0);
    const int rung = ladder_search(static_cast<int>(ladder.size()), [&](int i) {
      bool passed = false;
      open = open && run_quiet(ladder[static_cast<std::size_t>(i)], kProbeSeconds, [&] {
        passed = probe_passes(probe_outcome(seg));
        return passed;
      });
      achieved[static_cast<std::size_t>(i)] =
          seg.wall_s > 0.0 ? static_cast<double>(seg.samples.size()) / seg.wall_s : 0.0;
      return open && passed;
    });
    w.ladder_complete = open;
    if (rung >= 0) w.max_qps = achieved[static_cast<std::size_t>(rung)];
  }

  if (open) {
    // Unmeasured load at the reference rate until the engine nears its last
    // epoch (or ends early), so the engine's rate is taken under load all run.
    ScopedSpan span(spans, rec, SpanKind::kServe, parent_span);
    client.run(kRefRateQps, 3600.0, stop_version, seg, span.id());
  }
  return w;
}

}  // namespace perfbench

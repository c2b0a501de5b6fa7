// Tests of the benchmark's own logic: percentile extraction, the rate
// ladder and its search, the probe verdict, the failure paths of the digest
// check and the serving selfcheck, and the span-coverage check. Exits
// nonzero on any failure.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_logic.hpp"
#include "serve_client.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void test_percentiles() {
  using perfbench::nearest_rank;
  using perfbench::smoothed_percentile;
  std::vector<double> empty;
  EXPECT(nearest_rank(empty, 50.0) == 0.0);
  EXPECT(smoothed_percentile(empty, 50.0) == 0.0);

  std::vector<int> one = {7};
  EXPECT(nearest_rank(one, 99.0) == 7.0);
  EXPECT(smoothed_percentile(one, 1.0) == 7.0);

  // 1..100 shuffled: nearest rank p99 = 99, p100 = 100, p0 clamps to rank 1.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(nearest_rank(v, 99.0) == 99.0);
  EXPECT(nearest_rank(v, 100.0) == 100.0);
  EXPECT(nearest_rank(v, 0.0) == 1.0);
  EXPECT(std::is_sorted(v.begin(), v.end()));  // sorted in place

  // Smoothed: a small sample averages just the nearest order statistic(s).
  std::vector<double> w = {5, 1, 3, 2, 4};
  EXPECT(near(smoothed_percentile(w, 50.0), 3.0));
  EXPECT(near(smoothed_percentile(w, 100.0), 5.0));
  EXPECT(near(smoothed_percentile(w, 0.0), 1.0));

  // 0..9999: the window is +-20 ranks around 0.5 * 9999 = 4999.5, i.e.
  // ranks 4980..5019, whose mean is 4999.5 — the exact interpolated median.
  std::vector<double> big;
  for (int i = 9999; i >= 0; --i) big.push_back(i);
  EXPECT(near(smoothed_percentile(big, 50.0), 4999.5));
  // p99 centre 9899.01 -> ranks 9880..9919, mean 9899.5.
  EXPECT(near(smoothed_percentile(big, 99.0), 9899.5));
  // A single outlier above the window does not move p50.
  big.back() = 1e12;
  EXPECT(near(smoothed_percentile(big, 50.0), 4999.5));

  EXPECT(std::isnan(perfbench::median({})));
  EXPECT(perfbench::median({3, 1, 2}) == 2.0);
  EXPECT(perfbench::median({4, 1, 3, 2}) == 2.5);
}

void test_ladder() {
  const std::vector<double> rates = perfbench::ladder_rates();
  EXPECT(!rates.empty());
  EXPECT(rates.front() == 10000.0);
  EXPECT(rates.back() <= 4.0e6);
  EXPECT(rates.back() * std::exp2(1.0 / 8) > 4.0e6);
  for (std::size_t i = 1; i < rates.size(); ++i)
    EXPECT(near(rates[i] / rates[i - 1], std::exp2(1.0 / 8), 1e-12));
  EXPECT(perfbench::ladder_rates(1.0, 8.0, 1) == std::vector<double>({1, 2, 4, 8}));

  // For every threshold t (rungs <= t pass), the search finds t within
  // ceil(log2(n + 1)) probes.
  const int n = static_cast<int>(rates.size());
  const int max_probes = static_cast<int>(std::ceil(std::log2(n + 1.0)));
  for (int t = -1; t < n; ++t) {
    int probes = 0;
    const int got = perfbench::ladder_search(n, [&](int i) {
      ++probes;
      EXPECT(i >= 0 && i < n);
      return i <= t;
    });
    EXPECT(got == t);
    EXPECT(probes <= max_probes);
  }
  EXPECT(perfbench::ladder_search(0, [](int) { return true; }) == -1);
}

void test_probe_verdict() {
  perfbench::ProbeOutcome o;
  EXPECT(!perfbench::probe_passes(o));  // nothing issued
  o.issued = 100;
  o.p99_all_ns = 999e3;
  EXPECT(perfbench::probe_passes(o));
  o.p99_all_ns = 1.001e6;
  EXPECT(!perfbench::probe_passes(o));
  o.p99_all_ns = 10e3;
  o.end_backlog_ns = 2e6;  // the open loop fell behind
  EXPECT(!perfbench::probe_passes(o));

  // Empty answers rank above every latency: 1000 fast queries pass with up
  // to 10 empty ones and fail with 11.
  for (const int empties : {10, 11}) {
    perfbench::Segment s;
    for (int i = 0; i < 1000; ++i) {
      perfbench::QuerySample q;
      q.late_ns = 100;
      q.service_ns = 500;
      q.answered = i >= empties;
      s.samples.push_back(q);
    }
    const perfbench::ProbeOutcome out = perfbench::probe_outcome(s);
    EXPECT(out.issued == 1000);
    EXPECT(out.end_backlog_ns == 100.0);
    EXPECT(perfbench::probe_passes(out) == (empties == 10));
  }
}

void test_digest() {
  using perfbench::RunDigest;
  const RunDigest d{4013686, 1234567, 0.1066, 3.25};
  RunDigest e = d;
  EXPECT(d.hash() == e.hash());
  EXPECT(perfbench::compare_digests(d, e).empty());
  e.median_rel_err = std::nextafter(d.median_rel_err, 1.0);  // one ulp
  EXPECT(d.hash() != e.hash());
  const std::string why = perfbench::compare_digests(e, d);
  EXPECT(why.find("median_rel_err") != std::string::npos);
  EXPECT(why.find("events") == std::string::npos);
  e = d;
  e.events += 1;
  e.instability_ms_per_s = 3.5;
  const std::string two = perfbench::compare_digests(e, d);
  EXPECT(two.find("events") != std::string::npos);
  EXPECT(two.find("instability_ms_per_s") != std::string::npos);

  const std::vector<perfbench::ExpectedRow> table = {
      {"online-churn", 1, d, d.hash()},
      {"online-churn", 2, d, d.hash() ^ 1},  // corrupt row
  };
  std::string msg;
  EXPECT(!perfbench::check_expected(table, "online-churn", 3, d, msg));  // no row
  EXPECT(!perfbench::check_expected(table, "serve-churn", 1, d, msg));
  EXPECT(perfbench::check_expected(table, "online-churn", 1, d, msg) && msg.empty());
  RunDigest wrong = d;
  wrong.observations -= 1;
  EXPECT(perfbench::check_expected(table, "online-churn", 1, wrong, msg) &&
         msg.find("observations") != std::string::npos);
  EXPECT(perfbench::check_expected(table, "online-churn", 2, d, msg) &&
         msg.find("corrupt") != std::string::npos);
}

void test_selfcheck() {
  nc::est::EpochSnapshot a;
  a.version = 7;
  a.nodes.resize(4);
  a.nodes[2].error = 0.25;
  nc::est::EpochSnapshot b = a;
  EXPECT(perfbench::compare_views(&a, &b).empty());
  EXPECT(!perfbench::compare_views(nullptr, &b).empty());
  EXPECT(!perfbench::compare_views(&a, nullptr).empty());
  b.nodes[3].up = 0;
  EXPECT(perfbench::compare_views(&a, &b) == "slot 3 differs");
  b = a;
  b.version = 8;
  EXPECT(perfbench::compare_views(&a, &b).find("version") != std::string::npos);
  b = a;
  b.nodes.pop_back();
  EXPECT(perfbench::compare_views(&a, &b).find("size") != std::string::npos);
}

void test_span_coverage() {
  using perfbench::SpanKind;
  using perfbench::SpanRecorder;
  // A repetition [0, 100] on the main buffer, a run [10, 90] under it on a
  // second buffer: the umbrella spans cover everything, the leaves do not.
  SpanRecorder rec(perfbench::Clock::now(), 2, 16);
  SpanRecorder::Buffer& main = rec.buffer(0);
  const std::uint64_t rep = main.next_id();
  main.record(SpanKind::kSetup, 0, 40, rep);
  main.record(SpanKind::kCheck, 90, 100, rep);
  const std::uint64_t run = rec.buffer(1).next_id();
  rec.buffer(1).record_with_id(SpanKind::kRun, 40, 90, run, rep);
  main.record_with_id(SpanKind::kRep, 0, 100, rep);
  EXPECT(near(rec.leaf_coverage(100), 1.0));
  // A child of the run makes the run an umbrella too; the leaf it leaves
  // is all that counts for [40, 90].
  rec.buffer(1).record(SpanKind::kTraceRead, 40, 50, run);
  EXPECT(near(rec.leaf_coverage(100), 0.6));
  EXPECT(rec.leaf_coverage(100) < perfbench::kMinSpanCoverage);

  // A gap between the phases of one repetition fails the check, although
  // the repetition span covers the whole wall time.
  SpanRecorder gap(perfbench::Clock::now(), 1, 16);
  SpanRecorder::Buffer& b = gap.buffer(0);
  const std::uint64_t r = b.next_id();
  b.record(SpanKind::kSetup, 0, 40, r);
  b.record(SpanKind::kRun, 46, 100, r);
  b.record_with_id(SpanKind::kRep, 0, 100, r);
  EXPECT(near(gap.leaf_coverage(100), 0.94));
  EXPECT(gap.leaf_coverage(100) < perfbench::kMinSpanCoverage);
  EXPECT(near(gap.leaf_coverage(0), 0.0));
}

}  // namespace

int main() {
  test_percentiles();
  test_ladder();
  test_probe_verdict();
  test_digest();
  test_selfcheck();
  test_span_coverage();
  if (failures == 0) std::printf("perfbench logic tests: all passed\n");
  return failures == 0 ? 0 : 1;
}

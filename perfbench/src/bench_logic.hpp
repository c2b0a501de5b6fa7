// Pure helpers of the benchmark harness, kept free of engine state so the
// logic test can pin them: percentile extraction, the serving rate ladder
// and its search, the run digest the correctness check compares, and the
// slot-for-slot snapshot comparison behind the serving selfcheck.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "estimate/snapshot.hpp"

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`, which is sorted in
/// place; 0 for an empty sample. The pass/fail rule of a ladder probe uses
/// this exact form.
template <class T>
double nearest_rank(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

/// Smoothed percentile of `v` (sorted in place): the mean of the order
/// statistics whose 0-based ranks lie within +-0.2% of n of the p-th
/// percentile rank p/100 * (n - 1), at least the one nearest to it. Reported
/// latencies use this form: a clock with integer-nanosecond ticks would
/// otherwise make percentiles of different runs collide on one tick, and
/// averaging a few neighbouring ranks damps run-to-run jitter without
/// moving the percentile. 0 for an empty sample.
template <class T>
double smoothed_percentile(std::vector<T>& v, double p) {
  constexpr double window = 0.002;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double last = static_cast<double>(v.size() - 1);
  const double centre = p / 100.0 * last;
  const double half = std::max(0.5, window * static_cast<double>(v.size()));
  const double lo = std::clamp(std::ceil(centre - half), 0.0, last);
  const double hi = std::clamp(std::floor(centre + half), 0.0, last);
  if (hi < lo) return static_cast<double>(v[static_cast<std::size_t>(std::lround(centre))]);
  double sum = 0.0;
  for (auto i = static_cast<std::size_t>(lo); i <= static_cast<std::size_t>(hi); ++i)
    sum += static_cast<double>(v[i]);
  return sum / (hi - lo + 1.0);
}

/// Median of `v` (by value: the caller's order is kept); NaN when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Serving rate ladder.
// ---------------------------------------------------------------------------

/// The fixed ladder serve.max_qps is read from: geometric from `lo` with
/// `per_octave` rungs per doubling, up to and including the last rung <= hi.
inline std::vector<double> ladder_rates(double lo = 10000.0, double hi = 4.0e6,
                                        int per_octave = 8) {
  std::vector<double> rates;
  for (int i = 0;; ++i) {
    const double r = lo * std::exp2(static_cast<double>(i) / per_octave);
    if (r > hi * (1.0 + 1e-12)) break;
    rates.push_back(r);
  }
  return rates;
}

/// Binary search for the highest rung index whose probe passes, assuming
/// passing is monotone (a rung passes only if every lower one would).
/// Returns -1 when even rung 0 fails. Probes at most ceil(log2(n + 1))
/// rungs; `probe(i)` returns whether rung i passed.
template <class Probe>
int ladder_search(int rungs, Probe&& probe) {
  int lo = -1;      // highest rung known to pass (-1: none yet)
  int hi = rungs;   // lowest rung known to fail (rungs: none yet)
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

/// One ladder probe's outcome. The probe passes when it issued queries, its
/// p99 over ALL issued queries is within the limit (an empty answer counts
/// as over it), and the open loop ended without a backlog over the limit.
struct ProbeOutcome {
  std::uint64_t issued = 0;
  double p99_all_ns = 0.0;     // empty answers ranked as +infinity
  double end_backlog_ns = 0.0; // lateness of the last query sent
};

inline bool probe_passes(const ProbeOutcome& o) {
  constexpr double kLimitNs = 1e6;  // 1 ms
  return o.issued > 0 && o.p99_all_ns <= kLimitNs && o.end_backlog_ns <= kLimitNs;
}

// ---------------------------------------------------------------------------
// Correctness: the run digest and the recorded table.
// ---------------------------------------------------------------------------

/// The deterministic outputs of one engine run. Equal seeds must give equal
/// values at any shard count; the recorded table pins them per seed.
struct RunDigest {
  std::uint64_t events = 0;
  std::uint64_t observations = 0;
  double median_rel_err = 0.0;
  double instability_ms_per_s = 0.0;

  /// FNV-1a over the exact bits of every field.
  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* p, std::size_t n) {
      const auto* b = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
      }
    };
    mix(&events, sizeof events);
    mix(&observations, sizeof observations);
    mix(&median_rel_err, sizeof median_rel_err);
    mix(&instability_ms_per_s, sizeof instability_ms_per_s);
    return h;
  }
};

/// One row of the recorded table (expected_table.inc).
struct ExpectedRow {
  const char* workload;
  std::uint64_t seed;
  RunDigest digest;
  std::uint64_t hash;  // RunDigest::hash() at recording time
};

/// Empty when `got` matches `want` bit for bit; otherwise names every field
/// that differs.
inline std::string compare_digests(const RunDigest& got, const RunDigest& want) {
  std::string why;
  const auto note = [&why](const char* field, double g, double w) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s%s: got %.17g, want %.17g",
                  why.empty() ? "" : "; ", field, g, w);
    why += buf;
  };
  if (got.events != want.events)
    note("events", static_cast<double>(got.events), static_cast<double>(want.events));
  if (got.observations != want.observations)
    note("observations", static_cast<double>(got.observations),
         static_cast<double>(want.observations));
  if (std::memcmp(&got.median_rel_err, &want.median_rel_err, sizeof(double)) != 0)
    note("median_rel_err", got.median_rel_err, want.median_rel_err);
  if (std::memcmp(&got.instability_ms_per_s, &want.instability_ms_per_s,
                  sizeof(double)) != 0)
    note("instability_ms_per_s", got.instability_ms_per_s, want.instability_ms_per_s);
  return why;
}

/// Checks `got` against the table row for (workload, seed). Returns false
/// when no row exists (the caller falls back to a one-shard reference run);
/// otherwise sets `why` (empty on a match). A row whose stored hash does not
/// match its own values is reported as a corrupt table.
inline bool check_expected(const std::vector<ExpectedRow>& table,
                           const std::string& workload, std::uint64_t seed,
                           const RunDigest& got, std::string& why) {
  for (const ExpectedRow& row : table) {
    if (workload != row.workload || seed != row.seed) continue;
    if (row.digest.hash() != row.hash) {
      why = "recorded row is corrupt (hash does not match its values)";
      return true;
    }
    why = compare_digests(got, row.digest);
    return true;
  }
  return false;
}

/// Serving selfcheck: empty when a reader's reconstructed view equals the
/// published full snapshot in version and in every slot; otherwise says
/// where they part.
inline std::string compare_views(const nc::est::EpochSnapshot* view,
                                 const nc::est::EpochSnapshot* full) {
  if (view == nullptr || full == nullptr) return "missing view or snapshot";
  if (view->version != full->version)
    return "version " + std::to_string(view->version) + " vs " +
           std::to_string(full->version);
  if (view->nodes.size() != full->nodes.size())
    return "size " + std::to_string(view->nodes.size()) + " vs " +
           std::to_string(full->nodes.size());
  for (std::size_t i = 0; i < view->nodes.size(); ++i)
    if (!(view->nodes[i] == full->nodes[i]))
      return "slot " + std::to_string(i) + " differs";
  return {};
}

}  // namespace perfbench

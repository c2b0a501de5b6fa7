#include "eval/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.hpp"
#include "eval/scenario.hpp"

namespace nc::eval {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return buf;
}

std::string fmt_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < std::size(kUnits)) {
    v /= 1024.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0)
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  else
    std::snprintf(buf, sizeof buf, "%.1f %s", v, kUnits[unit]);
  return buf;
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  NC_CHECK_MSG(!headers_.empty(), "table needs headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  NC_CHECK_MSG(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    rule += "  " + std::string(width[c], '-');
  os << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

const std::vector<double>& cdf_grid() {
  static const std::vector<double> grid = {0.05, 0.10, 0.25, 0.50,
                                           0.75, 0.90, 0.95, 0.99};
  return grid;
}

void print_cdf_table(std::ostream& os, const std::string& title,
                     const std::vector<std::pair<std::string, const stats::Ecdf*>>& cdfs,
                     int precision) {
  os << title << '\n';
  std::vector<std::string> headers = {"pctile"};
  for (const auto& [name, cdf] : cdfs) {
    NC_CHECK_MSG(cdf != nullptr && !cdf->empty(), "empty CDF: " + name);
    headers.push_back(name);
  }
  TextTable table(std::move(headers));
  for (double q : cdf_grid()) {
    std::vector<std::string> row = {fmt(100.0 * q, 3) + "%"};
    for (const auto& [name, cdf] : cdfs) row.push_back(fmt(cdf->quantile(q), precision));
    table.add_row(std::move(row));
  }
  table.print(os);
}

void print_histogram(std::ostream& os, const std::string& title,
                     const stats::Histogram& hist) {
  os << title << '\n';
  TextTable table({"bucket(ms)", "count", "log-bar"});
  const auto bar = [](std::uint64_t count) {
    if (count == 0) return std::string();
    const int len = 1 + static_cast<int>(std::log10(static_cast<double>(count)) * 6.0);
    return std::string(static_cast<std::size_t>(std::min(len, 60)), '#');
  };
  for (int b = 0; b < hist.bucket_count(); ++b)
    table.add_row({hist.bucket_label(b), std::to_string(hist.count(b)),
                   bar(hist.count(b))});
  if (hist.overflow() > 0)
    table.add_row({">=" + fmt(hist.edges().back(), 6), std::to_string(hist.overflow()),
                   bar(hist.overflow())});
  table.print(os);
}

std::string boxplot_row(const stats::BoxplotStats& b, int precision) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "min=%s wlo=%s q1=%s med=%s q3=%s whi=%s max=%s outliers=%llu",
                fmt(b.min, precision).c_str(), fmt(b.whisker_lo, precision).c_str(),
                fmt(b.q1, precision).c_str(), fmt(b.median, precision).c_str(),
                fmt(b.q3, precision).c_str(), fmt(b.whisker_hi, precision).c_str(),
                fmt(b.max, precision).c_str(),
                static_cast<unsigned long long>(b.outliers));
  return buf;
}

std::vector<double> fig2_bucket_edges() {
  std::vector<double> edges;
  for (int e = 0; e <= 1000; e += 100) edges.push_back(e);
  edges.push_back(2000.0);
  edges.push_back(3000.0);
  return edges;
}

std::vector<double> fig3_bucket_edges() {
  std::vector<double> edges;
  for (int e = 0; e <= 2200; e += 200) edges.push_back(e);
  return edges;
}

void print_backend_comparison(
    std::ostream& os, const std::string& title,
    const std::vector<std::pair<std::string, const ScenarioOutput*>>& runs) {
  os << title << '\n';
  TextTable table({"run", "med_rel_err", "mean_instab", "coverage", "stale",
                   "entries", "est_mem", "feed_traffic", "total_mem"});
  for (const auto& [label, out] : runs) {
    const est::EstimatorStats& es = out->estimator_stats;
    const double stale_frac =
        es.entries == 0 ? 0.0
                        : static_cast<double>(es.stale_entries) /
                              static_cast<double>(es.entries);
    table.add_row({label, fmt(out->metrics.median_relative_error()),
                   fmt(out->metrics.mean_instability_ms_per_s()),
                   fmt(es.coverage(), 3), fmt(stale_frac, 3),
                   std::to_string(es.entries), fmt_bytes(es.memory_bytes),
                   fmt_bytes(es.traffic_bytes), fmt_bytes(out->memory.total())});
  }
  table.print(os);
}

void print_memory_budget(std::ostream& os, const ScenarioOutput& out) {
  const sim::MemoryBudget& m = out.memory;
  os << "memory budget: clients=" << fmt_bytes(m.client_bytes)
     << " links=" << fmt_bytes(m.link_bytes)
     << " estimator=" << fmt_bytes(m.estimator_bytes)
     << " mailbox=" << fmt_bytes(m.mailbox_bytes)
     << " queues=" << fmt_bytes(m.queue_bytes)
     << " collectors=" << fmt_bytes(m.collector_bytes);
  if (m.neighbor_bytes > 0)
    os << " neighbors=" << fmt_bytes(m.neighbor_bytes);
  if (m.snapshot_bytes() > 0) {
    os << " snapshots=" << fmt_bytes(m.snapshot_bytes());
    if (m.snapshot_delta_bytes > 0)
      os << " (deltas=" << fmt_bytes(m.snapshot_delta_bytes) << ')';
  }
  os << " total=" << fmt_bytes(m.total());
  // Replay only: the trace generator's link lanes and buffers sit outside
  // the engine's budget.
  if (const std::uint64_t gen = out.generator_memory.total(); gen > 0)
    os << " generator=" << fmt_bytes(gen);
  os << '\n';
}

}  // namespace nc::eval

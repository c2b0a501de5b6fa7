// Plain-text report formatting: aligned tables, CDF grids, histograms.
//
// Bench binaries print the same rows/series the paper's figures plot; these
// helpers keep that output consistent and diffable across runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "stats/boxplot.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"

namespace nc::eval {

struct ScenarioOutput;

/// Fixed-precision double formatting ("%.*g"-style but stable).
[[nodiscard]] std::string fmt(double v, int precision = 4);

/// Human-readable byte count ("640 B", "1.5 MiB").
[[nodiscard]] std::string fmt_bytes(std::uint64_t bytes);

/// Column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// The probability grid used when printing CDFs.
[[nodiscard]] const std::vector<double>& cdf_grid();

/// Prints one table with a row per grid quantile and a column per named CDF.
void print_cdf_table(std::ostream& os, const std::string& title,
                     const std::vector<std::pair<std::string, const stats::Ecdf*>>& cdfs,
                     int precision = 4);

/// Prints a histogram with per-bucket counts and a log-scaled bar.
void print_histogram(std::ostream& os, const std::string& title,
                     const stats::Histogram& hist);

/// One boxplot summary line: min/whiskers/quartiles/max/outliers.
[[nodiscard]] std::string boxplot_row(const stats::BoxplotStats& b, int precision = 3);

/// Bucket edges of the paper's Fig. 2 latency histogram:
/// 0-99, ..., 900-999, 1000-1999, 2000-2999, >= 3000 (overflow).
[[nodiscard]] std::vector<double> fig2_bucket_edges();

/// Bucket edges of Fig. 3 (single link): 200 ms buckets up to 2200.
[[nodiscard]] std::vector<double> fig3_bucket_edges();

/// Side-by-side estimator-backend comparison: one row per labelled run with
/// the headline error, coverage/staleness of the backend's state, and the
/// memory + feed-traffic cost columns.
void print_backend_comparison(
    std::ostream& os, const std::string& title,
    const std::vector<std::pair<std::string, const ScenarioOutput*>>& runs);

/// One memory-budget breakdown line (clients/links/estimator/mailbox),
/// then the trace generator's bytes for a replay run.
void print_memory_budget(std::ostream& os, const ScenarioOutput& out);

}  // namespace nc::eval

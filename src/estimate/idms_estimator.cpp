#include "estimate/idms_estimator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace nc::est {

namespace {

[[nodiscard]] std::size_t id_of(NodeId id) noexcept {
  return static_cast<std::size_t>(id);
}

}  // namespace

IDMSEstimator::IDMSEstimator(const IDMSEstimatorConfig& config, int num_nodes)
    // The fallback rejects a negative node count and a non-positive
    // staleness horizon before the matrix is sized.
    : config_(config),
      fallback_(CoordinateEstimatorConfig{config.max_age_s}, num_nodes) {
  NC_CHECK_MSG(config.alpha > 0.0 && config.alpha <= 1.0,
               "EWMA weight must be in (0, 1]");
  cells_ = ShardLinkStore<Cell>(id_of(num_nodes), id_of(num_nodes));
}

void IDMSEstimator::on_observation(const LatencyObservation& obs) {
  ++observations_;
  last_now_s_ = obs.t_s;
  traffic_bytes_ += kMatrixReportBytes;
  fallback_.on_observation(obs);

  Cell& cell = cells_.at(id_of(obs.src), id_of(obs.dst));
  if (cell.updated_s < 0.0) {
    cell.rtt_ms = obs.raw_rtt_ms;
  } else {
    cell.rtt_ms =
        config_.alpha * obs.raw_rtt_ms + (1.0 - config_.alpha) * cell.rtt_ms;
  }
  cell.updated_s = obs.t_s;
}

std::optional<double> IDMSEstimator::estimate_rtt(NodeId a, NodeId b,
                                                  double now_s) {
  ++queries_;
  last_now_s_ = std::max(last_now_s_, now_s);
  // try_at keeps never-measured pairs from materializing matrix cells.
  const Cell* cell = cells_.try_at(id_of(a), id_of(b));
  if (cell != nullptr && now_s - cell->updated_s <= config_.max_age_s) {
    ++direct_hits_;
    return cell->rtt_ms;
  }
  if (const auto est = fallback_.estimate_rtt(a, b, now_s)) {
    ++fallback_hits_;
    return est;
  }
  ++misses_;
  return std::nullopt;
}

EstimatorNodeState IDMSEstimator::extract_node_state(NodeId node) {
  std::vector<std::pair<std::uint32_t, Cell>> row;
  cells_.extract_row(id_of(node), row, [](const Cell&) { return true; });
  EstimatorNodeState state;
  state.cells.reserve(row.size());
  for (const auto& [dst, cell] : row)
    state.cells.push_back(
        {static_cast<NodeId>(dst), cell.rtt_ms, cell.updated_s});
  return state;
}

void IDMSEstimator::install_node_state(NodeId node,
                                       const EstimatorNodeState& state) {
  for (const EstimatorNodeState::MatrixCell& c : state.cells) {
    Cell& cell = cells_.at(id_of(node), id_of(c.dst));
    NC_ASSERT(cell.updated_s < 0.0);
    cell.rtt_ms = c.rtt_ms;
    cell.updated_s = c.updated_s;
  }
}

EstimatorStats IDMSEstimator::stats() const {
  EstimatorStats s;
  s.observations = observations_;
  s.queries = queries_;
  s.direct_hits = direct_hits_;
  s.fallback_hits = fallback_hits_;
  s.misses = misses_;
  s.entries = cells_.size();
  cells_.for_each([&](const Cell& cell) {
    if (last_now_s_ - cell.updated_s > config_.max_age_s) ++s.stale_entries;
  });
  const EstimatorStats fb = fallback_.stats();
  // sizeof(*this) already covers the embedded fallback's own footprint.
  s.memory_bytes = sizeof(*this) + cells_.memory_bytes() +
                   (fb.memory_bytes - sizeof(fallback_));
  s.traffic_bytes = traffic_bytes_ + fb.traffic_bytes;
  return s;
}

}  // namespace nc::est

#include "core/nc_client.hpp"

#include <algorithm>
#include <new>

#include "common/check.hpp"

namespace nc {

NCClient::NCClient(NodeId id, const NCClientConfig& config)
    : id_(id),
      config_(config),
      filter_(config.filter),
      row_bytes_(sizeof(LinkHeader) + filter_.row_doubles() * sizeof(double)),
      vivaldi_(config.vivaldi, static_cast<std::uint64_t>(id)),
      heuristic_(config.heuristic.make()) {}

std::uint32_t NCClient::link_for(NodeId remote) {
  const auto rid = static_cast<std::uint32_t>(remote);
  if (const auto slot = slot_of_.find(rid); slot.has_value()) return *slot;

  // First contact (or re-contact after eviction): claim a slab row.
  if (config_.max_tracked_links > 0 &&
      active_links_ >= config_.max_tracked_links) {
    evict_one_link();
  }
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = fresh_slot();
  }
  // An empty FilterState is a fresh filter whatever the row held before —
  // pinned against fresh standalone filters by
  // NCClient.SlabLinkStateMatchesClockHandReference.
  ::new (row(idx)) LinkHeader{remote, 1, FilterState{}};
  slot_of_.insert(rid, idx);
  ++active_links_;
  return idx;
}

std::uint32_t NCClient::fresh_slot() {
  if (slots_ % kChunkRows == 0) {
    // Every chunk is full: add one, cut short where it would pass the cap
    // (first contacts claim fresh slots only below it).
    std::size_t rows = kChunkRows;
    if (config_.max_tracked_links > 0)
      rows = std::min(rows, config_.max_tracked_links - slots_);
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(rows * row_bytes_));
    chunk_bytes_ += rows * row_bytes_;
  }
  return slots_++;
}

void NCClient::evict_one_link() {
  // Clock-hand (second-chance) sweep: links observed since the hand last
  // passed get their reference bit cleared and survive; the first slot found
  // unreferenced is evicted. Amortized O(1) per eviction — the old oldest-
  // timestamp scan paid O(max_tracked_links) every time. Two full passes
  // bound the loop: after one pass every ref bit is clear, so the second
  // pass must evict (the slab holds at least one active slot here).
  if (active_links_ == 0) return;
  const std::size_t slots = slots_;
  for (std::size_t step = 0; step < 2 * slots; ++step) {
    if (clock_hand_ >= slots) clock_hand_ = 0;
    LinkHeader& s = header(clock_hand_++);
    if (s.remote == kInvalidNode) continue;  // free slot
    if (s.ref != 0) {
      s.ref = 0;  // second chance
      continue;
    }
    if (s.remote == nearest_id_) nearest_id_ = kInvalidNode;
    // Unhook the index entry: this is what keeps the compact table bounded
    // by the slab instead of by the distinct-remote count.
    slot_of_.erase(static_cast<std::uint32_t>(s.remote));
    s.remote = kInvalidNode;
    free_slots_.push_back(static_cast<std::uint32_t>(clock_hand_ - 1));
    --active_links_;
    ++evictions_;
    return;
  }
  NC_CHECK_MSG(false, "clock-hand sweep found no victim in two passes");
}

ObservationOutcome NCClient::observe(NodeId remote, const Coordinate& remote_coord,
                                     double remote_error, double raw_rtt_ms,
                                     double now_s) {
  NC_CHECK_MSG(remote != id_, "node observed itself");
  NC_CHECK_MSG(raw_rtt_ms > 0.0, "rtt must be positive");
  ++observations_;

  ObservationOutcome out;
  const std::uint32_t slot = link_for(remote);
  LinkHeader& link = header(slot);
  link.ref = 1;

  out.filtered_rtt_ms = filter_.update(link.filter, filter_row(slot), raw_rtt_ms);
  if (!out.filtered_rtt_ms.has_value()) {
    ++absorbed_;
    return out;
  }
  const double filtered = *out.filtered_rtt_ms;

  // Approximate nearest neighbor by filtered RTT. Re-observing the current
  // nearest refreshes its value and coordinate even if the link got slower;
  // this keeps the scale honest without scanning all links.
  if (nearest_id_ == kInvalidNode || filtered <= nearest_rtt_ms_ ||
      remote == nearest_id_) {
    nearest_id_ = remote;
    nearest_rtt_ms_ = filtered;
    nearest_coord_ = remote_coord;
  }

  const VivaldiSample sample = vivaldi_.observe(remote_coord, remote_error, filtered);
  out.vivaldi_updated = true;
  out.sample_relative_error = sample.relative_error;
  out.system_displacement_ms = sample.displacement_ms;

  if (!app_initialized_) {
    // First usable sample: seed the application coordinate so callers always
    // have something consistent, then let the heuristic take over.
    app_coord_ = vivaldi_.coordinate();
    app_error_ = vivaldi_.error_estimate();
    app_initialized_ = true;
    out.app_updated = true;
    out.app_displacement_ms = 0.0;  // seeded from origin-adjacent state
    ++app_updates_;
    return out;
  }

  const UpdateContext ctx{
      .system = vivaldi_.coordinate(),
      .nearest = nearest_coord_.initialized() ? &nearest_coord_ : nullptr,
      .now_s = now_s,
  };
  const Coordinate app_before = app_coord_;
  out.app_updated = heuristic_->on_system_update(ctx, app_coord_);
  if (out.app_updated) {
    out.app_displacement_ms = app_coord_.displacement_from(app_before);
    app_error_ = vivaldi_.error_estimate();
    ++app_updates_;
  }
  return out;
}

const void* NCClient::link_row(NodeId remote) const noexcept {
  const auto slot = slot_of_.find(static_cast<std::uint32_t>(remote));
  return slot.has_value() ? row(*slot) : nullptr;
}

std::size_t NCClient::memory_bytes() const noexcept {
  return sizeof(*this) + chunk_bytes_ +
         chunks_.capacity() * sizeof(std::unique_ptr<std::byte[]>) +
         slot_of_.memory_bytes() +
         free_slots_.capacity() * sizeof(std::uint32_t) +
         heuristic_->memory_bytes();
}

}  // namespace nc

// NCClient: the complete per-node coordinate subsystem as a black box
// (paper Sec. V intro): raw RTT samples go in; a stable application
// coordinate plus a continuously-evolving system coordinate come out.
//
// Pipeline per observation of remote node j:
//   raw rtt --(link j's filter row)----> filtered rtt
//           --(Vivaldi update)----------> system coordinate c_s
//           --(UpdateHeuristic)---------> application coordinate c_a
//
// The client also tracks the approximate nearest neighbor (lowest filtered
// RTT seen so far), which the RELATIVE heuristic uses as its local scale,
// and caps per-link filter state with clock-hand (second-chance) eviction
// so that gossip-discovered neighbor churn cannot grow memory without
// bound: each observation sets the link's reference bit, and when the slab
// is full a circular hand sweeps slots, clearing set bits and evicting the
// first unreferenced link it finds — O(1) amortized instead of the
// O(max_tracked_links) oldest-timestamp scan it replaces.
//
// Per-link state is one fixed-stride SLAB ROW per tracked link: a header
// (remote id, reference bit, the filter's count and cursor) followed by the
// filter kernel's doubles — for the paper's MP(4, 25) the four samples
// ascending and their arrival tags, 56 bytes in all. The client holds one
// FilterKernel, built and validated from the config at construction, and
// drives it over the row; nothing is allocated per link. The slab is a
// list of fixed chunks of kChunkRows rows that never move, so growth
// copies nothing and leaves at most one partly filled chunk, and no chunk
// reaches past max_tracked_links rows. An evicted row's slot goes on a
// free list and the next first contact re-initializes it in place, so
// once the slab has grown to the link cap, neighbor churn allocates
// nothing.
//
// The index itself is COMPACT (PR 7): a CompactSlotIndex bounded by the
// live link count instead of the dense array that grew to the largest
// remote id seen. The dense form made aggregate index memory O(n^2) across
// n clients — the last O(n) per-client state standing between the engine
// and 100k+-node runs — where the compact table is O(max_tracked_links)
// because eviction unhooks its entry, so the table can never outgrow the
// slab it points into.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/compact_index.hpp"
#include "core/coordinate.hpp"
#include "core/filter.hpp"
#include "core/heuristics/heuristic_config.hpp"
#include "core/node_id.hpp"
#include "core/vivaldi.hpp"

namespace nc {

struct NCClientConfig {
  VivaldiConfig vivaldi;
  FilterConfig filter;          // default: MP(4, 25)
  HeuristicConfig heuristic;    // default: ENERGY(tau=8, k=32)
  /// Maximum remote nodes with live filter state; 0 = unbounded.
  std::size_t max_tracked_links = 8192;
};

/// What one call to observe() did.
struct ObservationOutcome {
  /// Filter output fed to Vivaldi; nullopt if the sample was absorbed
  /// (filter not yet primed, or rejected by a threshold filter).
  std::optional<double> filtered_rtt_ms;
  /// True when Vivaldi ran (filtered_rtt_ms engaged).
  bool vivaldi_updated = false;
  /// Relative error of the Vivaldi sample (against the filtered rtt).
  double sample_relative_error = 0.0;
  /// How far the system coordinate moved (ms), for stability accounting.
  double system_displacement_ms = 0.0;
  /// True when the application coordinate changed this observation.
  bool app_updated = false;
  /// How far the application coordinate moved (0 unless app_updated).
  double app_displacement_ms = 0.0;
};

class NCClient {
 public:
  /// Throws CheckError on an unusable filter config (FilterConfig::validate)
  /// or Vivaldi config (Vivaldi's constructor: e.g. a height that the
  /// heuristic windows cannot embed) — here, not at the first observation.
  NCClient(NodeId id, const NCClientConfig& config);

  /// Feeds one latency observation of `remote` (its advertised coordinate
  /// and error estimate plus a raw RTT sample), advancing all three stages.
  ObservationOutcome observe(NodeId remote, const Coordinate& remote_coord,
                             double remote_error, double raw_rtt_ms, double now_s);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const Coordinate& system_coordinate() const noexcept {
    return vivaldi_.coordinate();
  }
  /// The stable coordinate applications should use. Equals the system
  /// coordinate until the first Vivaldi update, then evolves per heuristic.
  [[nodiscard]] const Coordinate& application_coordinate() const noexcept {
    return app_initialized_ ? app_coord_ : vivaldi_.coordinate();
  }
  [[nodiscard]] double error_estimate() const noexcept { return vivaldi_.error_estimate(); }
  [[nodiscard]] double confidence() const noexcept { return vivaldi_.confidence(); }
  /// Error estimate AS OF the last application-coordinate update — the
  /// value that describes application_coordinate(), where error_estimate()
  /// describes the continuously-moving system coordinate. Equals the live
  /// estimate until the first update (same fallback as
  /// application_coordinate()). Published snapshots carry this pair, so a
  /// node's published state only changes when its application state does.
  [[nodiscard]] double app_error() const noexcept {
    return app_initialized_ ? app_error_ : vivaldi_.error_estimate();
  }
  [[nodiscard]] double app_confidence() const noexcept { return 1.0 - app_error(); }

  /// Approximate nearest neighbor by filtered RTT, if any sample passed the
  /// filter yet.
  [[nodiscard]] std::optional<NodeId> nearest_neighbor() const noexcept {
    if (nearest_id_ == kInvalidNode) return std::nullopt;
    return nearest_id_;
  }
  [[nodiscard]] double nearest_rtt_ms() const noexcept { return nearest_rtt_ms_; }

  [[nodiscard]] std::uint64_t observation_count() const noexcept { return observations_; }
  [[nodiscard]] std::uint64_t app_update_count() const noexcept { return app_updates_; }
  [[nodiscard]] std::uint64_t absorbed_sample_count() const noexcept { return absorbed_; }
  [[nodiscard]] std::size_t tracked_link_count() const noexcept { return active_links_; }
  [[nodiscard]] std::uint64_t evicted_link_count() const noexcept { return evictions_; }
  /// Starts loading the index bucket observe(remote, ...) probes first.
  void prefetch_link(NodeId remote) const noexcept {
    slot_of_.prefetch(static_cast<std::uint32_t>(remote));
  }
  /// Address of `remote`'s slab row, or nullptr when it holds none. Rows
  /// never move, and an evicted row is re-initialized in place by a later
  /// first contact.
  [[nodiscard]] const void* link_row(NodeId remote) const noexcept;

  [[nodiscard]] const NCClientConfig& config() const noexcept { return config_; }

  /// Rows per slab chunk (1,792 bytes at MP(4, 25)). Smaller chunks leave
  /// less of the last chunk empty but pay more allocations and allocator
  /// headers; on the perfbench workloads 16 and 32 gave the lowest peak
  /// RSS, 64 and 128 up to 2.7 MB more (DESIGN.md Sec. 9).
  static constexpr std::size_t kChunkRows = 32;

  /// Bytes this client holds: the object plus every heap block it owns
  /// (slab chunks and their table, id index, free list, the heuristic
  /// object and its windows), for the per-run memory budget report.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Head of one slab row; the filter kernel's row_doubles() follow it.
  struct LinkHeader {
    /// Which remote occupies this row; kInvalidNode = free slot.
    NodeId remote = kInvalidNode;
    /// Second-chance reference bit: set on every observation of the link,
    /// cleared as the eviction hand sweeps past.
    std::uint8_t ref = 0;
    FilterState filter;
  };
  static_assert(sizeof(LinkHeader) % alignof(double) == 0,
                "the filter's doubles follow the header unpadded");

  /// Slot of `remote`'s row, claiming (and initializing) one on first
  /// contact.
  std::uint32_t link_for(NodeId remote);
  void evict_one_link();
  /// A never-used slot, allocating its chunk when the last one is full.
  [[nodiscard]] std::uint32_t fresh_slot();
  [[nodiscard]] std::byte* row(std::size_t slot) const noexcept {
    return chunks_[slot / kChunkRows].get() + slot % kChunkRows * row_bytes_;
  }
  [[nodiscard]] LinkHeader& header(std::size_t slot) noexcept {
    return *reinterpret_cast<LinkHeader*>(row(slot));
  }
  [[nodiscard]] double* filter_row(std::size_t slot) noexcept {
    return reinterpret_cast<double*>(row(slot) + sizeof(LinkHeader));
  }

  NodeId id_;
  NCClientConfig config_;
  FilterKernel filter_;
  /// Bytes per slab row: the header plus the kernel's doubles.
  std::size_t row_bytes_;
  Vivaldi vivaldi_;
  std::unique_ptr<UpdateHeuristic> heuristic_;
  Coordinate app_coord_;
  double app_error_ = 1.0;  // error_estimate() at the last app update
  bool app_initialized_ = false;

  /// Fixed-stride link rows in chunks of kChunkRows (the last chunk may be
  /// shorter, to stop at max_tracked_links); slot s lives in chunk
  /// s / kChunkRows. operator new[]'s storage is aligned for the header and
  /// the doubles each row holds (rows are multiples of 8 bytes), and a row
  /// is only ever accessed as those two types.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  /// Slots handed out so far (live or on the free list).
  std::uint32_t slots_ = 0;
  /// Bytes of all chunks.
  std::size_t chunk_bytes_ = 0;
  /// remote id -> slab slot, bounded by the live link count (eviction
  /// erases its entry) — O(max_tracked_links) bytes regardless of how many
  /// distinct remotes the client ever hears about.
  CompactSlotIndex slot_of_;
  /// Evicted rows, reclaimed LIFO by the next first contacts.
  std::vector<std::uint32_t> free_slots_;
  /// Clock-hand position of the second-chance eviction sweep.
  std::size_t clock_hand_ = 0;
  std::size_t active_links_ = 0;
  NodeId nearest_id_ = kInvalidNode;
  double nearest_rtt_ms_ = 0.0;
  Coordinate nearest_coord_;

  std::uint64_t observations_ = 0;
  std::uint64_t app_updates_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nc

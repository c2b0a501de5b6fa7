// Epoch snapshots: the engine's coordinate state made concurrently readable.
//
// The sharded kernel's shared-state discipline is owner-only writes with
// barrier-separated reads — correct inside the run, but it means nothing
// outside the worker threads may look at a coordinate while the simulation
// is advancing. The serving layer (src/serve/) needs exactly that: a query
// front end answering nearest-k/distance requests from LIVE engine state
// under a heavy open-loop client workload.
//
// The seam is publish-on-barrier: at epoch boundaries the engine stamps
// every node's application coordinate, error/confidence estimate and
// availability bit into an immutable EpochSnapshot and hands it to a
// SnapshotPublisher. Readers copy the latest snapshot pointer and then
// compute against a frozen, consistent view — no waiting on the shard
// workers, no torn coordinates, no tearing between a node's position and
// its confidence.
//
// DELTA MODE (churn-proportional publication): a full O(n) buffer per epoch
// is fine at 100k nodes but not at 1M, and it is mostly redundant — the
// paper's central claim is that application coordinates barely move between
// epochs. With enable_deltas(), only every `base_interval`-th publish ships
// a full EpochSnapshot base; the publishes in between ship a compact
// SnapshotDelta (slot-ascending (slot, SnapshotNode) upserts), built from
// per-shard dirty lanes the engine fills at its stamp step. Every publish
// — including a base — appends a delta to the retained chain, so the chain
// is continuous across bases and a reader that is at most one base behind
// catches up by applying O(changed) entries; an older (or fresh) reader
// copies the newest base once and replays the deltas after it. Version
// numbering is shared: a base and its companion delta carry the same
// version, and published() counts every publish, so delta mode publishes
// the same dense version sequence full mode would.
//
// The hand-off slot is a shared_ptr guarded by a mutex held only for the
// pointer copy itself (both sides' critical sections are pointer-sized; the
// O(n) snapshot fill happens strictly outside it), plus a lock-free
// published() version counter readers can poll without touching the slot.
// Deliberately NOT std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic
// releases its reader-side spin bit with a relaxed fetch_sub, so the
// embedded _M_ptr hand-off has no release/acquire edge back to the writer —
// a formal data race that ThreadSanitizer reports (GCC 12/13), and its spin
// bit serializes readers against each other anyway, so the plain mutex is
// not even a concession.
//
// Reader/writer contract:
//  * WRITER (one thread at a time; in the engine: shard 0 between the
//    epoch barriers): staging(n) -> fill nodes -> publish(t). Shard workers
//    may fill DISJOINT slices of the staging buffer (and their OWN dirty
//    lane) in their processing phase; the engine's barriers order those
//    writes before shard 0's publish.
//  * READERS (any thread, any time): latest() returns the newest published
//    FULL snapshot or nullptr before the first publish (in delta mode that
//    is the newest base — hold a SnapshotView to track the per-delta
//    versions). The snapshot/delta objects are immutable and kept alive by
//    their shared_ptr for as long as the reader holds them — a reader
//    mid-query never blocks the engine and never sees a later epoch
//    overwrite its view.
//  * Versions are dense (1, 2, 3, ...) and strictly increasing; a reader
//    polling latest() observes a non-decreasing version sequence.
//
// Buffer lifecycle: retired snapshot AND delta buffers are recycled through
// small mutex-protected pools instead of freed — each pool is referenced by
// every outstanding object's deleter (shared_ptr<...Pool>), so the handoff
// is data-race-free under TSan and buffers outlive the publisher if a
// reader keeps one past engine teardown. Steady state allocates nothing:
// with R concurrent readers at most R + 2 full buffers circulate, and the
// delta pool is sized to absorb the burst of chain entries pruned at a base.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/coordinate.hpp"
#include "core/node_id.hpp"

namespace nc::est {

/// One node's published state at an epoch boundary. `error`/`confidence`
/// describe the published (application) coordinate: NCClient::app_error(),
/// captured at the coordinate's last update — so the whole record only
/// changes when the node's application state or availability does, which is
/// what makes delta publication churn-proportional.
struct SnapshotNode {
  Coordinate app;           // stable application coordinate (paper Sec. V)
  double error = 0.0;       // relative-error estimate at the last app update
  double confidence = 0.0;  // 1 - error, clamped to [0, 1] by NCClient
  std::uint8_t up = 1;      // availability bit at the boundary
  /// A node is queryable once its coordinate left the origin-less initial
  /// state (dim 0 = "never updated").
  [[nodiscard]] bool placed() const noexcept { return app.initialized(); }

  [[nodiscard]] friend bool operator==(const SnapshotNode& a,
                                       const SnapshotNode& b) noexcept {
    return a.app == b.app && a.error == b.error &&
           a.confidence == b.confidence && a.up == b.up;
  }
};

/// An immutable epoch-boundary view of the whole deployment. `version` is
/// dense and strictly increasing per publisher; `t_s` is the simulation
/// time of the boundary the snapshot was taken at.
struct EpochSnapshot {
  std::uint64_t version = 0;
  double t_s = 0.0;
  std::vector<SnapshotNode> nodes;

  [[nodiscard]] int num_nodes() const noexcept {
    return static_cast<int>(nodes.size());
  }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return sizeof(EpochSnapshot) + nodes.capacity() * sizeof(SnapshotNode);
  }
};

/// One changed slot: a full-value upsert (idempotent — applying a delta
/// twice, or onto a view that already has the value, is harmless).
struct SnapshotDeltaEntry {
  std::uint32_t slot = 0;
  SnapshotNode node;
};

/// The slots that changed between version-1 and version, slot-ascending.
/// Applying the full delta chain (base_version, version] onto the base
/// reproduces the full snapshot at `version` slot for slot.
struct SnapshotDelta {
  std::uint64_t version = 0;       // view this delta produces
  std::uint64_t base_version = 0;  // newest full base at publish time
  double t_s = 0.0;
  std::vector<SnapshotDeltaEntry> entries;

  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return sizeof(SnapshotDelta) +
           entries.capacity() * sizeof(SnapshotDeltaEntry);
  }
  /// Bytes this delta puts on the wire (header + packed entries) — the
  /// publish-cost unit behind perfbench's estimate.publish_bytes_per_epoch.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept {
    return 32 + entries.size() * sizeof(SnapshotDeltaEntry);
  }
};

/// Single-writer / many-reader snapshot hand-off point (contract above).
class SnapshotPublisher {
 public:
  SnapshotPublisher();
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  // --- writer side (one thread at a time) ---

  /// Switches to delta publication: every `base_interval`-th publish ships
  /// a full base, the rest ship deltas built from `num_lanes` per-shard
  /// dirty lanes. Call once, before the first publish.
  void enable_deltas(int base_interval, int num_lanes);
  [[nodiscard]] bool delta_mode() const noexcept { return base_interval_ > 0; }
  /// Whether the NEXT publish ships a full base (delta mode; always true in
  /// full mode). The engine stages a full buffer exactly when this is true.
  [[nodiscard]] bool next_is_base() const noexcept {
    return base_interval_ == 0 || force_base_ ||
           publish_seq_ % static_cast<std::uint64_t>(base_interval_) == 0;
  }
  /// Forces the next publish to ship a full base regardless of cadence (the
  /// engine's end-of-run publish, so latest() always ends on final state).
  void force_base_next() noexcept { force_base_ = true; }

  /// Shard `lane`'s dirty list for the upcoming publish. The owner clears
  /// and refills it at the stamp step (entries slot-ascending per lane is
  /// not required — publish sorts); the barriers order those writes before
  /// the publish that consumes them. Valid after enable_deltas().
  [[nodiscard]] std::vector<SnapshotDeltaEntry>& lane(int lane) noexcept {
    return lanes_[static_cast<std::size_t>(lane)];
  }

  /// The buffer the next publish() will ship, sized to `num_nodes` entries
  /// (recycled from the pool when possible; entries from the buffer's
  /// previous life are NOT cleared — the engine overwrites every slot).
  /// Repeated calls before publish() return the same buffer. In delta mode
  /// call only when next_is_base().
  [[nodiscard]] EpochSnapshot& staging(int num_nodes);

  /// Stamps version/t_s on the staged buffer and makes it the latest
  /// snapshot. Full mode: staging() must have been called since the last
  /// publish. Delta mode: consumes the dirty lanes into a pooled
  /// SnapshotDelta, appends it to the retained chain (pruned to reach back
  /// exactly one base), and additionally ships the staged full base when
  /// next_is_base().
  void publish(double t_s);

  // --- reader side (any thread) ---

  /// Newest published FULL snapshot (delta mode: the newest base), or
  /// nullptr before the first publish. Copies the pointer under a mutex held
  /// only for the copy — a reader never waits on a snapshot being filled,
  /// and the writer never waits on a reader's query. Poll published()
  /// (lock-free) to skip the copy when nothing new was published.
  [[nodiscard]] std::shared_ptr<const EpochSnapshot> latest() const;

  /// Number of snapshots published so far (== the latest version; in delta
  /// mode every delta publish counts).
  [[nodiscard]] std::uint64_t published() const noexcept {
    return versions_.load(std::memory_order_acquire);
  }

  /// Delta-mode reader catch-up (SnapshotView::refresh's one locked call):
  /// returns true when `deltas` (versions > have_version, ascending) alone
  /// bring a MATERIALIZED view at have_version to the latest version —
  /// `materialized` false, or a reader more than one base behind, returns
  /// false with `base` set to the newest full base and `deltas` holding the
  /// chain after it (the O(n) fallback copy).
  bool catch_up(std::uint64_t have_version, bool materialized,
                std::shared_ptr<const EpochSnapshot>& base,
                std::vector<std::shared_ptr<const SnapshotDelta>>& deltas) const;

  // --- accounting (writer thread; call between runs, not mid-publish) ---

  /// Bytes held by the staged + published + pooled FULL buffers.
  [[nodiscard]] std::uint64_t base_memory_bytes() const;
  /// Bytes held by the delta chain + pooled deltas + dirty lanes.
  [[nodiscard]] std::uint64_t delta_memory_bytes() const;
  /// Everything the publisher holds (base + delta side).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return base_memory_bytes() + delta_memory_bytes();
  }

  /// Cumulative wire bytes shipped by base publishes / delta publishes —
  /// (published_base_bytes + published_delta_bytes) / published() is the
  /// mean publish cost per epoch the churn-proportional claim is about.
  [[nodiscard]] std::uint64_t published_base_bytes() const noexcept {
    return published_base_bytes_;
  }
  [[nodiscard]] std::uint64_t published_delta_bytes() const noexcept {
    return published_delta_bytes_;
  }
  [[nodiscard]] std::uint64_t base_publishes() const noexcept {
    return base_publishes_;
  }
  /// Buffers allocated fresh because the pools had nothing to recycle — the
  /// zero-steady-state-allocation tests pin these flat.
  [[nodiscard]] std::uint64_t base_buffer_allocs() const noexcept {
    return base_allocs_;
  }
  [[nodiscard]] std::uint64_t delta_buffer_allocs() const noexcept {
    return delta_allocs_;
  }

 private:
  /// Retired-buffer pools, shared with every outstanding object's deleter
  /// so recycling works (and is safe) no matter who drops the last
  /// reference, even after the publisher itself is gone.
  struct BufferPool {
    std::mutex mu;
    std::vector<std::unique_ptr<EpochSnapshot>> free;
  };
  struct DeltaPool {
    std::mutex mu;
    std::vector<std::unique_ptr<SnapshotDelta>> free;
    /// Pruning a base boundary retires up to base_interval deltas at once;
    /// the cap absorbs that burst so steady state never allocates.
    std::size_t max_pooled = 8;
  };

  [[nodiscard]] std::shared_ptr<const SnapshotDelta> build_delta(
      std::uint64_t version, double t_s);

  std::shared_ptr<BufferPool> pool_;
  std::shared_ptr<DeltaPool> delta_pool_;
  std::unique_ptr<EpochSnapshot> staging_;
  std::vector<std::vector<SnapshotDeltaEntry>> lanes_;
  mutable std::mutex latest_mu_;                 // guards latest_ AND chain_
  std::shared_ptr<const EpochSnapshot> latest_;  // the hand-off slot
  /// Deltas since the PREVIOUS base, ascending versions — exactly what a
  /// reader at most one base behind needs.
  std::vector<std::shared_ptr<const SnapshotDelta>> chain_;
  std::atomic<std::uint64_t> versions_{0};

  int base_interval_ = 0;  // 0 = full mode
  bool force_base_ = false;
  std::uint64_t publish_seq_ = 0;        // publishes so far (delta mode)
  std::uint64_t last_base_version_ = 0;  // newest base's version
  std::uint64_t prev_base_version_ = 0;  // the base before it (prune floor)

  std::uint64_t published_base_bytes_ = 0;
  std::uint64_t published_delta_bytes_ = 0;
  std::uint64_t base_publishes_ = 0;
  std::uint64_t base_allocs_ = 0;
  std::uint64_t delta_allocs_ = 0;
};

/// A reader's reconstruction of the latest published view (delta mode's
/// read path; transparent pointer pass-through in full mode). refresh()
/// applies every delta published since the last call onto a reader-local
/// materialized copy — O(changed slots) per call, one pointer-sized locked
/// section, never blocking the engine — falling back to one O(n) base copy
/// when the reader is more than one base behind (or brand new). NOT
/// internally synchronized: one view per reader thread, matching
/// CoordinateService's thread contract.
class SnapshotView {
 public:
  SnapshotView() = default;
  explicit SnapshotView(const SnapshotPublisher* source) : source_(source) {}

  /// The newest reconstructable view, or nullptr before the first publish.
  /// The pointer (and the nodes behind it) stays valid until the next
  /// refresh() on this view.
  const EpochSnapshot* refresh();

  /// Version of the view refresh() last returned (0 before any).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return materialized_ ? local_.version : (full_ ? full_->version : 0);
  }
  /// Refreshes that caught up by applying deltas only.
  [[nodiscard]] std::uint64_t delta_refreshes() const noexcept {
    return delta_refreshes_;
  }
  /// Refreshes that had to copy a full base (fresh view, or > 1 base behind).
  [[nodiscard]] std::uint64_t full_rebuilds() const noexcept {
    return full_rebuilds_;
  }

 private:
  const SnapshotPublisher* source_ = nullptr;
  std::shared_ptr<const EpochSnapshot> full_;  // full-mode pass-through
  EpochSnapshot local_;                        // delta-mode materialized copy
  bool materialized_ = false;
  std::vector<std::shared_ptr<const SnapshotDelta>> scratch_;
  std::uint64_t delta_refreshes_ = 0;
  std::uint64_t full_rebuilds_ = 0;
};

}  // namespace nc::est

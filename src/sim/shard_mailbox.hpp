// Epoch-boundary event exchange for the sharded simulator.
//
// Shards interact only through events handed over at epoch boundaries.
// During an epoch a shard appends each ShardEvent its receiver will process
// (a ping, a pong carrying coordinates, a routed trace record) to one
// UNSORTED run per (sender, receiver) cell. At the next boundary the
// receiver copies its column into a staging buffer, clamping delivered
// times up to the epoch start, and hands it to its ShardEventQueue in one
// push_batch, whose key (time, kind, owner, sender, per-sender seq) is
// total over a batch: the processing order is a pure function of the
// traffic, never of arrival order, shard count or thread timing (DESIGN.md
// "Event core"). Dst-error records bypass the queue and feed an
// order-sensitive streaming median, so they travel in a second run per
// cell, canonically ordered by construction, and the receiver k-way merges
// them. Once warm, an epoch allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "core/coordinate.hpp"
#include "core/node_id.hpp"
#include "sim/calendar_queue.hpp"

namespace nc::sim {

/// One shard's event loop entries: local ping timers, delivered events and
/// drift-tracking ticks, ordered by the canonical key (processing time,
/// kind, owner, sender, sequence). Delivered events keep their original
/// event time in `t_orig`; the processing time is clamped up to the epoch
/// that delivers them so per-entity time never runs backwards.
enum class ShardEventKind : std::uint8_t {
  kTrack = 0,      // record tracked nodes' coordinates (exact multiples of
                   // the track interval, before same-time observations)
  kPingTimer = 1,  // local: node samples its next round-robin neighbor
  kPing = 2,       // delivered: answer a ping (membership, gossip, pong)
  kPong = 3,       // delivered: observe the remote's echoed state
  kObs = 4         // delivered (replay): stamp this node's current state
                   // into a pong answering a trace record
};

struct ShardEvent {
  double t = 0.0;  // processing time (canonical queue key)
  ShardEventKind kind = ShardEventKind::kPingTimer;
  NodeId a = kInvalidNode;  // owning node (timer owner / event receiver)
  NodeId b = kInvalidNode;  // event sender
  std::uint64_t seq = 0;    // per-sender counter (tiebreak)

  double t_orig = 0.0;  // event time before clamping
  float rtt_ms = 0.0f;  // kPing: sampled RTT; kPong/kObs: echoed
  NodeId gossip = kInvalidNode;  // one advertised neighbor address
  double gt_rtt_ms = 0.0;        // quiescent ground truth (oracle)
  Coordinate sys_coord;          // kPong: remote system coordinate
  Coordinate app_coord;          // kPong: remote application coordinate
  double coord_err = 0.0;        // kPong: remote error estimate
};

/// Metrics routing: an observation's app-level relative error, keyed by its
/// destination and delivered to the destination's owner.
struct DstErrorRecord {
  double t = 0.0;              // observation (processing) time
  NodeId from = kInvalidNode;  // observer
  NodeId to = kInvalidNode;    // observed node, owned by the receiving shard
  std::uint64_t seq = 0;       // per-observer counter (tiebreak)
  double err = 0.0;
};
static_assert(sizeof(DstErrorRecord) == 32, "one record per half cache line");

/// Canonical dst-error order. Every field compared is decided by the
/// observer alone, so any shard layout merges a column identically; the key
/// is total because an observer's (from, seq) pair never repeats.
[[nodiscard]] inline bool dst_error_less(const DstErrorRecord& x,
                                         const DstErrorRecord& y) noexcept {
  return std::tie(x.t, x.from, x.to, x.seq) < std::tie(y.t, y.from, y.to, y.seq);
}

/// The W x W grid of outboxes. Cell (sender, receiver) is written only by
/// `sender` during processing phases and drained only by `receiver` during
/// delivery phases; the two phases are separated by a barrier, so no cell is
/// ever touched from two threads concurrently.
class EpochMailbox {
 public:
  struct Cell {
    std::vector<ShardEvent> events;          // unsorted
    std::vector<DstErrorRecord> dst_errors;  // canonical order by construction
  };

  /// `event_hint` and `dst_error_hint` presize each cell's two runs for the
  /// expected per-epoch traffic of one (sender, receiver) pair, so
  /// steady-state sends never reallocate.
  explicit EpochMailbox(int shards, std::size_t event_hint = 0,
                        std::size_t dst_error_hint = 0)
      : shards_(shards) {
    NC_CHECK_MSG(shards >= 1, "need at least one shard");
    const auto w = static_cast<std::size_t>(shards);
    cells_.resize(w * w);
    for (Cell& cell : cells_) {
      cell.events.reserve(event_hint);
      cell.dst_errors.reserve(dst_error_hint);
    }
    merge_runs_.resize(w);
    for (auto& runs : merge_runs_) runs.reserve(w);
  }

  /// Appends a default event to the (sender, receiver) run and returns it
  /// for the sender to fill in place; the reference is valid until the
  /// sender's next append to that cell. Called only by `sender`'s thread
  /// during its processing phase.
  [[nodiscard]] ShardEvent& append(int sender, int receiver) {
    return cell_at(sender, receiver).events.emplace_back();
  }

  /// Appends one dst-error record. Records are stamped with the sender's
  /// processing time, which its queue hands out in canonical order — the
  /// invariant that lets collect_dst_errors_into merge instead of sort.
  void send_dst_error(int sender, int receiver, const DstErrorRecord& rec) {
    auto& run = cell_at(sender, receiver).dst_errors;
    NC_ASSERT(run.empty() || dst_error_less(run.back(), rec));
    run.push_back(rec);
  }

  /// Appends every event sent to `receiver` to `out`, sender by sender,
  /// with its processing time clamped up to `epoch_start`, and resets the
  /// runs. `out` may already hold events (a migrated node's pending ones):
  /// those keep their time. The order of `out` is immaterial — push_batch
  /// orders by a key that is total over the batch.
  void collect_events_into(int receiver, double epoch_start,
                           std::vector<ShardEvent>& out) {
    for (int s = 0; s < shards_; ++s) {
      auto& run = cell_at(s, receiver).events;
      for (const ShardEvent& ev : run) {
        out.push_back(ev);
        out.back().t = std::max(ev.t, epoch_start);
      }
      run.clear();
    }
  }

  /// Merges every dst-error run destined to `receiver` into `out` (cleared
  /// first) in canonical order and resets the runs. The per-receiver cursor
  /// scratch is reused across epochs: once warm, no allocation.
  void collect_dst_errors_into(int receiver, std::vector<DstErrorRecord>& out) {
    auto& runs = merge_runs_[static_cast<std::size_t>(receiver)];
    runs.clear();
    std::size_t total = 0;
    for (int s = 0; s < shards_; ++s) {
      auto& run = cell_at(s, receiver).dst_errors;
      if (run.empty()) continue;
      NC_ASSERT(std::is_sorted(run.begin(), run.end(), &dst_error_less));
      runs.push_back(Run{run.data(), run.data() + run.size()});
      total += run.size();
    }
    out.clear();
    out.reserve(total);

    // Min-heap of run cursors keyed by head record: O(log W) per record.
    const auto run_after = [](const Run& x, const Run& y) noexcept {
      return dst_error_less(*y.next, *x.next);
    };
    std::make_heap(runs.begin(), runs.end(), run_after);
    while (!runs.empty()) {
      std::pop_heap(runs.begin(), runs.end(), run_after);
      Run& top = runs.back();
      out.push_back(*top.next);
      ++top.next;
      if (top.next == top.end) {
        runs.pop_back();
      } else {
        std::push_heap(runs.begin(), runs.end(), run_after);
      }
    }

    for (int s = 0; s < shards_; ++s) cell_at(s, receiver).dst_errors.clear();
  }

  /// Outbox introspection (tests assert capacity reuse across epochs).
  [[nodiscard]] const Cell& cell(int sender, int receiver) const {
    return cells_[index(sender, receiver)];
  }

  /// Heap bytes held by the outbox grid and merge scratch (capacity, not
  /// size: steady-state runs keep their high-water capacity by design).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = cells_.capacity() * sizeof(Cell);
    for (const Cell& cell : cells_)
      bytes += cell.events.capacity() * sizeof(ShardEvent) +
               cell.dst_errors.capacity() * sizeof(DstErrorRecord);
    bytes += merge_runs_.capacity() * sizeof(std::vector<Run>);
    for (const auto& runs : merge_runs_) bytes += runs.capacity() * sizeof(Run);
    return bytes;
  }

 private:
  struct Run {
    const DstErrorRecord* next;
    const DstErrorRecord* end;
  };

  [[nodiscard]] std::size_t index(int sender, int receiver) const noexcept {
    return static_cast<std::size_t>(sender) * static_cast<std::size_t>(shards_) +
           static_cast<std::size_t>(receiver);
  }
  [[nodiscard]] Cell& cell_at(int sender, int receiver) {
    return cells_[index(sender, receiver)];
  }

  int shards_;
  std::vector<Cell> cells_;
  /// Merge cursors, one scratch per receiver (touched only by the receiving
  /// shard's thread during delivery phases).
  std::vector<std::vector<Run>> merge_runs_;
};

/// A W x W grid of typed hand-off cells for bulk state transfer at epoch
/// barriers — the migration counterpart of EpochMailbox. Cell (sender,
/// receiver) is written only by `sender` during its processing phase and
/// drained only by `receiver` during its next delivery phase; the phases are
/// barrier-separated, so no cell is ever touched from two threads at once.
/// Unlike EpochMailbox there is no canonical merge here: payloads are whole
/// per-node state bundles, and the RECEIVER canonicalizes (sorts by node id)
/// what it drains before applying.
template <typename T>
class MigrationChannel {
 public:
  explicit MigrationChannel(int shards = 1) : shards_(shards) {
    NC_CHECK_MSG(shards >= 1, "need at least one shard");
    cells_.resize(static_cast<std::size_t>(shards) *
                  static_cast<std::size_t>(shards));
  }

  /// The (sender, receiver) cell; the sender appends packed payloads here.
  [[nodiscard]] std::vector<T>& outbox(int sender, int receiver) {
    return cells_[static_cast<std::size_t>(sender) *
                      static_cast<std::size_t>(shards_) +
                  static_cast<std::size_t>(receiver)];
  }

  /// Moves everything destined to `receiver` into `out` (cleared first),
  /// sender order; cells keep their capacity for the next barrier.
  void collect_into(int receiver, std::vector<T>& out) {
    out.clear();
    for (int s = 0; s < shards_; ++s) {
      std::vector<T>& cell = outbox(s, receiver);
      for (T& item : cell) out.push_back(std::move(item));
      cell.clear();
    }
  }

 private:
  int shards_;
  std::vector<std::vector<T>> cells_;
};

/// The per-shard event queue: two sorted stores under one canonical key, so
/// the pop order (and with it every metric) is that of a single priority
/// queue over both.
///  * The LANE holds delivered events. push_batch sorts one 32-byte key per
///    event, then moves each event into the lane once, in key order, merged
///    with any unconsumed tail (a pong due past the epoch end, a migrated
///    node's far-future event). Pops consume the lane as a prefix.
///  * The CALENDAR (calendar_queue.hpp) holds what push() schedules: ping
///    timers and track ticks.
/// pop() takes the smaller head by Ops::less, a total order. Retained bytes
/// follow the pending high-water mark — lane, spare, keys and the caller's
/// staging vector each hold at most one epoch's deliveries plus a tail, the
/// calendar's pool at most the pending timers — and a warm epoch allocates
/// nothing.
class ShardEventQueue {
 public:
  void push(ShardEvent ev) { calendar_.push(std::move(ev)); }

  /// Bulk insert of one epoch's delivered events, in any order: the key
  /// (t, kind, a, b, seq) is total over a batch, so the lane it builds does
  /// not depend on the order of `batch`. `batch` is caller-owned scratch,
  /// reused across epochs; it comes back empty with its capacity.
  void push_batch(std::vector<ShardEvent>& batch) {
    const auto id = [](NodeId n) {
      return static_cast<std::uint32_t>(n) ^ 0x80000000u;
    };
    keys_.clear();
    keys_.reserve(batch.size());
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      const ShardEvent& ev = batch[i];
      const std::uint64_t kind = static_cast<std::uint8_t>(ev.kind);
      keys_.push_back({ev.t, kind << 32 | id(ev.a), ev.seq, id(ev.b), i});
    }
    std::sort(keys_.begin(), keys_.end());

    const auto tail = lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_);
    if (tail == lane_.end()) {
      lane_.clear();
      for (const Key& key : keys_) lane_.push_back(std::move(batch[key.index]));
    } else {
      // Merge the sorted tail with the batch in key order into the spare,
      // which then trades places with the lane.
      spare_.clear();
      spare_.reserve(static_cast<std::size_t>(lane_.end() - tail) + batch.size());
      auto rest = tail;
      for (const Key& key : keys_) {
        ShardEvent& ev = batch[key.index];
        while (rest != lane_.end() && Ops::less(*rest, ev))
          spare_.push_back(std::move(*rest++));
        spare_.push_back(std::move(ev));
      }
      spare_.insert(spare_.end(), std::make_move_iterator(rest),
                    std::make_move_iterator(lane_.end()));
      lane_.swap(spare_);
      spare_.clear();
    }
    batch.clear();
    lane_head_ = 0;
  }

  [[nodiscard]] bool has_event_before(double t_end) {
    const ShardEvent* head = peek();
    return head != nullptr && head->t < t_end;
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] ShardEvent pop() {
    const ShardEvent* head = peek();
    if (lane_head_ < lane_.size() && head == &lane_[lane_head_])
      return std::move(lane_[lane_head_++]);
    return calendar_.pop();
  }

  /// The delivered event `distance` places past the lane head, or nullptr:
  /// a prefetch hint (calendar pops interleave, so not the distance-th pop).
  [[nodiscard]] const ShardEvent* lane_ahead(std::size_t distance) const noexcept {
    const std::size_t i = lane_head_ + distance;
    return i < lane_.size() ? &lane_[i] : nullptr;
  }

  /// Removes every pending event owned by `node` (ev.a == node), from lane
  /// and calendar alike, and appends them to `out` in canonical Ops::less
  /// order — the packing step of ownership migration. The new owner replays
  /// them through push_batch, so they land in its lane exactly as if
  /// delivered there originally.
  void extract_node_events(NodeId node, std::vector<ShardEvent>& out) {
    const std::size_t start = out.size();
    const auto owned = [node](const ShardEvent& ev) { return ev.a == node; };
    const auto pending = lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_);
    std::copy_if(pending, lane_.end(), std::back_inserter(out), owned);
    lane_.erase(std::remove_if(pending, lane_.end(), owned), lane_.end());
    calendar_.extract_if(owned, out);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
              &Ops::less);
  }

  [[nodiscard]] bool empty() const noexcept {
    return lane_head_ == lane_.size() && calendar_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return lane_.size() - lane_head_ + calendar_.size();
  }

  /// Heap bytes retained: the calendar's, plus the lane, its spare and the
  /// key scratch (capacity, not size).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return calendar_.memory_bytes() +
           (lane_.capacity() + spare_.capacity()) * sizeof(ShardEvent) +
           keys_.capacity() * sizeof(Key);
  }

 private:
  struct Ops {
    [[nodiscard]] static double time(const ShardEvent& e) noexcept { return e.t; }
    [[nodiscard]] static bool less(const ShardEvent& x,
                                   const ShardEvent& y) noexcept {
      if (x.t != y.t) return x.t < y.t;
      if (x.kind != y.kind) return x.kind < y.kind;
      if (x.a != y.a) return x.a < y.a;
      if (x.b != y.b) return x.b < y.b;
      return x.seq < y.seq;
    }
  };

  /// Ops::less as a 32-byte sort key plus the event's batch index. Node
  /// ids have their sign bit flipped, so unsigned order is NodeId order.
  struct Key {
    double t;
    std::uint64_t kind_a;  // kind << 32 | a
    std::uint64_t seq;
    std::uint32_t b;
    std::uint32_t index;
    [[nodiscard]] bool operator<(const Key& o) const noexcept {
      return std::tie(t, kind_a, b, seq) < std::tie(o.t, o.kind_a, o.b, o.seq);
    }
  };
  static_assert(sizeof(Key) == 32, "one sort key per half cache line");

  /// Earliest pending event by Ops::less, or nullptr when empty.
  [[nodiscard]] const ShardEvent* peek() {
    const ShardEvent* timer = calendar_.peek();
    if (lane_head_ == lane_.size()) return timer;
    const ShardEvent* delivered = &lane_[lane_head_];
    return timer == nullptr || Ops::less(*delivered, *timer) ? delivered : timer;
  }

  CalendarQueue<ShardEvent, Ops> calendar_;
  /// Delivered events, sorted; [0, lane_head_) consumed.
  std::vector<ShardEvent> lane_;
  std::size_t lane_head_ = 0;
  /// Merge target when a lane tail meets a new batch; trades places with
  /// lane_.
  std::vector<ShardEvent> spare_;
  /// push_batch's sort keys, reused across batches.
  std::vector<Key> keys_;
};

}  // namespace nc::sim

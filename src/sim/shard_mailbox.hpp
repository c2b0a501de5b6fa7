// Epoch-boundary message exchange for the sharded online simulator.
//
// Shards interact only through messages handed over at epoch boundaries.
// During an epoch each shard appends to one outbox per destination shard;
// at the next boundary the RECEIVING shard drains its column into one batch
// ordered by a canonical key that is intrinsic to the message — (time, kind,
// sender, receiver, per-sender sequence number) — so the delivery order
// every entity observes is a pure function of the traffic, never of the
// shard count or thread timing. That canonical order is the heart of the
// engine's determinism argument (see DESIGN.md "Event core").
//
// The batch is built by a k-way MERGE, not a sort: each outbox cell keeps
// one run per message kind, and two of the three kinds (kPing, kDstError)
// are emitted in canonical order by construction — their timestamp is the
// sender's processing time, which the sender's event queue already hands
// out in canonical order. Only kPong runs carry a stochastic timestamp
// (ping send time + sampled RTT), so only those small per-cell runs are
// sorted, by the SENDER, when it seals its outboxes at the end of its
// processing phase. The merge writes into a per-receiver buffer that is
// reused across epochs, so a steady-state epoch allocates nothing.
//
// The receiver turns its batch into ShardEvents and hands them to its
// ShardEventQueue in one push_batch. There they wait in a sorted lane of
// their own, beside the calendar that holds the shard's timers, so the
// bytes a queue retains follow its pending events rather than every epoch
// batch it has ever absorbed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/check.hpp"
#include "core/coordinate.hpp"
#include "core/node_id.hpp"
#include "sim/calendar_queue.hpp"

namespace nc::sim {

enum class ShardMsgKind : std::uint8_t {
  kPing = 0,     // ping i -> j: membership introduction + gossip + echo data
  kPong = 1,     // reply j -> i: remote coordinate state as of reply time
  kDstError = 2,  // metrics routing: observation error keyed by destination
  kObs = 3        // replay: trace record routed to the OBSERVED node's owner,
                  // which answers with a kPong stamping its current state
};

struct ShardMessage {
  ShardMsgKind kind = ShardMsgKind::kPing;
  double t = 0.0;  // event time: ping send / pong arrival / observation time
  NodeId from = kInvalidNode;  // sending entity
  NodeId to = kInvalidNode;    // entity owned by the receiving shard
  std::uint64_t seq = 0;       // per-sender-node message counter (tiebreak)

  float rtt_ms = 0.0f;           // kPing: sampled RTT; kPong: echoed
  NodeId gossip = kInvalidNode;  // one advertised neighbor address
  double gt_rtt_ms = 0.0;        // quiescent ground truth at ping time (oracle)
  double err = 0.0;              // kDstError: app-level relative error
  Coordinate sys_coord;          // kPong: remote system coordinate
  Coordinate app_coord;          // kPong: remote application coordinate
  double coord_err = 0.0;        // kPong: remote error estimate
};

/// Canonical message order. Every field compared is decided by the sending
/// entity alone, so any shard layout orders a delivery batch identically.
/// The key is total on distinct messages: a sender's (from, seq) pair never
/// repeats.
[[nodiscard]] inline bool shard_msg_less(const ShardMessage& a,
                                         const ShardMessage& b) noexcept {
  if (a.t != b.t) return a.t < b.t;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.from != b.from) return a.from < b.from;
  if (a.to != b.to) return a.to < b.to;
  return a.seq < b.seq;
}

/// The W x W grid of outboxes. Cell (sender, receiver) is written only by
/// `sender` during processing phases and drained only by `receiver` during
/// delivery phases; the two phases are separated by a barrier, so no cell is
/// ever touched from two threads concurrently.
class EpochMailbox {
 public:
  static constexpr int kKinds = 4;

  /// One per-kind run per cell. kPing/kDstError runs are canonically sorted
  /// by construction (asserted on append); kPong and kObs runs become sorted
  /// when the sender seals its outboxes (pong arrival times are stochastic;
  /// the trace reader emits kObs in trace order, whose equal-time records
  /// need not follow the canonical (from, to) tiebreak).
  struct Cell {
    std::vector<ShardMessage> runs[kKinds];
  };

  /// `per_cell_hint` presizes every run for the expected per-epoch traffic
  /// (roughly: nodes-per-shard ping once per epoch, spread over W receiving
  /// shards), so steady-state sends never reallocate.
  explicit EpochMailbox(int shards, std::size_t per_cell_hint = 0)
      : shards_(shards) {
    NC_CHECK_MSG(shards >= 1, "need at least one shard");
    const auto w = static_cast<std::size_t>(shards);
    cells_.resize(w * w);
    if (per_cell_hint > 0) {
      for (Cell& cell : cells_)
        for (auto& run : cell.runs) run.reserve(per_cell_hint);
    }
    merge_runs_.resize(w);
    for (auto& runs : merge_runs_) runs.reserve(w * kKinds);
  }

  /// Appends one message to the (sender, receiver) outbox. Called only by
  /// `sender`'s thread during its processing phase.
  void send(int sender, int receiver, ShardMessage msg) {
    auto& run = cell_at(sender, receiver).runs[static_cast<int>(msg.kind)];
    // Processing-time-stamped kinds must arrive presorted — that is the
    // invariant that lets collect_into merge instead of sort.
    NC_ASSERT(msg.kind == ShardMsgKind::kPong || msg.kind == ShardMsgKind::kObs ||
              run.empty() || shard_msg_less(run.back(), msg));
    run.push_back(std::move(msg));
  }

  /// Sorts `sender`'s kPong and kObs runs (the two kinds whose emission
  /// order is not the canonical order — see Cell). Called by the sender at
  /// the end of each processing phase, so every run is canonically ordered
  /// before any receiver merges it.
  void seal_outboxes(int sender) {
    for (int r = 0; r < shards_; ++r) {
      for (const ShardMsgKind kind : {ShardMsgKind::kPong, ShardMsgKind::kObs}) {
        auto& run = cell_at(sender, r).runs[static_cast<int>(kind)];
        std::sort(run.begin(), run.end(), &shard_msg_less);
      }
    }
  }

  /// Merges every sealed run destined to `receiver` into `out` (cleared
  /// first) in canonical order, and resets the runs. `out` and the per-
  /// receiver cursor scratch are reused across epochs: once warm, no
  /// allocation. Equivalent to the gather-then-sort this replaced because
  /// the canonical key is total and every run is sorted.
  void collect_into(int receiver, std::vector<ShardMessage>& out) {
    auto& runs = merge_runs_[static_cast<std::size_t>(receiver)];
    runs.clear();
    std::size_t total = 0;
    for (int s = 0; s < shards_; ++s) {
      for (auto& run : cell_at(s, receiver).runs) {
        if (run.empty()) continue;
        NC_ASSERT(std::is_sorted(run.begin(), run.end(), &shard_msg_less));
        runs.push_back(Run{run.data(), run.data() + run.size()});
        total += run.size();
      }
    }
    out.clear();
    out.reserve(total);

    // Min-heap of run cursors keyed by head message: O(log 3W) per message.
    const auto run_after = [](const Run& a, const Run& b) noexcept {
      return shard_msg_less(*b.next, *a.next);
    };
    std::make_heap(runs.begin(), runs.end(), run_after);
    while (!runs.empty()) {
      std::pop_heap(runs.begin(), runs.end(), run_after);
      Run& top = runs.back();
      out.push_back(std::move(*top.next));
      ++top.next;
      if (top.next == top.end) {
        runs.pop_back();
      } else {
        std::push_heap(runs.begin(), runs.end(), run_after);
      }
    }

    for (int s = 0; s < shards_; ++s)
      for (auto& run : cell_at(s, receiver).runs) run.clear();
  }

  /// Outbox introspection (tests assert capacity reuse across epochs).
  [[nodiscard]] const Cell& cell(int sender, int receiver) const {
    return cells_[static_cast<std::size_t>(sender) *
                      static_cast<std::size_t>(shards_) +
                  static_cast<std::size_t>(receiver)];
  }

  [[nodiscard]] int shards() const noexcept { return shards_; }

  /// Heap bytes held by the outbox grid and merge scratch (capacity, not
  /// size: steady-state runs keep their high-water capacity by design).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = cells_.capacity() * sizeof(Cell);
    for (const Cell& cell : cells_)
      for (const auto& run : cell.runs)
        bytes += run.capacity() * sizeof(ShardMessage);
    bytes += merge_runs_.capacity() * sizeof(std::vector<Run>);
    for (const auto& runs : merge_runs_) bytes += runs.capacity() * sizeof(Run);
    return bytes;
  }

 private:
  struct Run {
    ShardMessage* next;
    ShardMessage* end;
  };

  [[nodiscard]] Cell& cell_at(int sender, int receiver) {
    return cells_[static_cast<std::size_t>(sender) *
                      static_cast<std::size_t>(shards_) +
                  static_cast<std::size_t>(receiver)];
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

  [[nodiscard]] int shards() const noexcept { return shards_; }

 private:
  int shards_;
  std::vector<std::vector<T>> cells_;
};

/// One shard's event loop entries: local ping timers, delivered messages and
/// drift-tracking ticks, ordered by the canonical key (processing time,
/// kind, owner, sender, sequence). Delivered messages keep their original
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
  NodeId a = kInvalidNode;  // owning node (timer owner / message receiver)
  NodeId b = kInvalidNode;  // message sender
  std::uint64_t seq = 0;

  double t_orig = 0.0;  // message event time before clamping
  float rtt_ms = 0.0f;
  NodeId gossip = kInvalidNode;
  double gt_rtt_ms = 0.0;
  Coordinate sys_coord;
  Coordinate app_coord;
  double coord_err = 0.0;
};

/// The per-shard event queue: two sorted stores under one canonical key, so
/// the pop order (and with it every metric) is that of a single priority
/// queue over both.
///  * The LANE holds delivered events. Each epoch's batch arrives in one
///    push_batch, is sorted once and becomes the lane; pops consume it as a
///    prefix. A lane drained by the epoch's processing simply trades buffers
///    with the caller's staging vector; one with an unconsumed tail (a pong
///    due past the epoch end, a migrated node's far-future event) is merged
///    with the new batch into a spare buffer that then trades places with
///    it.
///  * The CALENDAR (calendar_queue.hpp) holds what push() schedules: ping
///    timers and track ticks.
/// pop() takes the smaller head by Ops::less, a total order. Retained bytes
/// therefore follow the pending high-water mark — the lane, its spare and
/// the caller's staging vector each hold at most one epoch's deliveries plus
/// a tail, and the calendar's pool at most the pending timers — and a
/// steady-state epoch allocates nothing once those buffers are warm.
class ShardEventQueue {
 public:
  void push(ShardEvent ev) { calendar_.push(std::move(ev)); }

  /// Bulk insert of one epoch's delivered events: sorts `batch` by the
  /// canonical key (clamping to the epoch start permutes delivery order, so
  /// the merge order does not survive translation into processing keys) and
  /// makes it the lane, merged with any unconsumed lane tail. `batch` is
  /// caller-owned scratch, reused across epochs; it comes back empty, holding
  /// a buffer the lane no longer needs.
  void push_batch(std::vector<ShardEvent>& batch) {
    std::sort(batch.begin(), batch.end(), &Ops::less);
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_.swap(batch);
    } else {
      spare_.clear();
      spare_.reserve(lane_.size() - lane_head_ + batch.size());
      std::merge(std::make_move_iterator(lane_.begin() +
                                         static_cast<std::ptrdiff_t>(lane_head_)),
                 std::make_move_iterator(lane_.end()),
                 std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()),
                 std::back_inserter(spare_), &Ops::less);
      lane_.swap(spare_);
      spare_.clear();
      batch.clear();
    }
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

  /// Heap bytes retained: the calendar's, plus the lane and its spare
  /// (capacity, not size).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return calendar_.memory_bytes() +
           (lane_.capacity() + spare_.capacity()) * sizeof(ShardEvent);
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
};

}  // namespace nc::sim

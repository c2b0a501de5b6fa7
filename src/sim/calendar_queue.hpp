// Bucketed calendar queue: the priority queue of the simulation kernel's
// own timers (R. Brown, CACM 1988).
//
// Its one client, the per-shard ShardEventQueue (shard_mailbox.hpp), keeps
// delivered events in a separate sorted lane and pushes only locally
// scheduled events here: one ping timer per node per interval plus the
// drift-tracking ticks, all strictly periodic. That access pattern is the
// textbook case where a calendar beats a binary heap: an insert lands in the
// one bucket covering its "day" (a width_-sized slice of simulated time) and
// a pop reads the current day's bucket head — O(1) amortized each, with no
// O(log n) sift moving 100+-byte events around.
//
// Layout and invariants:
//  * Events live in one slot pool; buckets hold 4-byte slot indices (the
//    array form of Brown's linked-list buckets). A popped event's slot goes
//    on a free list that the next push reuses, so the pool never outgrows
//    the pending high-water mark, and a bucket that drains keeps only its
//    small index capacity for the next day it covers. Retained bytes thus
//    follow the pending count, and steady periodic traffic allocates
//    nothing.
//  * nbuckets_ is a power of two; an event at time t belongs to day
//    floor(t / width_) and lives in bucket (day & mask_), whatever its year —
//    far-future events simply wait in their residue bucket (the "overflow"
//    events of the classic design) and are skipped by the day check until
//    the cursor reaches their day.
//  * Every bucket is kept sorted by Ops::less, a TOTAL order that extends
//    time order (Ops::less(a, b) implies time(a) <= time(b)); consumed
//    entries are a prefix [0, head) compacted lazily. Pop order is therefore
//    exactly the global Ops::less order — bit-identical to what a binary
//    heap over the same comparator produces, which is the contract the
//    engine's determinism tests pin.
//  * cur_day_ is a lower bound on the earliest unconsumed day. Pops advance
//    it; an insert below it lowers it. Callers must never insert an event
//    that sorts before one already popped (the engine schedules only at or
//    after the current event time, which guarantees it).
//  * The bucket count rescales (with a width retune from observed
//    inter-event gaps) only when the population doubles or collapses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace nc::sim {

/// Ops contract:
///   static double time(const Event&)            — event timestamp;
///   static bool less(const Event&, const Event&) — strict TOTAL order that
///     refines time order (equal times broken by caller-defined fields).
template <typename Event, typename Ops>
class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  void push(Event ev) {
    const double t = Ops::time(ev);
    NC_ASSERT(std::isfinite(t));
    if (size_ + 1 > (nbuckets() << 1)) rebuild(size_ + 1);
    const std::int64_t day = day_of(t);
    if (size_ == 0 || day < cur_day_) cur_day_ = day;
    insert_sorted(buckets_[bucket_of(day)], store(std::move(ev)));
    ++size_;
  }

  /// Earliest event by Ops::less, or nullptr when empty. Advances the day
  /// cursor past verified-empty days (pure acceleration state; a later
  /// lower push rewinds it).
  [[nodiscard]] const Event* peek() {
    if (size_ == 0) return nullptr;
    for (std::size_t probes = 0; probes < nbuckets(); ++probes) {
      const Bucket& b = buckets_[bucket_of(cur_day_)];
      if (b.head < b.slots.size() && day_of(time_at(b.slots[b.head])) == cur_day_)
        return &pool_[b.slots[b.head]];
      ++cur_day_;
    }
    // A whole year of empty days: jump straight to the earliest populated
    // day (rare — only when the next event is further than a year ahead).
    std::int64_t min_day = 0;
    bool found = false;
    for (const Bucket& b : buckets_) {
      if (b.head >= b.slots.size()) continue;
      const std::int64_t day = day_of(time_at(b.slots[b.head]));
      if (!found || day < min_day) min_day = day, found = true;
    }
    NC_ASSERT(found);
    cur_day_ = min_day;
    const Bucket& b = buckets_[bucket_of(cur_day_)];
    return &pool_[b.slots[b.head]];
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    const Event* head = peek();
    NC_CHECK_MSG(head != nullptr, "pop from empty calendar queue");
    Bucket& b = buckets_[bucket_of(cur_day_)];
    Event ev = release(b.slots[b.head]);
    ++b.head;
    --size_;
    if (b.head == b.slots.size()) {
      b.slots.clear();  // capacity retained: steady state reallocates nothing
      b.head = 0;
    } else if (b.head > 64 && b.head * 2 > b.slots.size()) {
      // Lazy compaction: a bucket pinned by a far-future event must not
      // accumulate its consumed prefix forever.
      b.slots.erase(b.slots.begin(),
                    b.slots.begin() + static_cast<std::ptrdiff_t>(b.head));
      b.head = 0;
    }
    if (size_ < nbuckets() / 8 && nbuckets() > kMinBuckets) rebuild(size_);
    return ev;
  }

  /// Removes every event matching `pred` and appends them to `out` (bucket
  /// order, NOT globally sorted — callers needing a canonical order sort the
  /// result by Ops::less). Used by ownership migration to pull a node's
  /// pending events out of its old shard's queue; each bucket is compacted
  /// with one stable two-pointer pass, so the sorted-bucket invariant and
  /// the consumed-prefix head are preserved.
  template <typename Pred>
  void extract_if(Pred&& pred, std::vector<Event>& out) {
    for (Bucket& b : buckets_) {
      std::size_t write = b.head;
      for (std::size_t read = b.head; read < b.slots.size(); ++read) {
        const std::uint32_t slot = b.slots[read];
        if (pred(pool_[slot])) {
          out.push_back(release(slot));
          --size_;
        } else {
          b.slots[write++] = slot;
        }
      }
      b.slots.resize(write);
      if (b.head == b.slots.size()) {
        b.slots.clear();
        b.head = 0;
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return nbuckets(); }

  /// Heap bytes held: the event pool and its free list, the bucket array
  /// with every bucket's index capacity, and the rebuild scratch.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = pool_.capacity() * sizeof(Event) +
                        (free_.capacity() + scratch_.capacity()) *
                            sizeof(std::uint32_t) +
                        buckets_.capacity() * sizeof(Bucket);
    for (const Bucket& b : buckets_)
      bytes += b.slots.capacity() * sizeof(std::uint32_t);
    return bytes;
  }

 private:
  struct Bucket {
    std::vector<std::uint32_t> slots;  // pool slots sorted by Ops::less;
    std::size_t head = 0;              // [0, head) consumed
  };

  static constexpr std::size_t kMinBuckets = 16;

  [[nodiscard]] std::size_t nbuckets() const noexcept { return buckets_.size(); }
  [[nodiscard]] std::size_t bucket_of(std::int64_t day) const noexcept {
    return static_cast<std::size_t>(day) & (nbuckets() - 1);
  }
  [[nodiscard]] std::int64_t day_of(double t) const noexcept {
    return static_cast<std::int64_t>(std::floor(t / width_));
  }
  [[nodiscard]] double time_at(std::uint32_t slot) const noexcept {
    return Ops::time(pool_[slot]);
  }
  [[nodiscard]] bool slot_less(std::uint32_t x, std::uint32_t y) const noexcept {
    return Ops::less(pool_[x], pool_[y]);
  }

  /// Parks `ev` in a pool slot, reusing a freed one when there is one.
  std::uint32_t store(Event&& ev) {
    if (free_.empty()) {
      pool_.push_back(std::move(ev));
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    pool_[slot] = std::move(ev);
    return slot;
  }

  /// Moves the event out of `slot` and frees the slot.
  Event release(std::uint32_t slot) {
    free_.push_back(slot);
    return std::move(pool_[slot]);
  }

  void insert_sorted(Bucket& b, std::uint32_t slot) {
    // Periodic traffic appends: timers re-arm one interval ahead, so the
    // common case is a single comparison against the bucket's back.
    if (b.slots.empty() || !slot_less(slot, b.slots.back())) {
      b.slots.push_back(slot);
      return;
    }
    const auto pos = std::upper_bound(
        b.slots.begin() + static_cast<std::ptrdiff_t>(b.head), b.slots.end(),
        slot, [this](std::uint32_t x, std::uint32_t y) { return slot_less(x, y); });
    b.slots.insert(pos, slot);
  }

  /// Rescales to ~target events per two buckets and retunes the bucket
  /// width to 3x the mean inter-event gap near the head of the queue (the
  /// classic Brown rule: clusters get spread over several buckets while a
  /// day still covers more than one event). Deterministic — depends only on
  /// the queued events, never on wall clock or randomness. Only slot
  /// indices move; the events stay in their pool slots.
  void rebuild(std::size_t target) {
    scratch_.clear();
    for (Bucket& b : buckets_) {
      scratch_.insert(scratch_.end(),
                      b.slots.begin() + static_cast<std::ptrdiff_t>(b.head),
                      b.slots.end());
      b.slots.clear();
      b.head = 0;
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [this](std::uint32_t x, std::uint32_t y) { return slot_less(x, y); });

    std::size_t n = kMinBuckets;
    while (n < target) n <<= 1;
    buckets_.resize(n);

    const std::size_t sample =
        std::min<std::size_t>(scratch_.size(), kMinBuckets * 4);
    if (sample >= 2) {
      const double span = time_at(scratch_[sample - 1]) - time_at(scratch_[0]);
      const double gap = span / static_cast<double>(sample - 1);
      if (gap > 0.0) width_ = 3.0 * gap;
    }

    cur_day_ = scratch_.empty() ? 0 : day_of(time_at(scratch_.front()));
    for (const std::uint32_t slot : scratch_)
      buckets_[bucket_of(day_of(time_at(slot)))].slots.push_back(slot);
    scratch_.clear();
  }

  /// Event storage: every pending event sits in one slot; free_ lists the
  /// vacated ones (LIFO).
  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> scratch_;  // rebuild staging, capacity reused
  double width_ = 1.0;
  std::int64_t cur_day_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nc::sim

// Application-level coordinate update heuristics (paper Sec. V).
//
// The coordinate subsystem maintains a continuously-evolving system
// coordinate c_s but exposes to the application a coordinate c_a that only
// changes when a heuristic declares the movement significant. Each heuristic
// consumes the stream of system coordinates and decides when — and to what —
// the application coordinate is updated.
#pragma once

#include <cstddef>
#include <memory>

#include "core/coordinate.hpp"

namespace nc {

/// Everything a heuristic may consult when a new system coordinate arrives.
struct UpdateContext {
  /// The system coordinate after the latest Vivaldi update.
  const Coordinate& system;
  /// Coordinate of the (approximate) nearest known neighbor, if any —
  /// RELATIVE normalizes by the distance to it. May be null.
  const Coordinate* nearest = nullptr;
  /// Current time in seconds (monotonic within a run).
  double now_s = 0.0;
};

class UpdateHeuristic {
 public:
  virtual ~UpdateHeuristic() = default;

  /// Feeds one system-coordinate update. If the heuristic decides the
  /// application coordinate must change it assigns `app` and returns true.
  /// `app` is always initialized (the owner seeds it with the first system
  /// coordinate before engaging the heuristic).
  virtual bool on_system_update(const UpdateContext& ctx, Coordinate& app) = 0;

  /// Forgets all internal state (windows, previous coordinates).
  virtual void reset() = 0;

  [[nodiscard]] virtual std::unique_ptr<UpdateHeuristic> clone() const = 0;

  /// Heap bytes the heuristic's windows hold, for the owning client's
  /// memory budget: the flat point buffers, fixed in size once the first
  /// update (the first freeze, for W_s) has allocated them. Windowless
  /// heuristics hold none.
  [[nodiscard]] virtual std::size_t window_bytes() const noexcept { return 0; }

  /// Bytes of the concrete heuristic object (sizeof its final class).
  [[nodiscard]] virtual std::size_t object_bytes() const noexcept = 0;

  /// Heap bytes of a heap-allocated heuristic, as its owning client holds
  /// it: the object plus its windows.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return object_bytes() + window_bytes();
  }

 protected:
  UpdateHeuristic() = default;
  UpdateHeuristic(const UpdateHeuristic&) = default;
  UpdateHeuristic& operator=(const UpdateHeuristic&) = default;
};

}  // namespace nc

// Deterministic, portable random number generation.
//
// The standard <random> distributions are implementation-defined, which would
// make traces differ across standard libraries. Experiments must be exactly
// reproducible from a seed, so we ship our own xoshiro256++ engine plus the
// handful of distributions the latency models need (uniform, normal,
// lognormal, exponential, Pareto). Sub-streams are derived with SplitMix64
// hashing so that e.g. every link of a topology gets an independent,
// stable stream regardless of the order links are first touched.
#pragma once

#include <cstdint>
#include <limits>

#include "common/vec.hpp"

namespace nc {

/// SplitMix64 step; also used as a 64-bit hash/mixer for seed derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit values into a well-mixed 64-bit hash.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Registry of stream-domain tags for Rng::derived(seed, domain, key).
///
/// Every independently-evolving entity in a simulation (a link, a node's
/// availability process, a node's ping timer, ...) owns a stream derived
/// from (master seed, domain tag, entity key). Collecting the tags in one
/// place guarantees two different subsystems never collide on the same
/// derivation and — because streams depend only on (seed, domain, key),
/// never on global draw order — lets a sharded simulator evolve entities on
/// different threads with bit-identical results. Tags are the ASCII names
/// they spell; existing values must never change (they define the
/// reproducible trace a seed maps to).
namespace rngstream {
inline constexpr std::uint64_t kLink = 0x6c696e6bULL;          // "link"
inline constexpr std::uint64_t kNode = 0x6e6f6465ULL;          // "node"
inline constexpr std::uint64_t kTopology = 0x746f706fULL;      // "topo"
inline constexpr std::uint64_t kOnline = 0x6f6e6c696eULL;      // "onlin"
inline constexpr std::uint64_t kNeighbor = 0x6e65696768626f72ULL;  // "neighbor"
inline constexpr std::uint64_t kPingTimer = 0x74696d6572ULL;   // "timer"
inline constexpr std::uint64_t kBootstrap = 0x626f6f74ULL;     // "boot"
inline constexpr std::uint64_t kDirectedLink = 0x646c696e6bULL;  // "dlink"
}  // namespace rngstream

/// xoshiro256++ pseudo-random engine with distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& s : s_) {
      x = splitmix64(x);
      s = x;
    }
    cached_normal_ = kNoCachedNormal;
  }

  /// An independent generator derived from this seed and a stream id.
  /// Deterministic: the same (seed, stream) always yields the same stream.
  [[nodiscard]] static Rng derived(std::uint64_t seed, std::uint64_t stream) noexcept {
    return Rng(hash_combine(seed, stream));
  }
  [[nodiscard]] static Rng derived(std::uint64_t seed, std::uint64_t a,
                                   std::uint64_t b) noexcept {
    return Rng(hash_combine(hash_combine(seed, a), b));
  }

  /// Raw 64 uniformly random bits.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n); n must be positive.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method: unbiased.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Box-Muller (portable, unlike std::normal_distribution).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal with the given log-space parameters.
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Pareto (type I) with scale xm > 0 and shape alpha > 0.
  /// Heavy-tailed: infinite variance for alpha <= 2; used to model latency spikes.
  double pareto(double xm, double alpha) noexcept;

  /// Uniformly random direction on the unit sphere of dimension `dim`.
  [[nodiscard]] Vec unit_vector(int dim) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// Marks an empty cached-normal slot; Box-Muller never yields NaN. A
  /// sentinel instead of a flag keeps an Rng at 40 bytes, and one sits in
  /// every link slot.
  static constexpr double kNoCachedNormal =
      std::numeric_limits<double>::quiet_NaN();

  std::uint64_t s_[4]{};
  double cached_normal_ = kNoCachedNormal;  // Box-Muller's second normal
};
static_assert(sizeof(Rng) == 40, "four state words plus the cached normal");

}  // namespace nc

// Random number generation for the simulator.
//
// Two generators:
//
//  * Xoshiro256StarStar — fast sequential PRNG for places where state can be
//    carried forward monotonically (metasim-level jitter, workload setup).
//
//  * CounterRng — a counter-based (stateless) generator in the Philox
//    spirit: every draw is a pure function of (key, counter). Time Warp
//    event handlers MUST use this keyed by the event identity, so that
//    re-executing an event after a rollback reproduces bit-identical
//    output events. This is what makes optimistic re-execution
//    deterministic without saving RNG state in checkpoints.
//
// Both are seedable and platform-independent (no libc rand, no
// std::uniform_* distributions, whose outputs vary across standard library
// implementations).
#pragma once

#include <cmath>
#include <cstdint>

namespace cagvt {

/// SplitMix64 — used to expand a single u64 seed into generator state.
/// Reference: Steele, Lea, Flood (2014); public-domain constants.
inline constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Mix an arbitrary number of u64s into one; used to derive per-LP keys.
inline constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** by Blackman & Vigna — 256-bit state, period 2^256-1.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256StarStar(std::uint64_t seed = 0x853c49e6748fea9bull) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift (unbiased
  /// enough for simulation workloads; bound is far below 2^64).
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    // 128-bit multiply keeps the distribution uniform to ~2^-64.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>((*this)()) * bound) >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Counter-based generator: draw(i) = mix(key, i). Stateless, so a Time
/// Warp re-execution that replays the same (key, counter) pairs reproduces
/// the original randomness exactly. The mixer is two rounds of the
/// splitmix64 finalizer over the 128-bit (key, counter) input, which passes
/// the statistical needs of PHOLD-style workloads by a wide margin.
class CounterRng {
 public:
  constexpr CounterRng(std::uint64_t key, std::uint64_t counter)
      : key_(key), counter_(counter) {}

  /// Next raw 64-bit draw (advances the counter).
  constexpr std::uint64_t next_u64() {
    std::uint64_t x = key_ ^ (counter_ * 0xd6e8feb86659fd93ull);
    ++counter_;
    x = (x ^ (x >> 32)) * 0xd6e8feb86659fd93ull;
    x = (x ^ (x >> 32)) * 0xd6e8feb86659fd93ull;
    x ^= x >> 32;
    std::uint64_t s = x + key_;
    return splitmix64(s);
  }

  constexpr double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  constexpr std::uint64_t next_below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Exponential variate with the given mean (inverse-CDF method).
  double next_exponential(double mean) {
    // 1 - u in (0, 1] avoids log(0).
    return -mean * std::log(1.0 - next_double());
  }

  constexpr std::uint64_t counter() const { return counter_; }

 private:
  std::uint64_t key_;
  std::uint64_t counter_;
};

}  // namespace cagvt

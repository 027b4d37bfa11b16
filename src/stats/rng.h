#pragma once
// Seeded random number generation and the heavy-tailed samplers used to
// calibrate the synthetic Digg corpus. Every stochastic component of the
// library takes an explicit Rng so that experiments are reproducible from a
// printed seed.

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace digg::stats {

/// SplitMix64 finalizer (Steele, Lea & Flood 2014): a bijective avalanche
/// mix of a 64-bit value. Used to derive statistically independent stream
/// keys for Rng::split.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic random source. Thin wrapper over std::mt19937_64 with
/// convenience draws; copyable so simulations can fork independent streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// The seed this stream was created with (printed by benches).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform real in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * unit_(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit_(engine_) < p;
  }

  /// Exponential with the given rate (events per unit time). rate > 0.
  double exponential(double rate) {
    if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate <= 0");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Normal(mean, stddev).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Poisson with the given mean. mean >= 0.
  std::int64_t poisson(double mean) {
    if (mean < 0.0) throw std::invalid_argument("Rng::poisson: mean < 0");
    if (mean == 0.0) return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  /// Geometric number of failures before first success; p in (0, 1].
  std::int64_t geometric(double p) {
    if (p <= 0.0 || p > 1.0)
      throw std::invalid_argument("Rng::geometric: p outside (0,1]");
    if (p == 1.0) return 0;
    return std::geometric_distribution<std::int64_t>(p)(engine_);
  }

  /// Fork an independent stream (used to give each story its own stream so
  /// adding stories does not perturb earlier ones). Consumes one draw from
  /// this stream, so successive forks differ.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  /// Counter-based substream: an independent stream addressed by `index`,
  /// derived from this stream's *seed* (never its current state). Unlike
  /// fork(), split does not consume a draw and does not depend on how many
  /// draws the parent has made — rng.split(i) is the same stream before and
  /// after any amount of parent activity. This is the contract parallel
  /// loops rely on: task i draws from split(i) and the result is identical
  /// for any thread count or execution order. Derivation is two rounds of
  /// splitmix64 over (seed, index), so substreams for different indices are
  /// statistically independent of each other and of the parent.
  [[nodiscard]] Rng split(std::uint64_t index) const {
    return Rng(splitmix64(splitmix64(seed_) ^ splitmix64(index)));
  }

  /// Access the underlying engine for std:: distributions and std::shuffle.
  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Zipf sampler over ranks 1..n with exponent s: P(rank) ∝ rank^(-s).
/// Used to skew activity toward top users (§3: top 3% make 35% of
/// submissions).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Returns a rank in [1, n].
  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t n() const noexcept { return cdf_.size(); }
  [[nodiscard]] double exponent() const noexcept { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;
};

/// Weighted index sampler (roulette wheel) over arbitrary non-negative
/// weights. O(log n) per draw.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace digg::stats

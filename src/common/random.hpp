/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Wraps the xoshiro256** generator: fast, high quality, and — unlike
 * std::mt19937 with libstdc++ distributions — bit-identical across
 * platforms for a given seed, which keeps experiment outputs repeatable.
 */

#ifndef EDM_COMMON_RANDOM_HPP
#define EDM_COMMON_RANDOM_HPP

#include <cstdint>

namespace edm {

/**
 * splitmix64 step: advances @p state and returns the next output.
 *
 * The canonical seed-expansion generator (Vigna): used to seed the
 * xoshiro256** state.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** xoshiro256** PRNG with convenience distributions. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) — n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Bernoulli trial with success probability @p p. */
    bool chance(double p);

    /**
     * Zipfian-distributed integer in [0, n) with skew @p theta
     * (theta = 0.99 matches the YCSB default). Uses the rejection-free
     * Gray et al. method with cached normalization constants.
     */
    std::uint64_t zipf(std::uint64_t n, double theta);

  private:
    std::uint64_t state_[4];

    // Cached zipf constants (recomputed when n/theta change).
    std::uint64_t zipf_n_ = 0;
    double zipf_theta_ = 0.0;
    double zipf_zetan_ = 0.0;
    double zipf_alpha_ = 0.0;
    double zipf_eta_ = 0.0;
    double zipf_zeta2_ = 0.0;
};

} // namespace edm

#endif // EDM_COMMON_RANDOM_HPP

/**
 * @file
 * Statistics collection: running moments and sample percentiles.
 */

#ifndef EDM_COMMON_STATS_HPP
#define EDM_COMMON_STATS_HPP

#include <cstdint>
#include <limits>
#include <vector>

namespace edm {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 * O(1) memory; suitable for millions of samples.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples seen. */
    std::uint64_t count() const { return n_; }

    /** Mean of all samples (0 if empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void reset();

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Exact-percentile sample reservoir.
 *
 * Stores every sample; percentile() sorts lazily. Intended for experiment
 * post-processing where sample counts are bounded (≲ tens of millions).
 */
class Samples
{
  public:
    void add(double x);

    std::uint64_t count() const { return data_.size(); }
    double mean() const;

    /** p in [0, 100]; linear interpolation between order statistics. */
    double percentile(double p) const;

    double min() const;
    double max() const;

    const std::vector<double> &raw() const { return data_; }

    void reset() { data_.clear(); sorted_ = true; }

  private:
    mutable std::vector<double> data_;
    mutable bool sorted_ = true;

    void ensureSorted() const;
};

} // namespace edm

#endif // EDM_COMMON_STATS_HPP

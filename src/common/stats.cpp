#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "logging.hpp"

namespace edm {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto total = static_cast<double>(n_ + other.n_);
    m2_ += other.m2_ +
        delta * delta * static_cast<double>(n_) *
        static_cast<double>(other.n_) / total;
    mean_ = (mean_ * static_cast<double>(n_) +
             other.mean_ * static_cast<double>(other.n_)) / total;
    sum_ += other.sum_;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat{};
}

void
Samples::add(double x)
{
    data_.push_back(x);
    sorted_ = false;
}

double
Samples::mean() const
{
    if (data_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : data_)
        s += x;
    return s / static_cast<double>(data_.size());
}

void
Samples::ensureSorted() const
{
    if (!sorted_) {
        std::sort(data_.begin(), data_.end());
        sorted_ = true;
    }
}

double
Samples::percentile(double p) const
{
    if (data_.empty())
        return 0.0;
    EDM_ASSERT(p >= 0.0 && p <= 100.0, "percentile %.2f out of range", p);
    ensureSorted();
    if (data_.size() == 1)
        return data_.front();
    const double rank = p / 100.0 * static_cast<double>(data_.size() - 1);
    const auto lo_idx = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo_idx);
    if (lo_idx + 1 >= data_.size())
        return data_.back();
    return data_[lo_idx] * (1.0 - frac) + data_[lo_idx + 1] * frac;
}

double
Samples::min() const
{
    ensureSorted();
    return data_.empty() ? 0.0 : data_.front();
}

double
Samples::max() const
{
    ensureSorted();
    return data_.empty() ? 0.0 : data_.back();
}

} // namespace edm

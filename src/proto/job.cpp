#include "job.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace edm {
namespace proto {

Picoseconds
FabricModel::idealLatency(Bytes size, bool is_write) const
{
    // Fixed stack/switch latency + four hops (request or notify+grant leg,
    // then the two-hop data path) + data serialization.
    (void)is_write;
    return cfg_.fixed_overhead + 4 * cfg_.propagation + txDelay(size);
}

void
FabricModel::offer(const Job &job)
{
    EDM_ASSERT(job.arrival >= sim_.now(),
               "offering job %llu in the past: arrival %lld < now %lld",
               static_cast<unsigned long long>(job.id),
               static_cast<long long>(job.arrival),
               static_cast<long long>(sim_.now()));
    // The ticket is the sequence an event scheduled now would take: the
    // job keeps its place among same-time events while it waits here.
    const Arrival a{job, sim_.events().ticket()};
    if (arrivals_.empty() || arrivals_.back().job.arrival <= job.arrival) {
        arrivals_.push_back(a);
        if (arrivals_.size() == 1)
            fileHead();
        return;
    }
    // Out of arrival order: behind every job arriving no later, which
    // keeps ties in offer order since tickets rise with each offer.
    const auto at = std::upper_bound(
        arrivals_.begin(), arrivals_.end(), job.arrival,
        [](Picoseconds t, const Arrival &x) { return t < x.job.arrival; });
    const bool new_head = at == arrivals_.begin();
    arrivals_.insert(at, a);
    if (new_head) {
        sim_.events().cancel(head_event_);
        fileHead();
    }
}

void
FabricModel::fileHead()
{
    const Arrival &head = arrivals_.front();
    head_event_ = sim_.events().schedule(head.job.arrival, head.ticket,
                                         [this] { arriveHead(); });
}

void
FabricModel::arriveHead()
{
    const Job job = arrivals_.front().job;
    arrivals_.pop_front();
    head_event_ = kInvalidEvent;
    if (!arrivals_.empty())
        fileHead();
    arrive(job);
}

} // namespace proto
} // namespace edm

#include "scenario_runner.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hpp"

namespace edm {

// ---------------------------------------------------------------------------
// ScenarioContext
// ---------------------------------------------------------------------------

Simulation &
ScenarioContext::sim()
{
    if (!sim_)
        sim_ = std::make_unique<Simulation>();
    return *sim_;
}

void
ScenarioContext::record(const std::string &metric, double value)
{
    metrics_[metric].add(value);
}

// ---------------------------------------------------------------------------
// ScenarioResult
// ---------------------------------------------------------------------------

RunningStat
ScenarioResult::metricStat(const std::string &metric) const
{
    RunningStat st;
    auto it = metrics.find(metric);
    if (it != metrics.end())
        for (double v : it->second.raw())
            st.add(v);
    return st;
}

// ---------------------------------------------------------------------------
// ScenarioRunner
// ---------------------------------------------------------------------------

std::size_t
ScenarioRunner::add(std::string name, ScenarioFn fn)
{
    EDM_ASSERT(fn != nullptr, "scenario '%s' has no body", name.c_str());
    scenarios_.push_back(Pending{std::move(name), std::move(fn)});
    return scenarios_.size() - 1;
}

std::vector<ScenarioResult>
ScenarioRunner::runAll()
{
    std::vector<Pending> work = std::move(scenarios_);
    scenarios_.clear();

    std::vector<ScenarioResult> results(work.size());
    if (work.empty())
        return results;

    unsigned threads = threads_;
    if (threads == 0) {
        // One knob for every runner-based binary: a whole decimal
        // count, where unset or 0 keeps the default below.
        if (const char *t = std::getenv("EDM_SWEEP_THREADS")) {
            const char *end = t + std::strlen(t);
            const auto [ptr, ec] = std::from_chars(t, end, threads);
            if (ec != std::errc() || ptr != end)
                EDM_FATAL("EDM_SWEEP_THREADS='%s' is not a whole decimal "
                          "thread count",
                          t);
        }
    }
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > work.size())
        threads = static_cast<unsigned>(work.size());

    // Workers pull scenario indices from a shared counter. Scenario i
    // runs on its own context, so which worker runs it — and in what
    // order — cannot affect the recorded metrics.
    //
    // A scenario that throws must not escape a pool thread (that would
    // std::terminate): the first exception is captured, remaining work
    // is abandoned, and the exception is rethrown to the caller after
    // the pool drains — the same thing the caller would see
    // single-threaded.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto worker = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= work.size())
                return;
            ScenarioContext ctx;
            try {
                work[i].fn(ctx);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
            results[i].name = std::move(work[i].name);
            results[i].metrics = std::move(ctx.metrics_);
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace edm

#include "scenario_runner.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hpp"

namespace edm {

namespace {

/** Decorrelates (base_seed, index) pairs into independent seeds. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t state = base + index * 0x9e3779b97f4a7c15ULL;
    return splitmix64(state);
}

} // namespace

// ---------------------------------------------------------------------------
// ScenarioContext
// ---------------------------------------------------------------------------

ScenarioContext::ScenarioContext(std::string name, std::size_t index,
                                 std::uint64_t run_seed)
    : name_(std::move(name)), index_(index), run_seed_(run_seed)
{
}

Simulation &
ScenarioContext::sim()
{
    if (!sim_)
        sim_ = std::make_unique<Simulation>(run_seed_);
    return *sim_;
}

Rng &
ScenarioContext::rng()
{
    // A distinct stream from the Simulation's RNG: scenarios commonly
    // use one stream for workload generation and one inside the model.
    if (!rng_)
        rng_ = std::make_unique<Rng>(mixSeed(run_seed_, 0x5eed));
    return *rng_;
}

void
ScenarioContext::record(const std::string &metric, double value)
{
    metrics_[metric].add(value);
}

void
ScenarioContext::recordAll(const std::string &metric,
                           const std::vector<double> &values)
{
    Samples &s = metrics_[metric];
    for (double v : values)
        s.add(v);
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

ScenarioRunner::ScenarioRunner(Options opts)
    : opts_(opts)
{
}

std::size_t
ScenarioRunner::add(std::string name, ScenarioFn fn)
{
    EDM_ASSERT(fn != nullptr, "scenario '%s' has no body", name.c_str());
    scenarios_.push_back(Pending{std::move(name), std::move(fn)});
    return scenarios_.size() - 1;
}

std::uint64_t
ScenarioRunner::seedFor(std::size_t i) const
{
    return mixSeed(opts_.base_seed, i);
}

std::vector<ScenarioResult>
ScenarioRunner::runAll()
{
    std::vector<Pending> work = std::move(scenarios_);
    scenarios_.clear();

    std::vector<ScenarioResult> results(work.size());
    if (work.empty())
        return results;

    unsigned threads = opts_.threads;
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

    // Workers pull scenario indices from a shared counter. Scenario i's
    // behaviour depends only on (base_seed, i), so which worker runs it
    // — and in what order — cannot affect the recorded metrics.
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
    std::mutex result_mu; // serializes the streaming callback
    auto worker = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= work.size())
                return;
            ScenarioContext ctx(work[i].name, i, seedFor(i));
            const auto t0 = std::chrono::steady_clock::now();
            try {
                work[i].fn(ctx);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
            const auto t1 = std::chrono::steady_clock::now();

            ScenarioResult &r = results[i];
            r.name = std::move(ctx.name_);
            r.seed = ctx.run_seed_;
            r.events = ctx.sim_ ? ctx.sim_->events().executed() : 0;
            r.wall_ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            r.metrics = std::move(ctx.metrics_);
            if (opts_.on_result) {
                // A throwing streaming callback must surface from
                // runAll() exactly like a throwing scenario body, not
                // std::terminate the pool thread.
                try {
                    const std::lock_guard<std::mutex> lock(result_mu);
                    opts_.on_result(r);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mu);
                    if (!first_error)
                        first_error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
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

Samples
ScenarioRunner::mergedMetric(const std::vector<ScenarioResult> &results,
                             const std::string &metric)
{
    Samples merged;
    for (const ScenarioResult &r : results) {
        auto it = r.metrics.find(metric);
        if (it == r.metrics.end())
            continue;
        for (double v : it->second.raw())
            merged.add(v);
    }
    return merged;
}

std::uint64_t
ScenarioRunner::totalEvents(const std::vector<ScenarioResult> &results)
{
    std::uint64_t total = 0;
    for (const ScenarioResult &r : results)
        total += r.events;
    return total;
}

std::string
ScenarioRunner::summaryTable(const std::vector<ScenarioResult> &results,
                             const std::string &metric)
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-28s %10s %10s %10s %12s\n",
                  "scenario", "mean", "p99", "samples", "events");
    out += line;
    for (const ScenarioResult &r : results) {
        auto it = r.metrics.find(metric);
        const bool has = it != r.metrics.end() && it->second.count() > 0;
        std::snprintf(line, sizeof(line),
                      "  %-28s %10.3f %10.3f %10llu %12llu\n",
                      r.name.c_str(), has ? it->second.mean() : 0.0,
                      has ? it->second.percentile(99) : 0.0,
                      static_cast<unsigned long long>(
                          has ? it->second.count() : 0),
                      static_cast<unsigned long long>(r.events));
        out += line;
    }
    Samples merged = mergedMetric(results, metric);
    if (merged.count() > 0) {
        std::snprintf(line, sizeof(line),
                      "  %-28s %10.3f %10.3f %10llu %12llu\n", "[merged]",
                      merged.mean(), merged.percentile(99),
                      static_cast<unsigned long long>(merged.count()),
                      static_cast<unsigned long long>(
                          totalEvents(results)));
        out += line;
    }
    return out;
}

} // namespace edm

/**
 * @file
 * Event-log unit tests: record encode/decode round-trips through the
 * binary file format, ring-buffer overflow accounting, disabled-mode
 * behavior (no records, no schedule perturbation), and replay equality
 * — the logged decision sequence of an incast run is bit-identical
 * across train-batching settings, because trains are a simulator
 * optimization that must not change any fabric decision.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/scenario_config.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace trace {
namespace {

Record
sample(int i)
{
    Record r;
    r.at = 1000 * i;
    r.arg = static_cast<std::uint64_t>(i) * 7;
    r.port = static_cast<std::uint16_t>(i);
    r.src = static_cast<std::uint16_t>(i + 1);
    r.dst = static_cast<std::uint16_t>(i + 2);
    r.id = static_cast<std::uint8_t>(i);
    r.type = static_cast<std::uint8_t>(EventType::GrantIssued);
    r.flags = (i % 2) ? kFlagResponse : 0;
    r.detail = static_cast<std::uint8_t>(Detail::RequestForward);
    return r;
}

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(EventLog, RecordRoundTripsThroughFile)
{
    const std::string path = tmpPath("roundtrip.trace");
    {
        EventLog log(8);
        ASSERT_TRUE(log.openFile(path));
        for (int i = 0; i < 20; ++i)
            log.append(sample(i));
        log.pointStart(3);
        log.close();
    }
    LogReader reader;
    ASSERT_TRUE(reader.open(path));
    EXPECT_EQ(reader.version(), EventLog::kVersion);
    const auto recs = reader.readAll();
    ASSERT_EQ(recs.size(), 21u);
    for (int i = 0; i < 20; ++i) {
        const Record want = sample(i);
        EXPECT_EQ(std::memcmp(&recs[i], &want, sizeof(Record)), 0)
            << "record " << i;
    }
    Record point;
    point.type = static_cast<std::uint8_t>(EventType::PointStart);
    point.arg = 3;
    EXPECT_EQ(std::memcmp(&recs[20], &point, sizeof(Record)), 0);
    EXPECT_STREQ(toString(recs[20].eventType()), "point-start");
    std::remove(path.c_str());
}

TEST(EventLog, LogFillsFlowKeyAndFlags)
{
    EventLog log;
    log.log(EventType::GrantParked, 1234, 3, 7, 9, 42, true,
            Detail::Suppressed, 512);
    ASSERT_EQ(log.size(), 1u);
    const Record &r = log.at(0);
    EXPECT_EQ(r.eventType(), EventType::GrantParked);
    EXPECT_EQ(r.at, 1234);
    EXPECT_EQ(r.port, 3);
    EXPECT_EQ(r.src, 7);
    EXPECT_EQ(r.dst, 9);
    EXPECT_EQ(r.id, 42);
    EXPECT_TRUE(r.response());
    EXPECT_EQ(r.detailCode(), Detail::Suppressed);
    EXPECT_EQ(r.arg, 512u);
}

TEST(EventLog, RingOverflowKeepsNewestAndCounts)
{
    EventLog log(8);
    for (int i = 0; i < 20; ++i)
        log.append(sample(i));
    EXPECT_EQ(log.size(), 8u);
    EXPECT_EQ(log.totalRecorded(), 20u);
    EXPECT_EQ(log.dropped(), 12u);
    // Oldest surviving record is #12.
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(log.at(i).at, 1000 * static_cast<int>(12 + i));
}

TEST(EventLog, FileStreamingLosesNothing)
{
    const std::string path = tmpPath("streaming.trace");
    {
        EventLog log(4); // ring much smaller than the record count
        ASSERT_TRUE(log.openFile(path));
        for (int i = 0; i < 100; ++i)
            log.append(sample(i));
        EXPECT_EQ(log.dropped(), 0u);
        log.close();
    }
    LogReader reader;
    ASSERT_TRUE(reader.open(path));
    EXPECT_EQ(reader.readAll().size(), 100u);
    std::remove(path.c_str());
}

TEST(EventLog, RejectsForeignFiles)
{
    const std::string path = tmpPath("not-a-trace");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a trace header", f);
    std::fclose(f);
    LogReader reader;
    EXPECT_FALSE(reader.open(path));
    std::remove(path.c_str());
}

TEST(EventLog, RejectsOtherVersionsAndTruncatedFiles)
{
    const std::string path = tmpPath("checked.trace");
    {
        EventLog log(8);
        ASSERT_TRUE(log.openFile(path));
        for (int i = 0; i < 5; ++i)
            log.append(sample(i));
        log.close();
    }
    std::vector<char> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        for (int c; (c = std::fgetc(f)) != EOF;)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
    }
    const auto write = [&path](const std::vector<char> &b) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(b.data(), 1, b.size(), f);
        std::fclose(f);
    };

    // The header's version field follows the 8-byte magic.
    std::vector<char> foreign = bytes;
    foreign[8] = static_cast<char>(EventLog::kVersion + 1);
    write(foreign);
    LogReader reader;
    EXPECT_FALSE(reader.open(path));
    EXPECT_NE(reader.error().find("version"), std::string::npos)
        << reader.error();

    // Cut 13 bytes off the last record: four whole records, then an
    // error instead of a quiet end of file.
    write(std::vector<char>(bytes.begin(), bytes.end() - 13));
    ASSERT_TRUE(reader.open(path)) << reader.error();
    EXPECT_EQ(reader.readAll().size(), 4u);
    EXPECT_NE(reader.error().find("truncated"), std::string::npos)
        << reader.error();

    // The intact file reads to a clean end.
    write(bytes);
    ASSERT_TRUE(reader.open(path));
    EXPECT_EQ(reader.readAll().size(), 5u);
    EXPECT_EQ(reader.error(), "");
    std::remove(path.c_str());
}

// ---- integration against the fabric ----

/** Run one small incast point, optionally logging, and return metrics. */
ScenarioResult
runLoggedIncast(EventLog *log, std::size_t max_train_blocks)
{
    ScenarioRunner runner(1);
    runner.add("incast", [log, max_train_blocks](ScenarioContext &ctx) {
        core::EdmConfig cfg;
        cfg.max_train_blocks = max_train_blocks;
        cfg.max_frame_train_blocks = max_train_blocks;
        cfg.event_log = log;
        runIncastPoint(ctx, IncastPoint{"N-to-1", 5}, IncastWorkload{},
                       3, cfg);
    });
    return runner.runAll().front();
}

TEST(EventLog, DisabledModeRecordsNothingAndPerturbsNothing)
{
    EventLog log;
    const ScenarioResult with = runLoggedIncast(&log, 64);
    const ScenarioResult without = runLoggedIncast(nullptr, 64);
    EXPECT_GT(log.totalRecorded(), 0u);

    // A null event_log records nothing...
    // ...and attaching one changes no metric: the log never schedules
    // events or touches simulation state.
    ASSERT_EQ(with.metrics.size(), without.metrics.size());
    for (const auto &kv : with.metrics) {
        const auto it = without.metrics.find(kv.first);
        ASSERT_NE(it, without.metrics.end()) << kv.first;
        EXPECT_EQ(kv.second.raw(), it->second.raw()) << kv.first;
    }

    // The log's grant count is the scheduler's grant count.
    std::uint64_t grants_logged = 0;
    for (std::size_t i = 0; i < log.size(); ++i)
        if (log.at(i).eventType() == EventType::GrantIssued)
            ++grants_logged;
    EXPECT_EQ(log.dropped(), 0u) << "ring too small for this workload";
    EXPECT_EQ(static_cast<double>(grants_logged),
              with.metricStat("grants").mean());
}

/**
 * Check that @p log opens with a point-start, holds @p points of them
 * with indices 0, 1, ... in order, and that the clock never runs
 * backwards between two of them: each point's simulation starts its
 * clock over, so a rollup keyed by point never spans two of them.
 */
void
expectPointsDelimited(const EventLog &log, std::size_t points)
{
    ASSERT_EQ(log.dropped(), 0u) << "ring too small for this workload";
    ASSERT_GT(log.size(), points);
    ASSERT_EQ(log.at(0).eventType(), EventType::PointStart);
    std::uint64_t next = 0;
    Picoseconds last = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Record &r = log.at(i);
        if (r.eventType() == EventType::PointStart) {
            EXPECT_EQ(r.arg, next++) << "record " << i;
            last = 0;
            continue;
        }
        EXPECT_GE(r.at, last) << "record " << i << " in point " << next;
        last = r.at;
    }
    EXPECT_EQ(next, points);
}

TEST(EventLog, EveryScenarioPointOpensWithAPointStart)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/failure_storm.edm", spec, error))
        << error;
    EventLog incast(1 << 18);
    const auto rows = runIncastScenario(spec, true, &incast, 1);
    ASSERT_GT(rows.size(), 1u);
    expectPointsDelimited(incast, rows.size());

    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/cluster_sweep_wire.edm", spec, error))
        << error;
    EventLog flow(1 << 18);
    const auto flow_rows = runFlowScenario(spec, 0.002, &flow, 1);
    ASSERT_GT(flow_rows.size(), 1u);
    expectPointsDelimited(flow, flow_rows.size());
}

/** Decision records only (grants, ledger, stalls, faults): the events
 *  that must be invariant under train batching. Train/preempt records
 *  legitimately differ — batching IS a different train schedule. */
std::vector<Record>
decisionRecords(const EventLog &log)
{
    std::vector<Record> out;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Record &r = log.at(i);
        switch (r.eventType()) {
        case EventType::GrantIssued:
        case EventType::GrantParked:
        case EventType::GrantDrained:
        case EventType::GrantDropped:
        case EventType::LedgerOpen:
        case EventType::LedgerRetire:
        case EventType::LedgerAbort:
        case EventType::IdWrapStall:
        case EventType::FaultInject:
        case EventType::FaultRecover:
            out.push_back(r);
            break;
        default:
            break;
        }
    }
    return out;
}

TEST(EventLog, GrantSequenceIsBitIdenticalAcrossTrainBatching)
{
    EventLog per_block(1 << 18);
    EventLog batched(1 << 18);
    runLoggedIncast(&per_block, 1);
    runLoggedIncast(&batched, 64);
    ASSERT_EQ(per_block.dropped(), 0u);
    ASSERT_EQ(batched.dropped(), 0u);

    const auto a = decisionRecords(per_block);
    const auto b = decisionRecords(batched);
    ASSERT_GT(a.size(), 0u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(Record)), 0)
            << "decision " << i << " diverged: "
            << toString(a[i].eventType()) << " at " << a[i].at << " vs "
            << toString(b[i].eventType()) << " at " << b[i].at;
}

} // namespace
} // namespace trace
} // namespace edm

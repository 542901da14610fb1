/**
 * @file
 * Structured binary event log of fabric decisions.
 *
 * Every schedule-shaping decision the fabric makes — grants issued,
 * parked, drained or dropped; ledger entries opened, retired or
 * aborted; block trains emitted or trimmed; preemption entries and
 * re-entries; fault injections and recoveries; id-wrap stalls — can be
 * recorded as a fixed-size enum-tagged record carrying the timestamp,
 * the acting port and the flow key. The log is the forensic artifact
 * PR 4's over-grant diagnosis lacked: instead of printf archaeology,
 * `tools/edm_trace` answers "which flows had grants parked longer than
 * N ns, and why" from the file alone.
 *
 * Cost model: logging is off unless an EventLog is attached via
 * `EdmConfig::event_log`; every emit site guards on that pointer, so
 * the disabled path is one null check. The log itself never schedules
 * events or touches simulation state, so attaching one cannot perturb
 * a schedule — golden values are identical with and without a log.
 *
 * File format (little-endian, host layout):
 *   16-byte header:  magic "EDMTRACE" | u32 version | u32 record size
 *   then Record[] packed back to back.
 */

#ifndef EDM_TRACE_EVENT_LOG_HPP
#define EDM_TRACE_EVENT_LOG_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace edm {
namespace trace {

/** What happened. Values are part of the file format — append only. */
enum class EventType : std::uint8_t
{
    None = 0,
    GrantIssued = 1,   ///< scheduler grant reached the wire (arg=chunk bytes)
    GrantParked = 2,   ///< host parked an early grant (arg=grant bytes)
    GrantDrained = 3,  ///< parked grant matched its request (arg=bytes)
    GrantDropped = 4,  ///< grant discarded; detail says why (arg=bytes)
    LedgerOpen = 5,    ///< demand-lifecycle entry opened (arg=demand bytes)
    LedgerRetire = 6,  ///< entry retired by completion (arg=bytes observed)
    LedgerAbort = 7,   ///< entry force-retired by a port abort (arg=stale)
    TrainEmit = 8,     ///< block train committed to a pump (arg=run blocks)
    TrainTrim = 9,     ///< staged train blocks clawed back (arg=blocks)
    PreemptEnter = 10, ///< memory block preempted an in-flight frame
    PreemptReenter = 11, ///< frame resumed after memory traffic
    FaultInject = 12,  ///< uplink corruption injected (arg=blocks)
    FaultRecover = 13, ///< fault recovery action; detail says which
    IdWrapStall = 14,  ///< 8-bit id wrapped onto a live message; send stalled
    FrameFlood = 15,   ///< switch flooded an L2 frame (arg=frame blocks)
    TierCharge = 16,   ///< leaf-spine: tier occupancy charged (arg=ps, tier set)
    PoolShareComputed = 17,    ///< fair share: pool's share changed (arg=ppm)
    GrantDeferredByLimit = 18, ///< fair share: pool hit its limit window
    PriorityBypass = 19,       ///< fair share: latency-sensitive pool bypassed
};

/** Highest EventType value in this format version (name lookups). */
constexpr int kMaxEventType = 19;

/** Why (qualifies GrantDropped / LedgerOpen / Train* / FaultRecover). */
enum class Detail : std::uint8_t
{
    None = 0,
    RequestForward = 1,  ///< GrantIssued: first response grant carries the RREQ
    Suppressed = 2,      ///< GrantDropped: the ledger had no live entry
    UnknownMessage = 3,  ///< GrantDropped: host had no matching state
    StaleResponse = 4,   ///< GrantDropped: response already fully sent
    ParkedExpired = 5,   ///< GrantDropped: orphaned parked grant timed out
    UplinkDown = 6,      ///< GrantDropped: the host's uplink is disabled
    EvictedPredecessor = 7, ///< LedgerOpen: id reuse evicted a live entry
    MemoryTrain = 8,     ///< TrainEmit/TrainTrim: memory-chunk train
    FrameTrain = 9,      ///< TrainEmit/TrainTrim: Ethernet-frame train
    LinkDisabled = 10,   ///< FaultRecover: error threshold disabled the link
    ReadTimeout = 11,    ///< FaultRecover: read recovered via NULL response
    LinkRepaired = 12,   ///< FaultRecover: uplink repaired and re-admitted
    ReadRetry = 13,      ///< FaultRecover: read re-issued (arg=attempt)
    ReadAbandoned = 14,  ///< FaultRecover: retry budget exhausted, NULL
    SwitchFail = 15,     ///< FaultInject: replicated network power loss
    SwitchFailback = 16, ///< FaultRecover: replicated network resynced
};

/** Record::flags bit: the flow is a response (read data) direction. */
constexpr std::uint8_t kFlagResponse = 0x01;

/**
 * One logged fabric decision. Fixed 32-byte layout, version 1.
 *
 * `port` is the port whose state changed (granted-to destination,
 * parking host, trimmed egress...). `src`/`dst`/`id`/`flags` carry the
 * flow key where one applies; `arg` is the event's magnitude (bytes,
 * blocks — see EventType), and `detail` the reason code.
 */
struct Record
{
    std::int64_t at = 0;   ///< simulation time, picoseconds
    std::uint64_t arg = 0; ///< event magnitude (bytes, blocks, count)
    std::uint16_t port = 0;
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
    std::uint8_t id = 0;
    std::uint8_t type = 0;   ///< EventType
    std::uint8_t flags = 0;  ///< kFlag* bits
    std::uint8_t detail = 0; ///< Detail
    /**
     * Switch (leaf/shard) id of the acting switch and the link tier a
     * TierCharge record accounts (core::LinkTier codes). Both are 0 on
     * every record a single-switch fabric emits, and occupy bytes that
     * were reserved-zero before PR 9 — so version-1 files written
     * earlier decode identically.
     */
    std::uint8_t sw = 0;
    std::uint8_t tier = 0;
    /**
     * Fair-share pool id plus one (0 = no pool). Stamped on the
     * fair-share decision records and on GrantIssued / LedgerOpen /
     * LedgerRetire / LedgerAbort when `EdmConfig::fair_share` is on;
     * occupies the u32 that was reserved-zero before PR 10, so
     * version-1 files written earlier decode identically.
     */
    std::uint32_t aux = 0;

    EventType eventType() const { return static_cast<EventType>(type); }
    Detail detailCode() const { return static_cast<Detail>(detail); }
    bool response() const { return (flags & kFlagResponse) != 0; }
};

static_assert(sizeof(Record) == 32, "event record layout is versioned");

/** Human-readable names for reports (stable, lowercase-dashed). */
const char *toString(EventType type);
const char *toString(Detail detail);

/**
 * Ring-buffered event sink, optionally streaming to a binary file.
 *
 * Without a file the ring keeps the most recent `capacity` records and
 * counts what it overwrote. With openFile(), records stream through the
 * ring to disk and nothing is lost; close() (or destruction) flushes.
 */
class EventLog
{
  public:
    static constexpr std::uint32_t kVersion = 1;
    static constexpr char kMagic[9] = "EDMTRACE"; // 8 bytes on the wire

    explicit EventLog(std::size_t capacity = 1 << 16);
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /** Start streaming to @p path (writes the versioned header). */
    bool openFile(const std::string &path);

    /** Flush buffered records and close the file (idempotent). */
    void close();

    /** Append one record (fills in nothing — caller sets every field). */
    void append(const Record &r);

    /**
     * Convenience emit; @p port is the acting port. @p sw is the
     * acting switch (leaf) id and @p tier the charged link tier —
     * both 0 (their historical reserved value) outside leaf-spine
     * fabrics. @p aux is the fair-share pool id plus one — 0 (its
     * historical reserved value) outside fair-share runs.
     */
    void log(EventType type, Picoseconds at, std::uint16_t port,
             std::uint16_t src = 0, std::uint16_t dst = 0,
             std::uint8_t id = 0, bool response = false,
             Detail detail = Detail::None, std::uint64_t arg = 0,
             std::uint8_t sw = 0, std::uint8_t tier = 0,
             std::uint32_t aux = 0);

    /** Records appended over the log's lifetime. */
    std::uint64_t totalRecorded() const { return total_; }

    /** Records lost to ring wrap (always 0 when streaming to a file). */
    std::uint64_t dropped() const { return dropped_; }

    /** Records currently buffered in the ring. */
    std::size_t size() const { return count_; }

    /** Buffered record @p i, oldest first (0 <= i < size()). */
    const Record &at(std::size_t i) const;

    /** Copy of the buffered records, oldest first. */
    std::vector<Record> snapshot() const;

    /** Drop buffered records and lifetime counters (file untouched). */
    void clear();

  private:
    void flushToFile();

    std::vector<Record> ring_;
    std::size_t head_ = 0;  ///< next write slot
    std::size_t count_ = 0; ///< live records in the ring
    std::uint64_t total_ = 0;
    std::uint64_t dropped_ = 0;
    std::FILE *file_ = nullptr;
};

/** Sequential reader for files written by EventLog::openFile. */
class LogReader
{
  public:
    LogReader() = default;
    ~LogReader() { close(); }

    LogReader(const LogReader &) = delete;
    LogReader &operator=(const LogReader &) = delete;

    /** Open and validate the header; false on mismatch or I/O error. */
    bool open(const std::string &path);

    void close();

    /** File format version from the header (0 before open). */
    std::uint32_t version() const { return version_; }

    /** Read the next record; false at end of file. */
    bool next(Record &r);

    /** Read every remaining record. */
    std::vector<Record> readAll();

  private:
    std::FILE *file_ = nullptr;
    std::uint32_t version_ = 0;
};

} // namespace trace
} // namespace edm

#endif // EDM_TRACE_EVENT_LOG_HPP

#include "trace/event_log.hpp"

#include <cstring>

namespace edm {
namespace trace {

namespace {

/** 16-byte file header: magic, version, record size, reserved. */
struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t record_size;
};

static_assert(sizeof(FileHeader) == 16, "header layout is versioned");

} // namespace

const char *
toString(EventType type)
{
    switch (type) {
    case EventType::None: return "none";
    case EventType::GrantIssued: return "grant-issued";
    case EventType::GrantParked: return "grant-parked";
    case EventType::GrantDrained: return "grant-drained";
    case EventType::GrantDropped: return "grant-dropped";
    case EventType::LedgerOpen: return "ledger-open";
    case EventType::LedgerRetire: return "ledger-retire";
    case EventType::LedgerAbort: return "ledger-abort";
    case EventType::TrainEmit: return "train-emit";
    case EventType::TrainTrim: return "train-trim";
    case EventType::PreemptEnter: return "preempt-enter";
    case EventType::PreemptReenter: return "preempt-reenter";
    case EventType::FaultInject: return "fault-inject";
    case EventType::FaultRecover: return "fault-recover";
    case EventType::IdWrapStall: return "id-wrap-stall";
    case EventType::FrameFlood: return "frame-flood";
    case EventType::TierCharge: return "tier-charge";
    case EventType::PoolShareComputed: return "pool-share-computed";
    case EventType::GrantDeferredByLimit: return "grant-deferred-by-limit";
    case EventType::PriorityBypass: return "priority-bypass";
    case EventType::PointStart: return "point-start";
    }
    return "unknown";
}

const char *
toString(Detail detail)
{
    switch (detail) {
    case Detail::None: return "-";
    case Detail::RequestForward: return "request-forward";
    case Detail::Suppressed: return "suppressed";
    case Detail::UnknownMessage: return "unknown-message";
    case Detail::StaleResponse: return "stale-response";
    case Detail::ParkedExpired: return "parked-expired";
    case Detail::UplinkDown: return "uplink-down";
    case Detail::EvictedPredecessor: return "evicted-predecessor";
    case Detail::MemoryTrain: return "memory-train";
    case Detail::FrameTrain: return "frame-train";
    case Detail::LinkDisabled: return "link-disabled";
    case Detail::ReadTimeout: return "read-timeout";
    case Detail::LinkRepaired: return "link-repaired";
    case Detail::ReadRetry: return "read-retry";
    case Detail::ReadAbandoned: return "read-abandoned";
    case Detail::SwitchFail: return "switch-fail";
    case Detail::SwitchFailback: return "switch-failback";
    }
    return "unknown";
}

EventLog::EventLog(std::size_t capacity)
    : ring_(capacity ? capacity : 1)
{
}

EventLog::~EventLog()
{
    close();
}

bool
EventLog::openFile(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return false;
    FileHeader hdr{};
    std::memcpy(hdr.magic, kMagic, 8);
    hdr.version = kVersion;
    hdr.record_size = static_cast<std::uint32_t>(sizeof(Record));
    if (std::fwrite(&hdr, sizeof(hdr), 1, file_) != 1) {
        std::fclose(file_);
        file_ = nullptr;
        return false;
    }
    return true;
}

void
EventLog::close()
{
    if (!file_)
        return;
    flushToFile();
    std::fclose(file_);
    file_ = nullptr;
}

void
EventLog::append(const Record &r)
{
    if (count_ == ring_.size()) {
        if (file_) {
            flushToFile();
        } else {
            // Ring full with no sink: overwrite the oldest record.
            count_ -= 1;
            dropped_ += 1;
        }
    }
    ring_[head_] = r;
    head_ = (head_ + 1) % ring_.size();
    count_ += 1;
    total_ += 1;
}

void
EventLog::log(EventType type, Picoseconds at, std::uint16_t port,
              std::uint16_t src, std::uint16_t dst, std::uint8_t id,
              bool response, Detail detail, std::uint64_t arg,
              std::uint8_t sw, std::uint8_t tier, std::uint32_t aux)
{
    Record r;
    r.at = at;
    r.arg = arg;
    r.port = port;
    r.src = src;
    r.dst = dst;
    r.id = id;
    r.type = static_cast<std::uint8_t>(type);
    r.flags = response ? kFlagResponse : 0;
    r.detail = static_cast<std::uint8_t>(detail);
    r.sw = sw;
    r.tier = tier;
    r.aux = aux;
    append(r);
}

const Record &
EventLog::at(std::size_t i) const
{
    const std::size_t oldest = (head_ + ring_.size() - count_) % ring_.size();
    return ring_[(oldest + i) % ring_.size()];
}

std::vector<Record>
EventLog::snapshot() const
{
    std::vector<Record> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(at(i));
    return out;
}

void
EventLog::clear()
{
    head_ = 0;
    count_ = 0;
    total_ = 0;
    dropped_ = 0;
}

void
EventLog::flushToFile()
{
    if (!file_ || count_ == 0)
        return;
    for (std::size_t i = 0; i < count_; ++i) {
        const Record &r = at(i);
        std::fwrite(&r, sizeof(Record), 1, file_);
    }
    head_ = 0;
    count_ = 0;
}

bool
LogReader::open(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_) {
        error_ = "cannot open";
        return false;
    }
    FileHeader hdr{};
    if (std::fread(&hdr, sizeof(hdr), 1, file_) != 1 ||
        std::memcmp(hdr.magic, EventLog::kMagic, 8) != 0) {
        error_ = "not an EDMTRACE file";
    } else if (hdr.version != EventLog::kVersion) {
        error_ = "EDMTRACE version " + std::to_string(hdr.version) +
            ", this reader reads version " +
            std::to_string(EventLog::kVersion);
    } else if (hdr.record_size != sizeof(Record)) {
        error_ = "record size " + std::to_string(hdr.record_size) +
            ", expected " + std::to_string(sizeof(Record));
    } else {
        version_ = hdr.version;
        return true;
    }
    std::fclose(file_);
    file_ = nullptr;
    return false;
}

void
LogReader::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    version_ = 0;
    error_.clear();
}

bool
LogReader::next(Record &r)
{
    if (!file_)
        return false;
    const std::size_t got = std::fread(&r, 1, sizeof(Record), file_);
    if (got == sizeof(Record))
        return true;
    if (std::ferror(file_))
        error_ = "read error";
    else if (got > 0)
        error_ = "truncated: trailing partial record of " +
            std::to_string(got) + " bytes";
    return false;
}

std::vector<Record>
LogReader::readAll()
{
    std::vector<Record> out;
    Record r;
    while (next(r))
        out.push_back(r);
    return out;
}

} // namespace trace
} // namespace edm

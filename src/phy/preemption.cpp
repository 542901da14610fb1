#include "preemption.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace phy {

namespace {

bool
isGrant(const PhyBlock &b)
{
    return b.isControl() && b.type() == BlockType::Grant;
}

} // namespace

bool
PreemptionMux::leavesAfter(const MemEntry &e, const PhyBlock &block,
                           Picoseconds ready)
{
    return e.ready != ready ? e.ready > ready
                            : isGrant(e.block) && !isGrant(block);
}

void
PreemptionMux::enqueueMemory(const std::vector<PhyBlock> &blocks,
                             Picoseconds ready)
{
    for (const auto &b : blocks)
        enqueueMemory(b, ready);
}

void
PreemptionMux::enqueueMemory(const PhyBlock &block, Picoseconds ready)
{
    // Ordered insert by (availability, is-grant), stable within each
    // group. In the common case (no in-flight burst or tied grant
    // queued) this is a plain push_back; bursts are short, so the
    // backward scan is a few steps.
    std::size_t pos = mem_q_.size();
    while (pos > 0 && leavesAfter(mem_q_[pos - 1], block, ready))
        --pos;
    mem_q_.insert(pos, MemEntry{block, ready});
}

void
PreemptionMux::enqueueMemoryRun(const PhyBlock *blocks, std::size_t count,
                                Picoseconds first_avail, Picoseconds stride)
{
    for (std::size_t i = 0; i < count; ++i)
        enqueueMemory(blocks[i],
                      first_avail + static_cast<Picoseconds>(i) * stride);
}

void
PreemptionMux::enqueueMemoryList(const PhyBlock *blocks,
                                 const Picoseconds *avails,
                                 std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        enqueueMemory(blocks[i], avails[i]);
}

bool
PreemptionMux::offerFrameBlock(const PhyBlock &block)
{
    if (!frameSpace())
        return false;
    frame_q_.push_back(block);
    return true;
}

Picoseconds
PreemptionMux::readyAt(Picoseconds now) const
{
    if (!frame_q_.empty())
        return now;
    if (!mem_q_.empty())
        return mem_q_.front().ready > now ? mem_q_.front().ready : now;
    return kNever;
}

bool
PreemptionMux::pickMemory(Picoseconds now) const
{
    if (!memoryEligible(now))
        return false;
    if (frame_q_.empty())
        return true;
    // A memory message in flight finishes contiguously before the frame
    // stream gets another slot; otherwise the two streams alternate.
    return mid_memory_message_ || !last_was_memory_;
}

PhyBlock
PreemptionMux::next(Picoseconds now)
{
    if (pickMemory(now)) {
        const PhyBlock b = mem_q_.front().block;
        mem_q_.pop_front();
        ++memory_slots_;
        // A memory message claiming a slot while frame blocks wait in
        // staging is a preemption entry; mid-message continuation
        // blocks belong to the same entry and are not re-logged.
        if (trace_ && !mid_memory_message_ && !frame_q_.empty())
            notePreempt(/*enter=*/true, now, frame_q_.size());
        last_was_memory_ = true;
        if (b.isControl() && b.type() == BlockType::MemStart) {
            mid_memory_message_ = true;
        } else if (b.isControl() && b.type() == BlockType::MemTerm) {
            mid_memory_message_ = false;
        }
        return b;
    }
    if (!frame_q_.empty()) {
        const PhyBlock b = frame_q_.front();
        frame_q_.pop_front();
        ++frame_slots_;
        // The frame stream taking the slot back right after memory
        // traffic is the preemption re-entry slot (docs/WIRE_FORMAT.md).
        if (trace_ && last_was_memory_)
            notePreempt(/*enter=*/false, now, 1);
        last_was_memory_ = false;
        return b;
    }
    ++idle_slots_;
    last_was_memory_ = false;
    return PhyBlock::idle();
}

std::size_t
PreemptionMux::takeTrainRun(Picoseconds start, Picoseconds cycle,
                            std::size_t max, std::size_t min_run,
                            std::vector<PhyBlock> &blocks,
                            std::vector<Picoseconds> &avails)
{
    // Only mid-message is a burst commitment safe: /MS/ pinned the line
    // to the memory stream until /MT/, so neither frame arrivals nor
    // slot alternation can claim one of the train's slots.
    if (!mid_memory_message_)
        return 0;
    const std::size_t limit = std::min(max, mem_q_.size());
    std::size_t n = 0;
    Picoseconds slot = start;
    while (n < limit) {
        const MemEntry &e = mem_q_[n];
        if (!e.block.isData() || e.ready > slot)
            break;
        ++n;
        slot += cycle;
    }
    if (n < min_run)
        return 0;
    for (std::size_t i = 0; i < n; ++i) {
        blocks.push_back(mem_q_[i].block);
        avails.push_back(mem_q_[i].ready);
    }
    mem_q_.pop_front(n);
    memory_slots_ += n;
    last_was_memory_ = true;
    return n;
}

void
PreemptionMux::notePreempt(bool enter, Picoseconds at, std::uint64_t arg)
{
    trace_->log(enter ? trace::EventType::PreemptEnter
                      : trace::EventType::PreemptReenter,
                at, trace_port_, 0, 0, 0, false, trace::Detail::None,
                arg);
}

void
PreemptionMux::restoreMemoryRun(const PhyBlock *blocks,
                                const Picoseconds *avails,
                                std::size_t count)
{
    EDM_ASSERT(mid_memory_message_,
               "restoring a train outside a memory message");
    // Merge by availability, restored-first on ties: a grant-overtake
    // trim returns blocks *because* something with an earlier stamp
    // (the grant) slipped in front of them, so a plain push_front would
    // invert the queue's availability order and bury that grant behind
    // not-yet-available blocks. Restored blocks are data, which leave
    // before a grant of the same stamp, and were queued before any data
    // block of the same stamp, so restored-first is the queue's order.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < count; ++i) {
        while (pos < mem_q_.size() && mem_q_[pos].ready < avails[i])
            ++pos;
        mem_q_.insert(pos++, MemEntry{blocks[i], avails[i]});
    }
    EDM_ASSERT(memory_slots_ >= count, "restoring more slots than taken");
    memory_slots_ -= count;
}

void
PreemptionMux::restoreFrameRun(const PhyBlock *blocks, std::size_t count)
{
    for (std::size_t i = count; i-- > 0;)
        frame_q_.push_front(blocks[i]);
    EDM_ASSERT(frame_slots_ >= count, "restoring more slots than taken");
    frame_slots_ -= count;
}

PreemptionDemux::PreemptionDemux(MemoryHandler on_memory,
                                 FrameHandler on_frame)
    : on_memory_(std::move(on_memory)), on_frame_(std::move(on_frame))
{
    EDM_ASSERT(on_memory_ && on_frame_, "demux needs both handlers");
}

void
PreemptionDemux::feed(const PhyBlock &block)
{
    if (block.isControl()) {
        const BlockType t = block.type();
        if (t == BlockType::MemStart) {
            EDM_ASSERT(!in_memory_message_, "nested /MS/");
            in_memory_message_ = true;
            on_memory_(block);
            return;
        }
        if (t == BlockType::MemTerm) {
            EDM_ASSERT(in_memory_message_, "/MT/ without /MS/");
            in_memory_message_ = false;
            on_memory_(block);
            return;
        }
        if (t == BlockType::MemSingle || t == BlockType::Notify ||
            t == BlockType::Grant) {
            on_memory_(block);
            return;
        }
        if (t == BlockType::Idle)
            return; // inter-frame gap; nothing to deliver

        if (t == BlockType::Start) {
            in_frame_ = true;
            frame_buf_.clear();
            frame_buf_.push_back(block);
            return;
        }
        if (isTerminate(t)) {
            if (in_frame_) {
                frame_buf_.push_back(block);
                in_frame_ = false;
                on_frame_(std::move(frame_buf_));
                frame_buf_ = {};
            }
            return;
        }
        // Ordered sets and other control blocks pass through with frames
        // only when mid-frame; otherwise they are link maintenance.
        if (in_frame_)
            frame_buf_.push_back(block);
        return;
    }

    // Data block: memory data if inside /MS/../MT/, else frame data.
    if (in_memory_message_) {
        on_memory_(block);
    } else if (in_frame_) {
        frame_buf_.push_back(block);
    }
    // Data with neither context is dropped (would be a line error; the
    // FrameDecoder counts such violations when they reach it).
}

} // namespace phy
} // namespace edm

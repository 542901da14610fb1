/**
 * @file
 * Intra-frame preemption: TX block multiplexer and RX reassembly demux
 * (paper §3.2.3).
 *
 * TX side: memory blocks (/MS/ /MD/ /MT/ /MST/ /N/ /G/) and non-memory
 * frame blocks share the line at 66-bit granularity. A small (4-block)
 * staging buffer holds encoder output; when it fills during a preemption,
 * backpressure propagates to the MAC. Memory *messages* transmit
 * contiguously (they are at most a chunk long); non-memory frames can be
 * preempted at any block boundary.
 *
 * Memory entries carry an availability timestamp so an upstream stage may
 * enqueue a whole burst in one event while each block becomes emittable
 * only at the instant it would have arrived had every block been its own
 * event (the block-train transmission path). Entries are kept ordered by
 * (availability, is-grant), stable within each group: a /G/ yields a
 * tied slot, so a grant stamped the same instant as a block of a
 * cut-through stream leaves after it whichever was enqueued first, and
 * otherwise ties leave in FIFO order. Callers that never timestamp and
 * queue no grants see plain FIFO.
 * Frame blocks can form trains too: a run of staged frame blocks whose
 * slots no queued memory block could claim (memory preempts a frame
 * whenever its head is available by a slot, so a frame run is only safe
 * while the memory queue sleeps past it).
 *
 * Both queues are contiguous rings (common::Ring): a train is an
 * indexed scan plus one bulk pop, and steady-state traffic never
 * touches the heap.
 *
 * RX side: blocks of a preempted frame arrive in order but in
 * non-consecutive slots. The decoder and MAC require consecutive delivery,
 * so the demux buffers frame blocks until the /T/ block arrives, then
 * releases the whole frame; memory blocks are extracted and delivered to
 * the EDM RX path immediately (and replaced by idles toward the decoder,
 * which here simply means not forwarding them).
 */

#ifndef EDM_PHY_PREEMPTION_HPP
#define EDM_PHY_PREEMPTION_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "phy/block.hpp"

namespace edm {

namespace trace {
class EventLog;
} // namespace trace

namespace phy {

/**
 * TX multiplexer: one block per line slot from two streams. Outside a
 * memory message the streams alternate slots while both have work;
 * once /MS/ claims a slot the message finishes contiguously.
 */
class PreemptionMux
{
  public:
    /** Staging-buffer bound for non-memory blocks (4 per §3.2.3). */
    static constexpr std::size_t kFrameBufferBlocks = 4;

    /** readyAt() result when no block is queued at all. */
    static constexpr Picoseconds kNever = INT64_MAX;

    /**
     * Attach a fabric event log (see docs/EVENT_LOG.md): the mux then
     * records PreemptEnter when a memory message claims a slot away
     * from staged frame blocks and PreemptReenter when the frame
     * stream resumes after memory traffic. @p port identifies this mux
     * in the log (the phy layer has no notion of core::NodeId). Purely
     * observational — no decision changes.
     */
    void
    attachTrace(trace::EventLog *log, std::uint16_t port)
    {
        trace_ = log;
        trace_port_ = port;
    }

    /**
     * Queue a contiguous memory message / control block sequence, every
     * block available from @p ready on (pass the current simulation time;
     * the default keeps timestamp-free unit-test use working).
     */
    void enqueueMemory(const std::vector<PhyBlock> &blocks,
                       Picoseconds ready = 0);

    /** Queue one memory control block (/N/ or /G/), available at @p ready. */
    void enqueueMemory(const PhyBlock &block, Picoseconds ready = 0);

    /**
     * Queue a cut-through burst: @p count blocks, block i available at
     * @p first_avail + i * @p stride; enqueueMemory() per block.
     */
    void enqueueMemoryRun(const PhyBlock *blocks, std::size_t count,
                          Picoseconds first_avail, Picoseconds stride);

    /**
     * Queue @p count blocks with explicit non-decreasing availability
     * stamps (adoption drains); equivalent to enqueueMemory() per block.
     */
    void enqueueMemoryList(const PhyBlock *blocks,
                           const Picoseconds *avails, std::size_t count);

    /**
     * Offer one non-memory frame block to the staging buffer.
     * @return false when the buffer is full — the MAC must hold this
     *         block and retry (backpressure).
     */
    bool offerFrameBlock(const PhyBlock &block);

    /** True when the staging buffer can accept another frame block. */
    bool frameSpace() const { return frame_q_.size() < kFrameBufferBlocks; }

    /** True if either stream has a block queued (ready or not). */
    bool hasWork() const { return !mem_q_.empty() || !frame_q_.empty(); }

    /**
     * Earliest instant a line slot could carry a queued block: now when
     * a frame or a ready memory block waits, the head memory block's
     * availability when everything queued is still in flight upstream,
     * kNever when both streams are empty.
     */
    Picoseconds readyAt(Picoseconds now) const;

    /**
     * Emit the block for the next line slot at time @p now. Memory
     * blocks that are not yet available are invisible, exactly as they
     * were before their per-block arrival event in the per-event design.
     * With no (visible) work queued this is an idle /E/ block (the slot
     * EDM can otherwise repurpose).
     */
    PhyBlock next(Picoseconds now = INT64_MAX);

    /**
     * Pop the emittable memory block train: the run of memory *data*
     * blocks at the queue head where block i is available by its slot
     * @p start + i * @p cycle, capped at @p max — but only when at
     * least @p min_run blocks long (otherwise nothing is popped and 0
     * returns). Nonzero only mid-message (between /MS/ and /MT/),
     * where the mux is committed to the memory stream regardless of
     * frame arrivals, so a burst emission cannot change any scheduling
     * decision. Blocks may still be in flight upstream (available
     * after @p start but by their slot); a later insert that would
     * overtake one of them must trim the train (restoreMemoryRun).
     * Blocks and their availability stamps (needed to re-insert on
     * abort) append to @p blocks / @p avails; slot statistics are
     * charged as next() would have.
     */
    std::size_t takeTrainRun(Picoseconds start, Picoseconds cycle,
                             std::size_t max, std::size_t min_run,
                             std::vector<PhyBlock> &blocks,
                             std::vector<Picoseconds> &avails);

    /**
     * Pop the emittable *frame* block train: the run of staged frame
     * blocks from slot @p start on whose slots the memory stream cannot
     * claim — a queued memory block preempts a frame at any slot its
     * availability has reached, so the run extends only while the head
     * memory block (if any) stays in flight past the slot. The run
     * stops *before* any terminate (/Tn/) block: frame-end processing
     * (flood scheduling, handler delivery) must keep its own per-block
     * event so downstream event ordering is untouched. @p refill (any
     * void() callable, statically dispatched — this runs per emit
     * event) is invoked whenever the staging buffer runs dry so the
     * caller can top it up from its backlog (the MAC reacting to freed
     * space). Returns 0 (taking nothing) when fewer than @p min_run
     * blocks qualify. Blocks append to @p blocks; slot statistics are
     * charged as next() would have.
     */
    template <typename Refill>
    std::size_t
    takeFrameTrainRun(Picoseconds start, Picoseconds cycle,
                      std::size_t max, std::size_t min_run,
                      Refill &&refill, std::vector<PhyBlock> &blocks)
    {
        const std::size_t base = blocks.size();
        std::size_t n = 0;
        Picoseconds slot = start;
        while (n < max) {
            if (frame_q_.empty())
                refill();
            if (frame_q_.empty())
                break;
            // A queued memory block claims any slot its availability
            // has reached (after a frame block has gone out the mux
            // always prefers eligible memory), so the run ends at the
            // first slot the memory stream can contest.
            if (!mem_q_.empty() && mem_q_.front().ready <= slot)
                break;
            const PhyBlock b = frame_q_.front();
            // Frame-end blocks keep their own per-block emission and
            // delivery event: /Tn/ processing schedules downstream
            // work (flood, handler) whose ordering must stay exactly
            // per-block.
            if (b.isControl() && isTerminate(b.type()))
                break;
            blocks.push_back(b);
            frame_q_.pop_front();
            ++n;
            slot += cycle;
        }
        if (n < min_run) {
            for (std::size_t i = n; i-- > 0;)
                frame_q_.push_front(blocks[base + i]);
            blocks.resize(base);
            return 0;
        }
        if (trace_ && last_was_memory_)
            notePreempt(/*enter=*/false, start, n);
        frame_slots_ += n;
        last_was_memory_ = false;
        return n;
    }

    /**
     * Return the uncommitted tail of a memory train to the head of the
     * memory queue (train abort: fault injection, or an insert that
     * would overtake an in-flight block): the blocks go back in order
     * with their original availability stamps, and the slot statistics
     * taken by takeTrainRun() are credited back.
     */
    void restoreMemoryRun(const PhyBlock *blocks,
                          const Picoseconds *avails, std::size_t count);

    /**
     * Return the uncommitted tail of a frame train to the head of the
     * staging buffer (train abort: fault injection, or a memory arrival
     * that preempts the train's remaining slots). The buffer may
     * transiently exceed its 4-block bound — these blocks were already
     * accepted into the transmitter and are merely pulled back — and
     * backpressure (frameSpace()) holds until it drains. Slot
     * statistics are credited back.
     */
    void restoreFrameRun(const PhyBlock *blocks, std::size_t count);

    /** Availability of the head memory block; kNever when none queued. */
    Picoseconds
    headAvail() const
    {
        return mem_q_.empty() ? kNever : mem_q_.front().ready;
    }

    /** Pending memory blocks (including not-yet-available ones). */
    std::size_t memoryBacklog() const { return mem_q_.size(); }

    /** Pending non-memory blocks in the staging buffer. */
    std::size_t frameBacklog() const { return frame_q_.size(); }

    /** True while emitting a memory message (/MS/ seen, /MT/ pending). */
    bool midMemoryMessage() const { return mid_memory_message_; }

    /** Total slots emitted, by category (for utilization accounting). */
    std::uint64_t memorySlots() const { return memory_slots_; }
    std::uint64_t frameSlots() const { return frame_slots_; }
    std::uint64_t idleSlots() const { return idle_slots_; }

  private:
    /** A queued memory block and the time it becomes emittable. */
    struct MemEntry
    {
        PhyBlock block;
        Picoseconds ready = 0;
    };

    trace::EventLog *trace_ = nullptr; ///< optional; not owned
    std::uint16_t trace_port_ = 0;
    common::Ring<MemEntry> mem_q_;   ///< (availability, is-grant)-sorted
    common::Ring<PhyBlock> frame_q_; ///< FIFO staging buffer
    bool last_was_memory_ = false; ///< slot alternation state
    bool mid_memory_message_ = false;
    std::uint64_t memory_slots_ = 0;
    std::uint64_t frame_slots_ = 0;
    std::uint64_t idle_slots_ = 0;

    bool
    memoryEligible(Picoseconds now) const
    {
        return !mem_q_.empty() && mem_q_.front().ready <= now;
    }

    bool pickMemory(Picoseconds now) const;

    /** True if queued @p e leaves after @p block, available at @p ready. */
    static bool leavesAfter(const MemEntry &e, const PhyBlock &block,
                            Picoseconds ready);

    /** Emit a PreemptEnter/PreemptReenter record (trace_ checked). */
    void notePreempt(bool enter, Picoseconds at, std::uint64_t arg);
};

/**
 * RX demultiplexer: classifies each received block.
 */
class PreemptionDemux
{
  public:
    /** Called with every memory-path block (M-star, /N/, /G/), in order. */
    using MemoryHandler = std::function<void(const PhyBlock &)>;

    /**
     * Called with a complete frame's contiguous block sequence once its
     * /T/ block has arrived.
     */
    using FrameHandler = std::function<void(std::vector<PhyBlock>)>;

    PreemptionDemux(MemoryHandler on_memory, FrameHandler on_frame);

    /** Consume one line block. */
    void feed(const PhyBlock &block);

    /** Blocks currently buffered for an in-progress frame. */
    std::size_t frameBuffered() const { return frame_buf_.size(); }

    /** True while inside a memory message (/MS/ seen, /MT/ pending). */
    bool inMemoryMessage() const { return in_memory_message_; }

  private:
    MemoryHandler on_memory_;
    FrameHandler on_frame_;
    std::vector<PhyBlock> frame_buf_;
    bool in_frame_ = false;
    bool in_memory_message_ = false;
};

} // namespace phy
} // namespace edm

#endif // EDM_PHY_PREEMPTION_HPP

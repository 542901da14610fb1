#include "switch_stack.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "net/topology.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace core {

SwitchStack::SwitchStack(const EdmConfig &cfg, EventQueue &events,
                         TxWork on_tx_work, const net::Topology &topo,
                         std::uint16_t leaf, const Leaves &leaves,
                         Picoseconds trunk)
    : cfg_(cfg), events_(events), on_tx_work_(std::move(on_tx_work)),
      topo_(topo), leaf_(leaf), leaves_(leaves), trunk_(trunk)
{
    EDM_ASSERT(on_tx_work_, "switch needs a TX-work callback");
    ports_.reserve(cfg_.num_nodes);
    for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
        ports_.push_back(std::make_unique<Port>());
        // One staging queue per possible ingress + the scheduler.
        ports_.back()->staged.resize(cfg_.num_nodes + 1);
    }
    // A single switch's scheduler runs unsharded (no tier charges).
    scheduler_ = std::make_unique<Scheduler>(
        cfg_, events_, [this](const GrantAction &a) { onGrantAction(a); },
        topo_.isSingle() ? nullptr : &topo_, leaf_);
}

phy::PreemptionMux &
SwitchStack::egressMux(NodeId port)
{
    EDM_ASSERT(port < ports_.size(), "egress port %u out of range", port);
    return ports_[port]->egress;
}

common::Ring<phy::PhyBlock> &
SwitchStack::egressFrameBacklog(NodeId port)
{
    EDM_ASSERT(port < ports_.size(), "egress port %u out of range", port);
    return ports_[port]->frame_backlog;
}

std::size_t
SwitchStack::peakEgressStaging() const
{
    std::size_t peak = 0;
    for (const auto &p : ports_)
        peak = std::max(peak, p->staging_peak);
    return peak;
}

void
SwitchStack::onGrantAction(const GrantAction &action)
{
    // Either action lands on the target's leaf: here, or one trunk
    // traversal later on a peer leaf.
    const NodeId target = action.target;
    SwitchStack *sw = &leafFor(target);
    if (action.forward_request) {
        // First grant of a response: the buffered RREQ/RMWREQ travels to
        // the memory node through the forwarding clock crossing. It is a
        // multi-block message, so it claims the egress stream like any
        // virtual circuit (pseudo-ingress: the scheduler itself).
        ++stats_.requests_forwarded;
        auto forward = [this, sw, target,
                        i = forwarded_.put(*action.forward_request)] {
            sw->acceptForwardedRequest(target, forwarded_.take(i));
        };
        static_assert(EventQueue::Callback::kFitsInline<decltype(forward)>,
                      "a forwarded request's event must not allocate");
        events_.scheduleAfter(cycles(cfg_.costs.sw_forward) + trunkTo(target),
                              std::move(forward));
        return;
    }
    EDM_ASSERT(action.grant_block.has_value(),
               "grant action with neither request nor /G/");
    ++stats_.grants_sent;
    // One visible PIM iteration + grant generation (§3.2.2).
    events_.scheduleAfter(
        cycles(cfg_.costs.sw_pim_iteration + cfg_.costs.sw_gen_grant) +
            trunkTo(target),
        [sw, target, grant = makeGrant(*action.grant_block)] {
            sw->deliverGrant(target, grant);
        });
}

void
SwitchStack::forwardBlock(NodeId ingress, Port &port,
                          const phy::PhyBlock &block)
{
    ++stats_.blocks_forwarded;
    const NodeId egress = port.egress_port;
    events_.scheduleAfter(cycles(cfg_.costs.sw_forward) + trunkTo(egress),
                          [sw = &leafFor(egress), egress, ingress,
                           seq = port.fwd_seq, block] {
                              sw->egressAccept(egress, ingress, seq, block);
                          });
}

void
SwitchStack::noteChunkForwarded(NodeId src, NodeId dst, MsgId id,
                                bool response, Bytes bytes,
                                bool last_chunk)
{
    // The demand's shard is the receiver's leaf; a chunk transiting a
    // different leaf reports its lifecycle across the trunk.
    const Picoseconds trunk = trunkTo(dst);
    if (trunk == 0) {
        scheduler_->onChunkForwarded(src, dst, id, response, bytes,
                                     last_chunk);
        return;
    }
    events_.scheduleAfter(trunk, [shard = &leafFor(dst).scheduler(), src,
                                  dst, id, response, bytes, last_chunk] {
        shard->onChunkForwarded(src, dst, id, response, bytes, last_chunk);
    });
}

void
SwitchStack::stagePush(Port &ep, NodeId ingress, std::uint64_t seq,
                       const phy::PhyBlock &block, Picoseconds at)
{
    // Stamp-ordered stable insert. A train is delivered (and staged)
    // when its *first* block arrives, which can precede the per-block
    // /MS/ still paying the forwarding crossing; ordering the stage by
    // semantic arrival keeps the /MS/ ahead of the data that follows it.
    StagedQueue &q = ep.staged[stagedIndex(ingress)];
    std::size_t pos = q.size();
    while (pos > 0 && q[pos - 1].at > at)
        --pos;
    q.insert(pos, StagedBlock{block, at, seq});
    ++ep.staged_count;
    ep.noteDepth();
}

void
SwitchStack::stageRun(Port &ep, NodeId ingress, std::uint64_t seq,
                      const phy::PhyBlock *blocks, std::size_t count,
                      Picoseconds first_avail, Picoseconds stride)
{
    // Stamps are non-decreasing, so the whole run appends behind what
    // is already staged.
    StagedQueue &q = ep.staged[stagedIndex(ingress)];
    EDM_ASSERT(q.empty() || q.back().at <= first_avail,
               "train staged out of order");
    for (std::size_t i = 0; i < count; ++i)
        q.push_back(StagedBlock{
            blocks[i], first_avail + static_cast<Picoseconds>(i) * stride,
            seq});
    ep.staged_count += count;
    ep.noteDepth();
}

void
SwitchStack::adoptStaged(NodeId egress, NodeId ingress, std::uint64_t seq)
{
    // An /MS/ just claimed the egress: release the blocks of *its own*
    // stream that a train delivered early. Later streams of the same
    // ingress (strictly later stamps, different seq) stay staged.
    Port &ep = *ports_[egress];
    StagedQueue &q = ep.staged[stagedIndex(ingress)];
    const Picoseconds now = events_.now();
    scratch_blocks_.clear();
    scratch_avails_.clear();
    while (!q.empty() && q.front().seq == seq) {
        const StagedBlock &sb = q.front();
        EDM_ASSERT(sb.block.isData(),
                   "control block staged behind its own /MS/");
        scratch_blocks_.push_back(sb.block);
        scratch_avails_.push_back(std::max(sb.at, now));
        q.pop_front();
        --ep.staged_count;
    }
    if (!scratch_blocks_.empty()) {
        ep.egress.enqueueMemoryList(scratch_blocks_.data(),
                                    scratch_avails_.data(),
                                    scratch_blocks_.size());
        ep.noteDepth();
        on_tx_work_(egress);
    }
}

void
SwitchStack::egressAccept(NodeId egress, NodeId ingress, std::uint64_t seq,
                          const phy::PhyBlock &block)
{
    Port &ep = *ports_[egress];
    const bool is_ms = block.isControl() &&
        block.type() == phy::BlockType::MemStart;
    // /MST/ is a complete single-block message: it neither takes nor
    // holds stream ownership.
    const bool is_mt = block.isControl() &&
        block.type() == phy::BlockType::MemTerm;

    if (ep.stream_owner == ingress && ep.owner_seq == seq) {
        ep.egress.enqueueMemory(block, events_.now());
        ep.noteDepth();
        on_tx_work_(egress);
        if (is_mt) {
            ep.stream_owner = Port::kNoOwner;
            drainStaged(egress);
        }
        return;
    }
    if (ep.stream_owner == Port::kNoOwner) {
        ep.egress.enqueueMemory(block, events_.now());
        ep.noteDepth();
        on_tx_work_(egress);
        if (is_ms) {
            ep.stream_owner = ingress;
            ep.owner_seq = seq;
            adoptStaged(egress, ingress, seq);
        }
        return;
    }
    // Another circuit currently owns this egress: stage until /MT/.
    stagePush(ep, ingress, seq, block, events_.now());
}

void
SwitchStack::drainStaged(NodeId egress)
{
    Port &ep = *ports_[egress];
    if (ep.stream_owner != Port::kNoOwner)
        return;
    // Adopt one staged stream — the first (in port order, scheduler
    // last) whose head block has semantically arrived. Early-delivered
    // train blocks can sit here with future stamps before their own
    // /MS/ has cleared the forwarding pipeline; such streams are not
    // contenders yet (their /MS/ accept will claim them), exactly as
    // when every block arrived by its own event.
    const Picoseconds now = events_.now();
    std::size_t idx = 0;
    while (idx < ep.staged.size() &&
           (ep.staged[idx].empty() || ep.staged[idx].front().at > now))
        ++idx;
    if (idx == ep.staged.size())
        return;
    // Emit what has arrived so far. If the stream's /MT/ is already here
    // it completes and the next one drains; if not, the new owner's
    // remaining blocks cut through on arrival.
    const NodeId ingress = idx == cfg_.num_nodes
        ? kSchedulerIngress
        : static_cast<NodeId>(idx);
    StagedQueue &blocks = ep.staged[idx];
    ep.stream_owner = ingress;
    // The drain adopts exactly one stream epoch. Blocks of a *later*
    // epoch can already sit behind it (a train delivers the next
    // chunk's data at its first block's arrival — up to 3 forwarding
    // cycles before the current chunk's /MT/ accept event has run), and
    // popping across that boundary would put the next stream's data on
    // the wire without its /MS/ and claim ownership for a stream whose
    // start is still in flight, interleaving /MS/../MT/ sequences.
    ep.owner_seq = blocks.front().seq;
    while (!blocks.empty()) {
        // Next epoch's blocks, staged before this epoch's /MT/ has been
        // accepted, stay staged: the /MT/ will cut through on arrival,
        // release ownership, and re-drain.
        if (blocks.front().seq != ep.owner_seq)
            return;
        const phy::PhyBlock b = blocks.front().block;
        // Blocks that arrived while another stream held the egress went
        // on the wire at adoption; train blocks staged ahead of their
        // arrival stay available at that (future) arrival instant.
        const Picoseconds at = std::max(blocks.front().at, now);
        blocks.pop_front();
        --ep.staged_count;
        ep.egress.enqueueMemory(b, at);
        ep.noteDepth();
        on_tx_work_(egress);
        const bool terminates = b.isControl() &&
            (b.type() == phy::BlockType::MemTerm ||
             b.type() == phy::BlockType::MemSingle);
        if (terminates) {
            // Whatever of this ingress's *next* message piled up behind
            // the /MT/ while the egress was owned (or was delivered
            // early by a train) stays staged as a fresh contender for
            // the now-free egress.
            ep.stream_owner = Port::kNoOwner;
            drainStaged(egress);
            return;
        }
    }
}

void
SwitchStack::rxBlock(NodeId ingress, const phy::PhyBlock &block)
{
    EDM_ASSERT(ingress < ports_.size(), "ingress port %u out of range",
               ingress);
    Port &port = *ports_[ingress];

    if (block.isControl()) {
        switch (block.type()) {
          case phy::BlockType::Notify: {
            ++stats_.notify_blocks;
            const ControlInfo n = unpackControl(block.controlPayload());
            // Classification + ordered-list insert, into the demand
            // queue of n.dst's shard (one trunk traversal away when
            // n.dst hangs off another leaf).
            events_.scheduleAfter(cycles(cfg_.costs.sw_classify +
                                         cfg_.costs.sw_insert_notif) +
                                      trunkTo(n.dst),
                                  [shard = &leafFor(n.dst).scheduler(), n] {
                                      shard->addWriteDemand(n);
                                  });
            return;
          }
          case phy::BlockType::Grant:
            EDM_PANIC("switch received a /G/ block on port %u", ingress);
            return;
          case phy::BlockType::MemStart: {
            MemMessage hdr;
            unpackHeader(block.controlPayload(), hdr);
            if (hdr.type == MemMsgType::RREQ ||
                hdr.type == MemMsgType::RMWREQ) {
                port.absorbing = true;
                port.assembler.feed(block);
            } else {
                // Data stream on a granted virtual circuit: forward with
                // zero processing (property 2, §3.1.1). A new stream
                // head starts a new forwarded-stream epoch.
                port.forwarding = true;
                port.egress_port = hdr.dst;
                port.fwd_hdr56 = block.controlPayload();
                ++port.fwd_seq;
                forwardBlock(ingress, port, block);
            }
            return;
          }
          case phy::BlockType::MemSingle: {
            MemMessage hdr;
            unpackHeader(block.controlPayload(), hdr);
            if (hdr.type == MemMsgType::RRES) {
                port.egress_port = hdr.dst;
                ++port.fwd_seq;
                noteChunkForwarded(hdr.src, hdr.dst, hdr.id,
                                   /*response=*/true, hdr.len,
                                   hdr.last_chunk);
                forwardBlock(ingress, port, block);
            } else {
                EDM_WARN("unexpected /MST/ type %d on port %u",
                         static_cast<int>(hdr.type), ingress);
            }
            return;
          }
          case phy::BlockType::MemTerm:
            if (port.absorbing) {
                auto msg = port.assembler.feed(block);
                port.absorbing = false;
                EDM_ASSERT(msg.has_value(), "absorbed message incomplete");
                ++stats_.requests_buffered;
                const MemMessage m = std::move(*msg);
                const Bytes rres_size =
                    m.type == MemMsgType::RMWREQ ? 16 : m.len;
                // Classification + insert into the notification queue;
                // the buffered request itself is the demand (§3.1.1).
                events_.scheduleAfter(
                    cycles(cfg_.costs.sw_classify +
                           cfg_.costs.sw_insert_notif),
                    [this, m, rres_size] {
                        scheduler_->addReadDemand(m, rres_size);
                    });
            } else if (port.forwarding) {
                port.forwarding = false;
                MemMessage hdr;
                unpackHeader(port.fwd_hdr56, hdr);
                noteChunkForwarded(hdr.src, hdr.dst, hdr.id,
                                   hdr.type == MemMsgType::RRES,
                                   hdr.len, hdr.last_chunk);
                forwardBlock(ingress, port, block);
            } else {
                EDM_WARN("/MT/ without stream on port %u", ingress);
            }
            return;
          case phy::BlockType::Idle:
            return;
          case phy::BlockType::Start:
            port.in_l2_frame = true;
            port.l2_buf.clear();
            port.l2_buf.push_back(block);
            return;
          default:
            if (phy::isTerminate(block.type()) && port.in_l2_frame) {
                port.l2_buf.push_back(block);
                port.in_l2_frame = false;
                floodFrame(ingress, std::move(port.l2_buf));
                port.l2_buf = {};
            }
            // Other control blocks (/O/ etc.) are link maintenance.
            return;
        }
    }

    // Data block.
    if (port.absorbing) {
        port.assembler.feed(block);
    } else if (port.forwarding) {
        forwardBlock(ingress, port, block);
    } else if (port.in_l2_frame) {
        port.l2_buf.push_back(block);
    }
}

void
SwitchStack::rxBlockTrain(NodeId ingress, const phy::PhyBlock *blocks,
                          std::size_t count, Picoseconds first_at,
                          Picoseconds stride)
{
    EDM_ASSERT(ingress < ports_.size(), "ingress port %u out of range",
               ingress);
    Port &port = *ports_[ingress];
#ifndef NDEBUG
    for (std::size_t i = 0; i < count; ++i)
        EDM_ASSERT(blocks[i].isData(), "control block in a train");
#endif
    // The port's stream state cannot change mid-train (no events run
    // inside this call, and message boundaries travel per-block), so the
    // whole train takes one path.
    if (port.absorbing) {
        // Buffering into the ingress assembler has no side effects
        // until /MT/ (which arrives per-block, after the train).
        port.assembler.feedData(blocks, count);
        return;
    }
    if (port.forwarding) {
        stats_.blocks_forwarded += count;
        const NodeId egress = port.egress_port;
        const std::uint64_t seq = port.fwd_seq;
        const Picoseconds first_avail =
            first_at + cycles(cfg_.costs.sw_forward);
        const Picoseconds trunk = trunkTo(egress);
        if (trunk == 0) {
            acceptRun(egress, ingress, seq, blocks, count, first_avail,
                      stride);
            return;
        }
        // A run bound for another leaf lands there one trunk traversal
        // later, its whole availability ladder shifted by the same.
        const Picoseconds arrive = first_avail + trunk;
        events_.schedule(arrive,
                         [sw = &leafFor(egress), egress, ingress, seq,
                          run = std::vector<phy::PhyBlock>(blocks,
                                                           blocks + count),
                          arrive, stride] {
                             sw->acceptRun(egress, ingress, seq, run.data(),
                                           run.size(), arrive, stride);
                         });
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        if (port.in_l2_frame)
            port.l2_buf.push_back(blocks[i]);
        else
            EDM_WARN("train data block without stream on port %u",
                     ingress);
    }
}

void
SwitchStack::rxFrameTrain(NodeId ingress, const phy::PhyBlock *blocks,
                          std::size_t count, Picoseconds first_at,
                          Picoseconds stride)
{
    EDM_ASSERT(ingress < ports_.size(), "ingress port %u out of range",
               ingress);
    Port &port = *ports_[ingress];
    if (port.absorbing || port.forwarding) {
        // The emitting mux finished its memory message, but the /MT/ was
        // lost on the wire, so this port still classifies data blocks as
        // stream data. Deliver them as per-block rxBlock() would: the
        // /S/ on its own, the data as a memory train stamped with each
        // block's arrival.
        const std::size_t lead = blocks[0].isControl() ? 1 : 0;
        if (lead > 0)
            rxBlock(ingress, blocks[0]);
        if (count > lead)
            rxBlockTrain(ingress, blocks + lead, count - lead,
                         first_at + static_cast<Picoseconds>(lead) * stride,
                         stride);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const phy::PhyBlock &b = blocks[i];
        if (b.isControl()) {
            EDM_ASSERT(b.type() == phy::BlockType::Start,
                       "unexpected control block in a frame train");
            port.in_l2_frame = true;
            port.l2_buf.clear();
            port.l2_buf.push_back(b);
        } else if (port.in_l2_frame) {
            port.l2_buf.push_back(b);
        } else {
            EDM_WARN("frame-train data block without /S/ on port %u",
                     ingress);
        }
    }
}

void
SwitchStack::floodFrame(NodeId ingress, std::vector<phy::PhyBlock> frame)
{
    // Layer-2 store-and-forward: the frame pays the conventional
    // forwarding-pipeline latency (§2.4 Limitation 4) and floods to every
    // other port (empty forwarding table).
    ++stats_.frames_flooded;
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::FrameFlood, events_.now(), ingress,
                 ingress, 0, 0, false, trace::Detail::None, frame.size(),
                 leaf_);
    // Replicate across the trunk: every other leaf floods its own
    // hosts after the same pipeline plus one trunk traversal. The
    // replica never re-floods: leaf-to-leaf fan-out happens once, here.
    for (const auto &leaf : leaves_) {
        if (leaf.get() != this)
            events_.scheduleAfter(cfg_.l2_pipeline + trunk_,
                                  [sw = leaf.get(), ingress, frame] {
                                      sw->floodLocal(ingress, frame);
                                  });
    }
    events_.scheduleAfter(cfg_.l2_pipeline,
                          [this, ingress, frame = std::move(frame)] {
                              floodLocal(ingress, frame);
                          });
}

void
SwitchStack::floodLocal(NodeId ingress,
                        const std::vector<phy::PhyBlock> &frame)
{
    // Other leaves' ports are drained by their own switch.
    const auto [lo, hi] = topo_.hostsOfLeaf(leaf_);
    for (NodeId p = lo; p < hi; ++p) {
        if (p == ingress)
            continue;
        ports_[p]->frame_backlog.append(frame.data(), frame.size());
        on_tx_work_(p);
    }
}

void
SwitchStack::deliverGrant(NodeId port, const phy::PhyBlock &grant)
{
    EDM_ASSERT(port < ports_.size(), "grant port %u out of range", port);
    ports_[port]->egress.enqueueMemory(grant, events_.now());
    ports_[port]->noteDepth();
    on_tx_work_(port);
}

void
SwitchStack::acceptForwardedRequest(NodeId target,
                                    const MemMessage &request)
{
    EDM_ASSERT(target < ports_.size(), "request port %u out of range",
               target);
    const auto blocks = serialize(request);
    const std::uint64_t seq = ++sched_fwd_seq_;
    for (const auto &b : blocks)
        egressAccept(target, kSchedulerIngress, seq, b);
}

void
SwitchStack::acceptRun(NodeId egress, NodeId ingress, std::uint64_t seq,
                       const phy::PhyBlock *blocks, std::size_t count,
                       Picoseconds first_avail, Picoseconds stride)
{
    Port &ep = *ports_[egress];
    if (ep.stream_owner == ingress && ep.owner_seq == seq) {
        // Cut through with each block's true arrival instant: the
        // egress mux is handed the whole train early, but block i only
        // becomes emittable when its per-block accept event would have
        // enqueued it.
        ep.egress.enqueueMemoryRun(blocks, count, first_avail, stride);
        ep.noteDepth();
        on_tx_work_(egress);
        return;
    }
    // Our /MS/ is still in the forwarding pipeline (or crossing the
    // trunk) behind this early train, or a competing stream owns the
    // egress: stage with arrival stamps; the /MS/ accept or the
    // adoption drain releases them.
    stageRun(ep, ingress, seq, blocks, count, first_avail, stride);
}

} // namespace core
} // namespace edm

#include "fabric.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "phy/pcs.hpp"
#include "phy/serdes.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace core {

CycleFabric::CycleFabric(const EdmConfig &cfg, Simulation &sim,
                         std::vector<NodeId> memory_nodes)
    : cfg_(cfg), sim_(sim), topo_(cfg.topology, cfg.num_nodes),
      links_(2 * cfg.num_nodes), frame_backlog_(cfg.num_nodes)
{
    EDM_ASSERT(cfg_.num_nodes >= 2, "fabric needs at least two nodes");

    auto is_memory = [&](NodeId id) {
        return memory_nodes.empty() ||
            std::find(memory_nodes.begin(), memory_nodes.end(), id) !=
                memory_nodes.end();
    };

    const std::size_t n = cfg_.num_nodes;
    hosts_.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
        hosts_.push_back(std::make_unique<HostStack>(
            i, cfg_, sim_.events(), is_memory(i),
            [this, lp = &links_[i]] { pump(*lp); }));
    }
    // Each leaf reaches its peers (and each scheduler shard the other
    // shards) directly, one fixed trunk traversal away.
    const Picoseconds trunk = trunkLatency();
    switches_.reserve(topo_.numLeaves());
    std::vector<Scheduler *> shards;
    for (std::uint16_t l = 0; l < topo_.numLeaves(); ++l) {
        switches_.push_back(std::make_unique<SwitchStack>(
            cfg_, sim_.events(),
            [this, n](NodeId port) { pump(links_[n + port]); }, topo_, l,
            switches_, trunk));
        shards.push_back(&switches_.back()->scheduler());
    }
    for (Scheduler *shard : shards)
        shard->connectShards(shards, trunk);
    for (NodeId i = 0; i < n; ++i) {
        Link &up = links_[i];
        up.node = i;
        up.rank = static_cast<std::uint32_t>(1 + i);
        up.mux = &hosts_[i]->mux();
        up.backlog = &frame_backlog_[i];
        Link &down = links_[n + i];
        down.node = i;
        down.rank = static_cast<std::uint32_t>(1 + n + i);
        down.uplink = false;
        down.mux = &leafSw(i).egressMux(i);
        down.backlog = &leafSw(i).egressFrameBacklog(i);
    }

    train_cap_ = trainCap(cfg_.max_train_blocks);
    frame_train_cap_ = trainCap(cfg_.max_frame_train_blocks);

    // Fail-fast read retries: a fault abort that retires a response
    // flow means the reader's data sender went dark — route the abort
    // to the waiting reader so it re-issues on the backoff path instead
    // of waiting out the full read timeout. Only wired when the retry
    // budget exists; otherwise abortPort only sweeps the ledger.
    if (cfg_.read_retry_limit > 0) {
        for (auto &sw : switches_) {
            sw->scheduler().setAbortSink([this](const FlowKey &key) {
                if (key.response)
                    hosts_[key.dst]->onFlowAborted(key.src, key.id);
            });
        }
    }

    // Attach the (purely observational) event log to every preemption
    // mux so enter/re-enter decisions are recorded with their port.
    if (cfg_.event_log) {
        for (Link &l : links_)
            l.mux->attachTrace(cfg_.event_log, l.node);
    }

    // Route write-delivery reports from memory nodes back to the writer
    // so its completion callback sees the true delivery latency. This is
    // a measurement channel, not a protocol message (the paper measures
    // write latency at the memory node the same way).
    for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
        hosts_[i]->setWriteDeliveredHook(
            [this, i](const MemMessage &chunk, Picoseconds t) {
                // Cross-leaf reports ride the response-direction trunk:
                // the measurement lands one traversal later.
                if (!topo_.isSingle() &&
                    topo_.leafOf(chunk.src) != topo_.leafOf(i)) {
                    const NodeId writer = chunk.src;
                    const NodeId dst = chunk.dst;
                    const MsgId id = chunk.id;
                    sim_.events().schedule(
                        sim_.now() + trunkLatency(),
                        [this, writer, dst, id, t] {
                            hosts_[writer]->notifyWriteDelivered(dst, id,
                                                                 t);
                        });
                    return;
                }
                // Same leaf (or single switch): a synchronous call back
                // into the writer from the memory node's rx path.
                hosts_[chunk.src]->notifyWriteDelivered(chunk.dst, chunk.id,
                                                        t);
            });
    }
}

HostStack &
CycleFabric::host(NodeId id)
{
    EDM_ASSERT(id < hosts_.size(), "node %u out of range", id);
    return *hosts_[id];
}

Picoseconds
CycleFabric::hopLatency() const
{
    return static_cast<Picoseconds>(cfg_.costs.pcs_tx + cfg_.costs.pcs_rx) *
        cfg_.cycle +
        phy::kCrossingsPerTraversal * phy::kSerdesCrossing +
        phy::kHopPropagation;
}

Picoseconds
CycleFabric::trunkLatency() const
{
    // One trunk serialization slot, two hops (leaf->spine, spine->leaf)
    // and the spine's classify + forward pipeline.
    return cfg_.cycle + 2 * hopLatency() +
        static_cast<Picoseconds>(cfg_.costs.sw_classify +
                                 cfg_.costs.sw_forward) *
        cfg_.cycle;
}

CycleFabric::Train
CycleFabric::acquireTrain()
{
    // Trains churn at line rate; recycling the two vectors avoids an
    // allocator round trip per train.
    if (train_pool_.empty())
        return Train{};
    Train t = std::move(train_pool_.back());
    train_pool_.pop_back();
    t.blocks.clear();
    t.avails.clear();
    t.kind = Train::Kind::Memory;
    return t;
}

void
CycleFabric::releaseTrain(Train t)
{
    if (train_pool_.size() < 64)
        train_pool_.push_back(std::move(t));
}

std::size_t
CycleFabric::trainCap(std::size_t knob) const
{
    // A train's single delivery event fires at the *first* block's
    // arrival, first emission + cycle + hopLatency(). Capping the length
    // at hop/cycle + 2 keeps that instant at or after the last block's
    // emission slot, so a mid-train fault injection can still pull
    // not-yet-emitted blocks back out of the pump (abortUplinkTrain)
    // before anything downstream has seen them.
    const auto safety =
        static_cast<std::size_t>(hopLatency() / cfg_.cycle) + 2;
    return std::max<std::size_t>(1, std::min(knob, safety));
}

void
CycleFabric::noteTrainEvent(trace::EventType type, NodeId port,
                            Train::Kind kind, std::size_t blocks)
{
    if (auto *log = cfg_.event_log)
        log->log(type, sim_.now(), port, 0, 0, 0, false,
                 kind == Train::Kind::Memory ? trace::Detail::MemoryTrain
                                             : trace::Detail::FrameTrain,
                 blocks);
}

void
CycleFabric::topUpFrames(phy::PreemptionMux &mux,
                         common::Ring<phy::PhyBlock> &backlog)
{
    // Models the MAC reacting to freed staging-buffer space (costs no
    // time). The per-slot path and the frame-train refill hook both
    // call it, so a frame train tops up exactly as per-slot emission
    // would have.
    while (!backlog.empty() && mux.frameSpace()) {
        mux.offerFrameBlock(backlog.front());
        backlog.pop_front();
    }
}

// ---------------------------------------------------------------------------
// Links
//
// Every link runs the same transmit pump; the direction only decides
// where blocks land (receive, deliverTrain). Each pump owns one emit
// event. While blocks flow it fires every cycle (or at the slot after
// a train); when queued work is still in flight upstream it parks at
// the head block's availability; with nothing queued it deactivates
// and pump() restarts it.
//
// Same-instant order is a rule, not an accident of scheduling: an emit
// event is ranked 1 + its link's index, so every arrival, enqueue and
// grant of an instant (rank 0) is visible before any link transmits in
// it, and links transmit in index order (so the deliveries they file
// for one later instant tie in that order too). A train therefore sees
// exactly what per-block emission would have seen at each of its
// slots, and trim() only has to give back the slots not yet on the
// wire.
// ---------------------------------------------------------------------------

void
CycleFabric::fileEmit(Link &l, Picoseconds at)
{
    l.pump.emit_at = at;
    l.pump.emit_ev = sim_.events().scheduleRanked(
        at, l.rank, [this, lp = &l] { emit(*lp); });
}

void
CycleFabric::pump(Link &l)
{
    trim(l);
    const Picoseconds now = sim_.now();
    const Picoseconds ready =
        l.backlog->empty() ? l.mux->readyAt(now) : now;
    if (ready == phy::PreemptionMux::kNever)
        return;
    TxPump &p = l.pump;
    const Picoseconds start = std::max({now, p.next_slot, ready});
    if (!p.active) {
        p.active = true;
        fileEmit(l, start);
    } else if (p.emit_ev != kInvalidEvent && start < p.emit_at) {
        // Parked waiting on in-flight blocks, but fresher work (e.g. a
        // grant) is emittable sooner.
        sim_.events().reschedule(p.emit_ev, start);
        p.emit_at = start;
    }
}

void
CycleFabric::emit(Link &l)
{
    TxPump &p = l.pump;
    phy::PreemptionMux &mux = *l.mux;
    p.emit_ev = kInvalidEvent;

    // Top up the mux's bounded frame staging buffer from the backlog.
    topUpFrames(mux, *l.backlog);

    const Picoseconds now = sim_.now();
    EDM_ASSERT(now >= p.next_slot, "emit before the link's next slot");
    const Picoseconds ready = mux.readyAt(now);
    if (ready == phy::PreemptionMux::kNever) {
        p.active = false;
        return;
    }
    if (ready > now) {
        // Queued blocks are still in flight upstream: park until the
        // head becomes emittable.
        fileEmit(l, std::max(ready, p.next_slot));
        return;
    }

    // Fault injection falls back to per-block emission (and aborts
    // in-flight trains) so corruption lands on exactly the blocks it
    // would have.
    LinkHealth &health = l.health;
    if (health.corrupt_next == 0 && !health.disabled && emitTrain(l, now))
        return;

    const phy::PhyBlock block = mux.next(now);
    p.next_slot = now + cfg_.cycle;

    // Fault handling (§3.3): a damaged link corrupts blocks; the
    // scrambler-side monitor detects them and, past the threshold, EDM
    // disables the link rather than retransmitting (the errors are not
    // transient). Corrupt or disabled-link blocks never reach the peer.
    const NodeId id = l.node;
    bool deliver = !health.disabled;
    if (deliver && health.corrupt_next > 0) {
        --health.corrupt_next;
        ++health.errors;
        deliver = false;
        if (link_health_hook_)
            link_health_hook_(id, LinkEvent::ErrorDetected, health.errors);
        if (health.errors >= cfg_.link_error_threshold && !health.disabled) {
            health.disabled = true;
            EDM_WARN("uplink of node %u disabled after %llu line errors",
                     id, static_cast<unsigned long long>(health.errors));
            if (auto *log = cfg_.event_log)
                log->log(trace::EventType::FaultRecover, now, id, id, 0, 0,
                         false, trace::Detail::LinkDisabled, health.errors);
            // The node can no longer answer grants: retire its demand
            // lifecycles so the scheduler stops granting dead flows,
            // and drop its parked grants — it will never send the
            // chunks they bought. Every shard sweeps: the port's flows
            // may span leaves.
            for (auto &sw : switches_)
                sw->scheduler().abortPort(id);
            hosts_[id]->onUplinkDisabled();
            if (link_health_hook_)
                link_health_hook_(id, LinkEvent::Disabled, health.errors);
        }
    }

    if (deliver) {
        sim_.events().schedule(now + cfg_.cycle + hopLatency(),
                               [this, lp = &l, block] {
                                   receive(*lp, block);
                               });
    }
    fileEmit(l, p.next_slot);
}

bool
CycleFabric::emitTrain(Link &l, Picoseconds now)
{
    // Memory train: mid-message the mux is committed to the memory
    // stream, so a run of data blocks available by their slots can
    // leave back-to-back as one unit — no mux refill, preemption
    // decision or backlog top-up can claim any of its slots. Blocks
    // still in flight upstream may join (a cut-through stream reaches
    // an egress mux ahead of time with future availability stamps);
    // trim() un-commits them if a block that sorts ahead arrives.
    //
    // Frame train: outside a memory message, a run of staged L2 blocks
    // can leave back-to-back while the memory queue sleeps past their
    // slots (memory preempts a frame the instant its head becomes
    // available, so a memory arrival mid-train trims the tail). Gated
    // off inside memory messages so a train never carries frame blocks
    // the receive side would classify by /MS/../MT/ state, and skipped
    // outright when no frame work is queued (memory-only traffic must
    // not pay for the attempt).
    phy::PreemptionMux &mux = *l.mux;
    common::Ring<phy::PhyBlock> &backlog = *l.backlog;
    const bool frames = frame_train_cap_ > 1 && !mux.midMemoryMessage() &&
        (mux.frameBacklog() > 0 || !backlog.empty());
    if (train_cap_ == 1 && !frames)
        return false;
    Train t = acquireTrain();
    std::size_t run = train_cap_ > 1
        ? mux.takeTrainRun(now, cfg_.cycle, train_cap_, 2, t.blocks,
                           t.avails)
        : 0;
    if (run == 0 && frames) {
        // The staging buffer holds at most 4 blocks; the refill hook
        // tops it up from the backlog between runs exactly as the
        // per-slot path would have.
        t.kind = Train::Kind::Frame;
        run = mux.takeFrameTrainRun(
            now, cfg_.cycle, frame_train_cap_, 2,
            [&mux, &backlog] { topUpFrames(mux, backlog); }, t.blocks);
    }
    if (run == 0) {
        releaseTrain(std::move(t));
        return false;
    }
    noteTrainEvent(trace::EventType::TrainEmit, l.node, t.kind, run);
    commitTrain(l, std::move(t), run, now);
    return true;
}

void
CycleFabric::commitTrain(Link &l, Train t, std::size_t run, Picoseconds now)
{
    TxPump &p = l.pump;
    t.start = now;
    sim_.events().schedule(now + cfg_.cycle + hopLatency(),
                           [this, lp = &l] { deliverTrain(*lp); });
    EDM_ASSERT(p.trains.size() < kMaxTrainsInFlight,
               "more than %zu trains in flight on one pump",
               kMaxTrainsInFlight);
    p.trains.push_back(std::move(t));
    p.next_slot = now + static_cast<Picoseconds>(run) * cfg_.cycle;
    fileEmit(l, p.next_slot);
}

void
CycleFabric::deliverTrain(Link &l)
{
    TxPump &p = l.pump;
    EDM_ASSERT(!p.trains.empty(), "train delivery without a train");
    Train t = std::move(p.trains.front());
    p.trains.pop_front();
    const NodeId n = l.node;
    const phy::PhyBlock *blocks = t.blocks.data();
    const std::size_t count = t.blocks.size();
    // now() is the first block's arrival; later blocks arrive (and are
    // timestamped) one serialization slot apart.
    if (t.kind == Train::Kind::Frame) {
        if (l.uplink)
            leafSw(n).rxFrameTrain(n, blocks, count, sim_.now(), cfg_.cycle);
        else
            hosts_[n]->rxFrameTrain(blocks, count);
    } else if (l.uplink) {
        leafSw(n).rxBlockTrain(n, blocks, count, sim_.now(), cfg_.cycle);
    } else {
        hosts_[n]->rxBlockTrain(blocks, count);
    }
    releaseTrain(std::move(t));
}

void
CycleFabric::receive(Link &l, const phy::PhyBlock &block)
{
    if (l.uplink)
        leafSw(l.node).rxBlock(l.node, block);
    else
        hosts_[l.node]->rxBlock(block);
}

std::size_t
CycleFabric::committedSlots(const Train &t) const
{
    // Slots strictly before now are on the wire, and so is the slot that
    // formed the train. A slot exactly at now belongs to this instant's
    // transmit phase, which runs after the caller: per-block, whatever
    // the caller enqueues or corrupts would be seen by that slot's emit.
    const Picoseconds delta = sim_.now() - t.start;
    return std::max<std::size_t>(
        1, static_cast<std::size_t>((delta + cfg_.cycle - 1) / cfg_.cycle));
}

void
CycleFabric::trim(Link &l)
{
    // A train commits its slots on a bet about the mux queue. A block
    // enqueued (or made available) since that would have claimed one of
    // those slots per-block un-commits the overtaken tail.
    TxPump &p = l.pump;
    if (p.trains.empty())
        return;
    Train &t = p.trains.back();
    std::size_t keep = committedSlots(t);
    if (keep >= t.blocks.size())
        return;
    const Picoseconds head = l.mux->headAvail();
    if (head == phy::PreemptionMux::kNever)
        return;
    if (t.kind == Train::Kind::Memory) {
        // A queued block that sorts ahead of a not-yet-emitted train
        // block — a grant /G/ stamped before a cut-through block on a
        // switch egress is the canonical case — would have gone on the
        // wire before it, so the tail from there re-queues behind that
        // block. A grant stamped the same as a train block yields to it
        // (PreemptionMux), so only an earlier stamp cuts; on an uplink,
        // whose enqueues are stamped with their event time, none does.
        while (keep < t.blocks.size() && t.avails[keep] <= head)
            ++keep;
    } else {
        // Memory preempts a frame at every slot its availability
        // reaches (after a frame slot the mux always prefers eligible
        // memory).
        while (keep < t.blocks.size() &&
               t.start + static_cast<Picoseconds>(keep) * cfg_.cycle < head)
            ++keep;
    }
    if (keep < t.blocks.size())
        untrain(l, t, keep);
}

void
CycleFabric::untrain(Link &l, Train &t, std::size_t keep)
{
    // Give blocks [keep, end) back to the head of the mux in order
    // (memory blocks with their availability stamps), then move the
    // pump's next slot and pending emit to the cut.
    const std::size_t back = t.blocks.size() - keep;
    noteTrainEvent(trace::EventType::TrainTrim, l.node, t.kind, back);
    if (t.kind == Train::Kind::Memory) {
        l.mux->restoreMemoryRun(t.blocks.data() + keep,
                                t.avails.data() + keep, back);
        t.avails.resize(keep);
    } else {
        l.mux->restoreFrameRun(t.blocks.data() + keep, back);
    }
    t.blocks.resize(keep);
    TxPump &p = l.pump;
    p.next_slot = t.start + static_cast<Picoseconds>(keep) * cfg_.cycle;
    if (p.emit_ev != kInvalidEvent) {
        p.emit_at = std::max(sim_.now(), p.next_slot);
        sim_.events().reschedule(p.emit_ev, p.emit_at);
    }
}

void
CycleFabric::abortUplinkTrain(Link &l)
{
    // Only the newest train can still be mid-emission: trains earlier in
    // the FIFO finished their slots before this one started. Its blocks
    // not yet on the wire go back to the head of the mux, so the
    // per-block path re-emits them under the fault model.
    TxPump &p = l.pump;
    if (p.trains.empty())
        return;
    Train &t = p.trains.back();
    const std::size_t keep = committedSlots(t);
    if (keep < t.blocks.size())
        untrain(l, t, keep);
}

void
CycleFabric::read(NodeId from, NodeId to, std::uint64_t addr, Bytes len,
                  ReadCallback cb)
{
    host(from).postRead(
        to, addr, len,
        [this, cb = std::move(cb)](std::vector<std::uint8_t> data,
                                   Picoseconds latency, bool timed_out) {
            if (!timed_out)
                read_lat_.add(toNs(latency));
            if (cb)
                cb(std::move(data), latency, timed_out);
        });
}

void
CycleFabric::write(NodeId from, NodeId to, std::uint64_t addr,
                   std::vector<std::uint8_t> data, WriteCallback cb)
{
    host(from).postWrite(
        to, addr, std::move(data),
        [this, cb = std::move(cb)](Picoseconds latency) {
            write_lat_.add(toNs(latency));
            if (cb)
                cb(latency);
        });
}

void
CycleFabric::rmw(NodeId from, NodeId to, std::uint64_t addr, mem::RmwOp op,
                 std::uint64_t arg0, std::uint64_t arg1, RmwCallback cb)
{
    host(from).postRmw(
        to, addr, op, arg0, arg1,
        [this, cb = std::move(cb)](mem::RmwResult result,
                                   Picoseconds latency) {
            rmw_lat_.add(toNs(latency));
            if (cb)
                cb(result, latency);
        });
}

void
CycleFabric::corruptUplink(NodeId src, int blocks)
{
    EDM_ASSERT(src < cfg_.num_nodes, "node %u out of range", src);
    links_[src].health.corrupt_next += blocks;
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::FaultInject, sim_.now(), src, src, 0, 0,
                 false, trace::Detail::None,
                 static_cast<std::uint64_t>(blocks));
    // Corruption must land on the blocks that have not yet left the
    // transmitter, including any already committed to an in-flight
    // train: pull those back so the per-block path re-emits them.
    abortUplinkTrain(links_[src]);
}

void
CycleFabric::repairUplink(NodeId src)
{
    EDM_ASSERT(src < cfg_.num_nodes, "node %u out of range", src);
    LinkHealth &health = links_[src].health;
    if (!health.disabled && health.corrupt_next == 0 && health.errors == 0)
        return;
    const bool was_disabled = health.disabled;
    health.disabled = false;
    health.errors = 0;
    // A disabled link stops consuming its corruption budget (blocks are
    // dropped before the corruption check), and a saturating injection
    // such as ReplicatedFabric::failNetwork leaves it effectively
    // infinite — repairing the physical medium clears it outright.
    health.corrupt_next = 0;
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::FaultRecover, sim_.now(), src, src, 0, 0,
                 false, trace::Detail::LinkRepaired, 0);
    if (was_disabled)
        hosts_[src]->onUplinkRepaired();
    if (link_health_hook_)
        link_health_hook_(src, LinkEvent::Repaired, 0);
    // Restart the pump: queued work parked behind the dead link (or new
    // work admitted by the reopened gate) flows again from this instant.
    pump(links_[src]);
}

CycleFabric::GrantAccounting
CycleFabric::grantAccounting() const
{
    GrantAccounting acc;
    for (const auto &h : hosts_) {
        const HostStats &st = h->stats();
        acc.unknown_grants += st.unknown_grants;
        acc.grants_parked += st.grants_parked;
        acc.stale_response_grants += st.stale_response_grants;
        acc.parked_grants_dropped += st.parked_grants_dropped;
    }
    acc.wasted_grant_slots = acc.unknown_grants + acc.stale_response_grants;
    for (const auto &sw : switches_) {
        const LedgerStats &ls = sw->scheduler().ledgerStats();
        acc.ledger.chunks_observed += ls.chunks_observed;
        acc.ledger.retired_by_completion += ls.retired_by_completion;
        acc.ledger.retired_by_abort += ls.retired_by_abort;
        acc.ledger.grants_suppressed += ls.grants_suppressed;
        acc.ledger.stale_bytes_reclaimed += ls.stale_bytes_reclaimed;
        acc.ledger.entries_evicted += ls.entries_evicted;
    }
    return acc;
}

std::uint64_t
CycleFabric::totalGrantsIssued() const
{
    std::uint64_t total = 0;
    for (const auto &sw : switches_)
        total += sw->scheduler().grantsIssued();
    return total;
}

std::size_t
CycleFabric::totalPendingLedgerEntries() const
{
    std::size_t total = 0;
    for (const auto &sw : switches_)
        total += sw->scheduler().pendingLedgerEntries();
    return total;
}

std::size_t
CycleFabric::peakEgressStaging() const
{
    std::size_t peak = 0;
    for (const auto &sw : switches_)
        peak = std::max(peak, sw->peakEgressStaging());
    return peak;
}

std::uint64_t
CycleFabric::linkErrors(NodeId src) const
{
    EDM_ASSERT(src < cfg_.num_nodes, "node %u out of range", src);
    return links_[src].health.errors;
}

bool
CycleFabric::linkDisabled(NodeId src) const
{
    EDM_ASSERT(src < cfg_.num_nodes, "node %u out of range", src);
    return links_[src].health.disabled;
}

void
CycleFabric::injectFrame(NodeId src, const std::vector<std::uint8_t> &frame)
{
    EDM_ASSERT(src < cfg_.num_nodes, "node %u out of range", src);
    const auto blocks = phy::encodeFrame(frame);
    frame_backlog_[src].append(blocks.data(), blocks.size());
    pump(links_[src]);
}

} // namespace core
} // namespace edm

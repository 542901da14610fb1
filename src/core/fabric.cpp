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
      host_pumps_(cfg.num_nodes), switch_pumps_(cfg.num_nodes),
      frame_backlog_(cfg.num_nodes), uplink_health_(cfg.num_nodes)
{
    EDM_ASSERT(cfg_.num_nodes >= 2, "fabric needs at least two nodes");

    auto is_memory = [&](NodeId id) {
        return memory_nodes.empty() ||
            std::find(memory_nodes.begin(), memory_nodes.end(), id) !=
                memory_nodes.end();
    };

    hosts_.reserve(cfg_.num_nodes);
    for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
        hosts_.push_back(std::make_unique<HostStack>(
            i, cfg_, sim_.events(), is_memory(i),
            [this, i] { pumpHost(i); }));
    }
    switches_.reserve(topo_.numLeaves());
    for (std::uint16_t l = 0; l < topo_.numLeaves(); ++l) {
        switches_.push_back(std::make_unique<SwitchStack>(
            cfg_, sim_.events(),
            [this](NodeId port) { pumpSwitchPort(port); },
            topo_.isSingle() ? nullptr : &topo_, l));
    }
    if (!topo_.isSingle())
        installTrunkHooks();

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
        for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
            hosts_[i]->mux().attachTrace(cfg_.event_log, i);
            leafSw(i).egressMux(i).attachTrace(cfg_.event_log, i);
        }
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

void
CycleFabric::installTrunkHooks()
{
    // Every hook fires on the *source* leaf at decision time; the action
    // lands on the destination leaf exactly one trunk traversal (plus
    // the source switch's local processing) later. The spine itself is
    // contention-free transport — trunk *contention* is modeled by the
    // scheduler shards' ECMP-lane busy timers — so the traversal is a
    // fixed latency and the hooks carry no queueing state.
    const Picoseconds T = trunkLatency();
    for (std::uint16_t l = 0; l < topo_.numLeaves(); ++l) {
        SwitchStack::TrunkHooks hooks;
        hooks.route_grant = [this, T](NodeId target,
                                      const phy::PhyBlock &grant,
                                      Picoseconds local) {
            sim_.events().schedule(
                sim_.now() + local + T, [this, target, grant] {
                    leafSw(target).deliverGrant(target, grant);
                });
        };
        hooks.route_request = [this, T](NodeId target,
                                        const MemMessage &request,
                                        Picoseconds local) {
            sim_.events().schedule(
                sim_.now() + local + T, [this, target, request] {
                    leafSw(target).acceptForwardedRequest(target, request);
                });
        };
        hooks.route_block = [this, T](NodeId egress, NodeId ingress,
                                      std::uint64_t seq,
                                      const phy::PhyBlock &block,
                                      Picoseconds local) {
            sim_.events().schedule(
                sim_.now() + local + T,
                [this, egress, ingress, seq, block] {
                    leafSw(egress).acceptTrunkBlock(egress, ingress, seq,
                                                    block);
                });
        };
        hooks.route_run = [this, T](NodeId egress, NodeId ingress,
                                    std::uint64_t seq,
                                    std::vector<phy::PhyBlock> blocks,
                                    Picoseconds first_avail,
                                    Picoseconds stride) {
            // first_avail already includes the source switch's forward
            // latency; the whole availability ladder shifts by T.
            const Picoseconds arrive = first_avail + T;
            sim_.events().schedule(
                arrive, [this, egress, ingress, seq,
                         blocks = std::move(blocks), arrive, stride] {
                    leafSw(egress).acceptTrunkRun(egress, ingress, seq,
                                                  blocks, arrive, stride);
                });
        };
        hooks.route_notify = [this, T](const ControlInfo &notify,
                                       Picoseconds local) {
            sim_.events().schedule(sim_.now() + local + T, [this, notify] {
                leafSw(notify.dst).scheduler().addWriteDemand(notify);
            });
        };
        hooks.route_chunk_note = [this, T](NodeId src, NodeId dst,
                                           MsgId id, bool response,
                                           Bytes bytes, bool last_chunk) {
            sim_.events().schedule(
                sim_.now() + T,
                [this, src, dst, id, response, bytes, last_chunk] {
                    leafSw(dst).scheduler().onChunkForwarded(
                        src, dst, id, response, bytes, last_chunk);
                });
        };
        hooks.route_flood = [this, l, T](std::vector<phy::PhyBlock> frame,
                                         Picoseconds local) {
            const Picoseconds at = sim_.now() + local + T;
            for (std::uint16_t dl = 0; dl < topo_.numLeaves(); ++dl) {
                if (dl == l)
                    continue;
                sim_.events().schedule(at, [this, dl, frame] {
                    switches_[dl]->acceptTrunkFlood(frame);
                });
            }
        };
        switches_[l]->setTrunkHooks(std::move(hooks));

        // Shard-coordination notes (remote src busy / remote dst busy /
        // lane release, plus the granted flow's fair-share pool id and
        // line-time charge) ride the same trunk at the same fixed
        // latency.
        switches_[l]->scheduler().setRemoteNoteSink(
            [this, T](std::uint16_t leaf, NodeId port, std::size_t lane,
                      Picoseconds release, bool dst_side, int pool,
                      Picoseconds charge) {
                sim_.events().schedule(
                    sim_.now() + T, [this, leaf, port, lane, release,
                                     dst_side, pool, charge] {
                        Scheduler &sch = switches_[leaf]->scheduler();
                        if (dst_side)
                            sch.noteRemoteForward(port, lane, release);
                        else
                            sch.noteRemoteGrant(port, lane, release);
                        if (charge > 0)
                            sch.noteRemotePoolCharge(pool, charge);
                    });
            });
    }
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
CycleFabric::commitTrain(TxPump &p, Train t, std::size_t run,
                         Picoseconds now, EventQueue::Callback deliver,
                         EventQueue::Callback emit)
{
    EventQueue &q = sim_.events();
    t.start = now;
    // Same call order as the per-block path (delivery first, then
    // emit): same-instant sequence numbers depend on it.
    q.schedule(now + cfg_.cycle + hopLatency(), std::move(deliver));
    EDM_ASSERT(p.trains.size() < kMaxTrainsInFlight,
               "more than %zu trains in flight on one pump",
               kMaxTrainsInFlight);
    p.trains.push_back(std::move(t));
    p.next_slot = now + static_cast<Picoseconds>(run) * cfg_.cycle;
    p.emit_at = now + static_cast<Picoseconds>(run - 1) * cfg_.cycle;
    p.emit_ev = q.schedule(p.emit_at, std::move(emit));
}

void
CycleFabric::topUpFrames(phy::PreemptionMux &mux,
                         common::Ring<phy::PhyBlock> &backlog)
{
    // Models the MAC reacting to freed staging-buffer space (costs no
    // time). The per-slot path, the train refill hook and the switch
    // egress all share this exact rule — the train path's timing
    // equivalence depends on them never diverging.
    while (!backlog.empty() && mux.frameSpace()) {
        mux.offerFrameBlock(backlog.front());
        backlog.pop_front();
    }
}

std::size_t
CycleFabric::takeFrameTrain(phy::PreemptionMux &mux,
                            common::Ring<phy::PhyBlock> &backlog,
                            Picoseconds now, Train &t)
{
    // The staging buffer holds at most 4 blocks; the refill hook tops it
    // up from the backlog between runs exactly as the per-slot path
    // would have.
    t.kind = Train::Kind::Frame;
    return mux.takeFrameTrainRun(now, cfg_.cycle, frame_train_cap_, 2,
                                 [&mux, &backlog] {
                                     topUpFrames(mux, backlog);
                                 },
                                 t.blocks);
}

// ---------------------------------------------------------------------------
// TX pumps
//
// Each pump owns one emit event. While blocks flow it self-reschedules
// every cycle (or every train); when queued work is still in flight
// upstream it parks at the head block's availability; with nothing
// queued it deactivates and pumpWake restarts it, exactly like the
// original activate-on-work design.
// ---------------------------------------------------------------------------

void
CycleFabric::pumpWake(TxPump &p, Picoseconds ready,
                      EventQueue::Callback emit)
{
    EventQueue &q = sim_.events();
    Picoseconds start = std::max(q.now(), p.next_slot);
    if (ready > start)
        start = ready;
    if (!p.active) {
        p.active = true;
        p.emit_at = start;
        p.emit_ev = q.schedule(start, std::move(emit));
    } else if (p.emit_ev != kInvalidEvent && start < p.emit_at) {
        // Parked waiting on in-flight blocks, but fresher work (e.g. a
        // grant) is emittable sooner. Rescheduling re-sequences the
        // event, just as a fresh activation would have.
        q.reschedule(p.emit_ev, start);
        p.emit_at = start;
    }
}

void
CycleFabric::pumpHost(NodeId id)
{
    trimUplinkTrain(id);
    const Picoseconds ready = frame_backlog_[id].empty()
        ? hosts_[id]->mux().readyAt(sim_.now())
        : sim_.now();
    if (ready == phy::PreemptionMux::kNever)
        return;
    pumpWake(host_pumps_[id], ready, [this, id] { emitHost(id); });
}

void
CycleFabric::emitHost(NodeId id)
{
    TxPump &p = host_pumps_[id];
    auto &mux = hosts_[id]->mux();
    EventQueue &q = sim_.events();
    p.emit_ev = kInvalidEvent;

    // Top up the mux's bounded frame staging buffer from the backlog.
    auto &backlog = frame_backlog_[id];
    topUpFrames(mux, backlog);

    const Picoseconds now = q.now();
    if (now < p.next_slot) {
        // Train-continuation sentinel: it fires at the train's *last*
        // slot so that the next real emit is sequenced here — exactly
        // where baseline's per-slot chain would have scheduled it —
        // keeping same-timestamp ordering against enqueue events.
        p.emit_at = p.next_slot;
        p.emit_ev = q.schedule(p.next_slot,
                               [this, id] { emitHost(id); });
        return;
    }
    const Picoseconds ready = mux.readyAt(now);
    if (ready == phy::PreemptionMux::kNever) {
        p.active = false;
        return;
    }
    if (ready > now) {
        // Queued blocks are still in flight upstream: park until the
        // head becomes emittable.
        p.emit_at = std::max(ready, p.next_slot);
        p.emit_ev = q.schedule(p.emit_at,
                               [this, id] { emitHost(id); });
        return;
    }

    LinkHealth &health = uplink_health_[id];

    // Train path: mid-message the mux is committed to the memory stream,
    // so a run of ready data blocks can leave back-to-back as one unit —
    // no mux refill, preemption decision or backlog top-up can claim any
    // of its slots. Fault injection falls back to per-block emission
    // (and aborts in-flight trains) so corruption lands on exactly the
    // blocks it would have.
    const bool trains_ok = health.corrupt_next == 0 && !health.disabled;
    if (train_cap_ > 1 && trains_ok) {
        Train t = acquireTrain();
        const std::size_t run = mux.takeTrainRun(now, cfg_.cycle,
                                                 train_cap_, 2, t.blocks,
                                                 t.avails);
        if (run >= 2) {
            noteTrainEvent(trace::EventType::TrainEmit, id, t.kind, run);
            commitTrain(p, std::move(t), run, now,
                        [this, id] { deliverHostTrain(id); },
                        [this, id] { emitHost(id); });
            return;
        }
        releaseTrain(std::move(t));
    }

    // Frame-train path: outside a memory message, a run of staged L2
    // blocks can leave back-to-back while the memory queue sleeps past
    // their slots (memory preempts a frame the instant its head becomes
    // available, so a memory arrival mid-train trims the tail —
    // trimUplinkTrain). Gated off inside memory messages so a train
    // never carries frame blocks the receive side would classify by
    // /MS/../MT/ state, and skipped outright when no frame work is
    // queued (memory-only traffic must not pay for the attempt).
    if (frame_train_cap_ > 1 && trains_ok && !mux.midMemoryMessage() &&
        (mux.frameBacklog() > 0 || !backlog.empty())) {
        Train t = acquireTrain();
        const std::size_t run = takeFrameTrain(mux, backlog, now, t);
        if (run >= 2) {
            noteTrainEvent(trace::EventType::TrainEmit, id, t.kind, run);
            commitTrain(p, std::move(t), run, now,
                        [this, id] { deliverHostTrain(id); },
                        [this, id] { emitHost(id); });
            return;
        }
        releaseTrain(std::move(t));
    }

    const phy::PhyBlock block = mux.next(now);
    p.next_slot = now + cfg_.cycle;

    // Fault handling (§3.3): a damaged link corrupts blocks; the
    // scrambler-side monitor detects them and, past the threshold, EDM
    // disables the link rather than retransmitting (the errors are not
    // transient). Corrupt or disabled-link blocks never reach the switch.
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
        q.schedule(now + cfg_.cycle + hopLatency(), [this, id, block] {
            leafSw(id).rxBlock(id, block);
        });
    }

    p.emit_at = p.next_slot;
    p.emit_ev = q.schedule(p.next_slot,
                           [this, id] { emitHost(id); });
}

void
CycleFabric::deliverHostTrain(NodeId id)
{
    TxPump &p = host_pumps_[id];
    EDM_ASSERT(!p.trains.empty(), "train delivery without a train");
    Train t = std::move(p.trains.front());
    p.trains.pop_front();
    // now() is the first block's arrival; later blocks arrive (and are
    // timestamped) one serialization slot apart.
    if (t.kind == Train::Kind::Memory)
        leafSw(id).rxBlockTrain(id, t.blocks.data(), t.blocks.size(),
                                sim_.now(), cfg_.cycle);
    else
        leafSw(id).rxFrameTrain(id, t.blocks.data(), t.blocks.size());
    releaseTrain(std::move(t));
}

void
CycleFabric::abortUplinkTrain(NodeId id)
{
    TxPump &p = host_pumps_[id];
    const Picoseconds now = sim_.now();
    if (p.trains.empty())
        return;
    // Only the newest train can still be mid-emission: trains earlier in
    // the FIFO finished their slots before this one started.
    Train &t = p.trains.back();
    const auto len = static_cast<Picoseconds>(t.blocks.size());
    if (now > t.start + (len - 1) * cfg_.cycle)
        return; // every block already left the transmitter

    // Blocks whose emission slot has passed (slot <= now: the emit ran
    // before this abort in event order) stay committed; the rest go back
    // to the head of the mux so the per-block path re-emits them under
    // the fault model.
    const auto committed = std::min<std::size_t>(
        static_cast<std::size_t>((now - t.start) / cfg_.cycle) + 1,
        t.blocks.size());
    if (committed < t.blocks.size())
        noteTrainEvent(trace::EventType::TrainTrim, id, t.kind,
                       t.blocks.size() - committed);
    if (t.kind == Train::Kind::Memory) {
        hosts_[id]->mux().restoreMemoryRun(t.blocks.data() + committed,
                                           t.avails.data() + committed,
                                           t.blocks.size() - committed);
        t.avails.resize(committed);
    } else {
        hosts_[id]->mux().restoreFrameRun(t.blocks.data() + committed,
                                          t.blocks.size() - committed);
    }
    // committed >= 1 always: the emit event that formed the train ran
    // at t.start before any same-instant abort, so the delivery event
    // survives with a non-empty prefix.
    t.blocks.resize(committed);
    p.next_slot = t.start +
        static_cast<Picoseconds>(committed) * cfg_.cycle;
    if (p.emit_ev != kInvalidEvent) {
        p.emit_at = std::max(now, p.next_slot);
        sim_.events().reschedule(p.emit_ev, p.emit_at);
    }
}

void
CycleFabric::trimFrameTrain(NodeId port, TxPump &p, Train &t,
                            phy::PreemptionMux &mux)
{
    // A frame train committed slots on the bet that the memory queue
    // sleeps past them; a memory block that has just arrived (or been
    // made available) claims every slot its availability reaches —
    // after a frame slot the mux always prefers eligible memory — so
    // the overtaken tail un-commits and returns to the staging head.
    const Picoseconds now = sim_.now();
    const auto len = static_cast<Picoseconds>(t.blocks.size());
    // Strict >: a memory block landing exactly on the *last* slot still
    // wins it (same tie rule as mid-train, below) — only past the last
    // slot is every block irrevocably on the wire.
    if (now > t.start + (len - 1) * cfg_.cycle)
        return;
    const Picoseconds head = mux.headAvail();
    if (head == phy::PreemptionMux::kNever)
        return;
    // Slots strictly before now are gone. A slot exactly at now is the
    // tie case: every memory enqueue event is scheduled at least one
    // full cycle ahead, so in the per-block engine it runs before the
    // slot's emit event and wins the slot — except at the train's own
    // start, where the forming emit demonstrably ran first.
    const Picoseconds delta = now - t.start;
    std::size_t emitted;
    if (delta == 0)
        emitted = 1;
    else
        emitted = static_cast<std::size_t>(delta / cfg_.cycle) +
            (delta % cfg_.cycle != 0 ? 1 : 0);
    std::size_t keep = emitted;
    while (keep < t.blocks.size() &&
           t.start + static_cast<Picoseconds>(keep) * cfg_.cycle < head)
        ++keep;
    if (keep >= t.blocks.size())
        return;
    noteTrainEvent(trace::EventType::TrainTrim, port, t.kind,
                   t.blocks.size() - keep);
    mux.restoreFrameRun(t.blocks.data() + keep, t.blocks.size() - keep);
    t.blocks.resize(keep);
    p.next_slot = t.start + static_cast<Picoseconds>(keep) * cfg_.cycle;
    if (p.emit_ev != kInvalidEvent) {
        p.emit_at = std::max(now, p.next_slot);
        sim_.events().reschedule(p.emit_ev, p.emit_at);
    }
}

void
CycleFabric::trimUplinkTrain(NodeId id)
{
    // Host-side memory trains need no trim: every host mux enqueue is
    // stamped with its event time, so the availability-sorted queue
    // never lets fresh work overtake an in-flight train. Frame trains
    // do: a memory arrival preempts their remaining slots.
    TxPump &p = host_pumps_[id];
    if (p.trains.empty())
        return;
    Train &t = p.trains.back();
    if (t.kind != Train::Kind::Frame)
        return;
    trimFrameTrain(id, p, t, hosts_[id]->mux());
}

void
CycleFabric::trimEgressTrain(NodeId port)
{
    // An egress train may commit blocks that are still in flight from
    // the ingress (available by their slot, not yet at formation time).
    // A block enqueued meanwhile with an earlier availability — a grant
    // /G/ is the canonical case — would have gone on the wire *before*
    // those, so the overtaken tail un-commits and re-queues behind it.
    TxPump &p = switch_pumps_[port];
    const Picoseconds now = sim_.now();
    if (p.trains.empty())
        return;
    Train &t = p.trains.back();
    auto &mux = leafSw(port).egressMux(port);
    if (t.kind == Train::Kind::Frame) {
        trimFrameTrain(port, p, t, mux);
        return;
    }
    const auto len = static_cast<Picoseconds>(t.blocks.size());
    if (now > t.start + (len - 1) * cfg_.cycle)
        return; // every block already on the wire
    const Picoseconds head = mux.headAvail();
    if (head == phy::PreemptionMux::kNever)
        return;
    const auto committed = static_cast<std::size_t>(
        (now - t.start) / cfg_.cycle) + 1;
    std::size_t keep = committed;
    while (keep < t.blocks.size() && t.avails[keep] <= head)
        ++keep;
    if (keep >= t.blocks.size())
        return;
    noteTrainEvent(trace::EventType::TrainTrim, port, t.kind,
                   t.blocks.size() - keep);
    mux.restoreMemoryRun(t.blocks.data() + keep, t.avails.data() + keep,
                         t.blocks.size() - keep);
    t.blocks.resize(keep);
    t.avails.resize(keep);
    p.next_slot = t.start + static_cast<Picoseconds>(keep) * cfg_.cycle;
    if (p.emit_ev != kInvalidEvent) {
        p.emit_at = std::max(now, p.next_slot);
        sim_.events().reschedule(p.emit_ev, p.emit_at);
    }
}

void
CycleFabric::pumpSwitchPort(NodeId port)
{
    trimEgressTrain(port);
    const Picoseconds ready = leafSw(port).egressFrameBacklog(port).empty()
        ? leafSw(port).egressMux(port).readyAt(sim_.now())
        : sim_.now();
    if (ready == phy::PreemptionMux::kNever)
        return;
    pumpWake(switch_pumps_[port], ready,
             [this, port] { emitSwitchPort(port); });
}

void
CycleFabric::emitSwitchPort(NodeId port)
{
    TxPump &p = switch_pumps_[port];
    auto &mux = leafSw(port).egressMux(port);
    EventQueue &q = sim_.events();
    p.emit_ev = kInvalidEvent;

    // Top up the bounded frame staging buffer from the L2 backlog.
    auto &backlog = leafSw(port).egressFrameBacklog(port);
    topUpFrames(mux, backlog);

    const Picoseconds now = q.now();
    if (now < p.next_slot) {
        // Train-continuation sentinel (see emitHost).
        p.emit_at = p.next_slot;
        p.emit_ev = q.schedule(
            p.next_slot, [this, port] { emitSwitchPort(port); });
        return;
    }
    const Picoseconds ready = mux.readyAt(now);
    if (ready == phy::PreemptionMux::kNever) {
        p.active = false;
        return;
    }
    if (ready > now) {
        p.emit_at = std::max(ready, p.next_slot);
        p.emit_ev = q.schedule(
            p.emit_at, [this, port] { emitSwitchPort(port); });
        return;
    }

    // Train path (downlinks have no fault model). Only already-available
    // blocks join a train: a cut-through stream is delivered to this mux
    // ahead of time with future availability stamps, and a grant /G/ may
    // still lawfully slot in between those future blocks.
    if (train_cap_ > 1) {
        Train t = acquireTrain();
        const std::size_t run = mux.takeTrainRun(now, cfg_.cycle,
                                                 train_cap_, 2, t.blocks,
                                                 t.avails);
        if (run >= 2) {
            noteTrainEvent(trace::EventType::TrainEmit, port, t.kind, run);
            commitTrain(p, std::move(t), run, now,
                        [this, port] { deliverSwitchTrain(port); },
                        [this, port] { emitSwitchPort(port); });
            return;
        }
        releaseTrain(std::move(t));
    }

    // Frame-train path (see emitHost): flooded L2 bursts leave
    // back-to-back while no queued memory block can claim a slot; a
    // memory enqueue mid-train trims the overtaken tail
    // (trimEgressTrain dispatches to trimFrameTrain).
    if (frame_train_cap_ > 1 && !mux.midMemoryMessage() &&
        (mux.frameBacklog() > 0 || !backlog.empty())) {
        Train t = acquireTrain();
        const std::size_t run = takeFrameTrain(mux, backlog, now, t);
        if (run >= 2) {
            noteTrainEvent(trace::EventType::TrainEmit, port, t.kind, run);
            commitTrain(p, std::move(t), run, now,
                        [this, port] { deliverSwitchTrain(port); },
                        [this, port] { emitSwitchPort(port); });
            return;
        }
        releaseTrain(std::move(t));
    }

    const phy::PhyBlock block = mux.next(now);
    p.next_slot = now + cfg_.cycle;

    q.schedule(now + cfg_.cycle + hopLatency(), [this, port, block] {
        hosts_[port]->rxBlock(block);
    });

    p.emit_at = p.next_slot;
    p.emit_ev = q.schedule(p.next_slot, [this, port] {
        emitSwitchPort(port);
    });
}

void
CycleFabric::deliverSwitchTrain(NodeId port)
{
    TxPump &p = switch_pumps_[port];
    EDM_ASSERT(!p.trains.empty(), "train delivery without a train");
    Train t = std::move(p.trains.front());
    p.trains.pop_front();
    if (t.kind == Train::Kind::Memory)
        hosts_[port]->rxBlockTrain(t.blocks.data(), t.blocks.size());
    else
        hosts_[port]->rxFrameTrain(t.blocks.data(), t.blocks.size());
    releaseTrain(std::move(t));
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
    EDM_ASSERT(src < uplink_health_.size(), "node %u out of range", src);
    uplink_health_[src].corrupt_next += blocks;
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::FaultInject, sim_.now(), src, src, 0, 0,
                 false, trace::Detail::None,
                 static_cast<std::uint64_t>(blocks));
    // Corruption must land on the blocks that have not yet left the
    // transmitter, including any already committed to an in-flight
    // train: pull those back so the per-block path re-emits them.
    abortUplinkTrain(src);
}

void
CycleFabric::repairUplink(NodeId src)
{
    EDM_ASSERT(src < uplink_health_.size(), "node %u out of range", src);
    LinkHealth &health = uplink_health_[src];
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
    pumpHost(src);
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
    return uplink_health_.at(src).errors;
}

bool
CycleFabric::linkDisabled(NodeId src) const
{
    return uplink_health_.at(src).disabled;
}

void
CycleFabric::injectFrame(NodeId src, const std::vector<std::uint8_t> &frame)
{
    const auto blocks = phy::encodeFrame(frame);
    frame_backlog_[src].append(blocks.data(), blocks.size());
    pumpHost(src);
}

} // namespace core
} // namespace edm

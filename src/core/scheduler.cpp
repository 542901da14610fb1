#include "scheduler.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"
#include "core/occupancy.hpp"
#include "net/topology.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace core {

Scheduler::Scheduler(const EdmConfig &cfg, EventQueue &events,
                     GrantSink sink, const net::Topology *topo,
                     std::uint16_t leaf)
    : cfg_(cfg), events_(events), sink_(std::move(sink)), topo_(topo),
      leaf_(leaf), dst_hi_(static_cast<NodeId>(cfg.num_nodes)),
      src_busy_(cfg.num_nodes, false), dst_busy_(cfg.num_nodes, false),
      pairs_(cfg.num_nodes * cfg.num_nodes),
      words_((cfg.num_nodes + 63) / 64),
      pair_dsts_(cfg.num_nodes * words_, 0), rescan_(words_, 0),
      winner_of_src_(cfg.num_nodes, -1)
{
    EDM_ASSERT(sink_, "scheduler needs a grant sink");
    const std::size_t cap =
        static_cast<std::size_t>(cfg_.max_notifications) * cfg_.num_nodes;
    queues_.reserve(cfg_.num_nodes);
    for (std::size_t i = 0; i < cfg_.num_nodes; ++i)
        queues_.push_back(std::make_unique<Queue>(cap));
    if (topo_) {
        const auto [lo, hi] = topo_->hostsOfLeaf(leaf_);
        dst_lo_ = lo;
        dst_hi_ = hi;
        remote_src_busy_until_.assign(cfg_.num_nodes, 0);
        remote_dst_busy_until_.assign(cfg_.num_nodes, 0);
        lane_busy_until_[0].assign(topo_->trunkWidth(), 0);
        lane_busy_until_[1].assign(topo_->trunkWidth(), 0);
    }
    if (cfg_.fair_share)
        fair_tree_ = std::make_unique<FairShareTree>(cfg_);
}

int
Scheduler::poolOfKey(const FlowKey &key) const
{
    if (!fair_tree_)
        return -1;
    // The tenant of a flow is its *client* host: the writer for WREQ
    // data (the sender), the reader for RRES data (the receiver).
    return fair_tree_->poolOf(key.response ? key.dst : key.src);
}

void
Scheduler::releaseLedgerBacklog(const FlowKey &key, const LedgerEntry &e)
{
    if (!fair_tree_)
        return;
    if (e.demanded > e.granted)
        fair_tree_->releaseDemand(poolOfKey(key), e.demanded - e.granted);
}

void
Scheduler::refreshPoolShares()
{
    share_changes_.clear();
    fair_tree_->recomputeShares(share_changes_);
    if (auto *log = cfg_.event_log) {
        for (const auto &ch : share_changes_)
            log->log(trace::EventType::PoolShareComputed, events_.now(),
                     0, 0, 0, 0, false, trace::Detail::None,
                     ch.share_ppm, leaf_, 0, auxOf(ch.pool));
    }
}

bool
Scheduler::isCrossLeaf(const Demand &d) const
{
    return topo_ && topo_->leafOf(d.src) != leaf_;
}

void
Scheduler::raiseBusyUntil(std::vector<Picoseconds> &table,
                          std::size_t idx, Picoseconds release)
{
    if (release <= table[idx])
        return;
    table[idx] = release;
    if (release <= events_.now())
        return;
    events_.schedule(release, [this, &table, idx, release] {
        // Only the note that set the current horizon wakes the matcher;
        // superseded releases would re-match against a still-busy view.
        // A lapsed remote or lane reservation can free demands in any
        // queue, so every port is rescanned.
        if (table[idx] == release) {
            markAllPorts();
            scheduleMatching();
        }
    });
}

void
Scheduler::markPairDsts(NodeId src)
{
    const std::uint64_t *dsts = &pair_dsts_[src * words_];
    for (std::size_t w = 0; w < words_; ++w)
        rescan_[w] |= dsts[w];
}

void
Scheduler::markAllPorts()
{
    std::fill(rescan_.begin(), rescan_.end(), ~std::uint64_t{0});
}

void
Scheduler::noteRemoteGrant(NodeId src, std::size_t lane,
                           Picoseconds release, int pool,
                           Picoseconds charge)
{
    EDM_ASSERT(topo_, "remote notes need a sharded scheduler");
    raiseBusyUntil(remote_src_busy_until_, src, release);
    raiseBusyUntil(lane_busy_until_[0], lane, release);
    if (fair_tree_ && pool >= 0)
        fair_tree_->chargeRemote(pool, charge, events_.now());
}

void
Scheduler::noteRemoteForward(NodeId dst, std::size_t lane,
                             Picoseconds release)
{
    EDM_ASSERT(topo_, "remote notes need a sharded scheduler");
    raiseBusyUntil(remote_dst_busy_until_, dst, release);
    raiseBusyUntil(lane_busy_until_[1], lane, release);
}

void
Scheduler::chargeTier(LinkTier tier, const Demand &d, Picoseconds charge,
                      Picoseconds when)
{
    tier_charged_ps_[static_cast<std::size_t>(tier)] +=
        static_cast<std::uint64_t>(charge);
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::TierCharge, when, d.dst, d.src, d.dst,
                 d.id, d.response, trace::Detail::None,
                 static_cast<std::uint64_t>(charge), leaf_,
                 static_cast<std::uint8_t>(tier));
}

std::int64_t
Scheduler::priorityOf(const Demand &d) const
{
    switch (cfg_.priority) {
      case Priority::Fcfs:
        // Earlier notification = higher priority.
        return -static_cast<std::int64_t>(d.notified);
      case Priority::Srpt:
        // Fewer remaining bytes = higher priority.
        return -static_cast<std::int64_t>(d.remaining);
    }
    return 0;
}

void
Scheduler::openLedgerEntry(const Demand &d)
{
    const FlowKey key = keyOf(d);
    auto [it, inserted] = ledger_.try_emplace(packKey(key));
    if (!inserted) {
        // Message-id reuse before the previous flow retired (a wrapped
        // 8-bit id, or a flow whose completion was never observed). The
        // new demand owns the identity from here on.
        ++ledger_stats_.entries_evicted;
        releaseLedgerBacklog(key, it->second);
        it->second = LedgerEntry{};
    }
    it->second.demanded = d.remaining;
    if (fair_tree_)
        fair_tree_->addDemand(d.pool, d.remaining);
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::LedgerOpen, events_.now(), key.dst,
                 key.src, key.dst, key.id, key.response,
                 inserted ? trace::Detail::None
                          : trace::Detail::EvictedPredecessor,
                 d.remaining, leaf_, 0, auxOf(d.pool));
}

bool
Scheduler::insertDemand(Demand d, const MemMessage *request)
{
    EDM_ASSERT(d.dst < cfg_.num_nodes && d.src < cfg_.num_nodes,
               "demand for unknown port %u->%u", d.src, d.dst);
    Queue &q = *queues_[d.dst];
    // Check capacity before touching the ledger: openLedgerEntry may
    // evict-and-overwrite a live predecessor's entry under a reused id,
    // and unwinding that after a failed insert would leave the older,
    // still-queued flow untracked (issueGrant would then drop it as
    // stale). A full queue drops the demand before it owns anything.
    if (q.full())
        return false;
    if (request)
        d.request = requests_.put(*request);
    if (fair_tree_)
        d.pool = fair_tree_->poolOf(
            static_cast<std::uint16_t>(d.response ? d.dst : d.src));
    const std::int64_t prio = priorityOf(d);
    const NodeId src = d.src;
    const NodeId dst = d.dst;
    const std::uint64_t seq = d.seq;
    openLedgerEntry(d);
    const bool inserted = q.insert(prio, std::move(d));
    EDM_ASSERT(inserted, "insert into a non-full queue failed");
    auto &pair = pairs_[pairIndex(src, dst)];
    if (pair.empty())
        pairDstsWord(src, dst) |= portBit(dst);
    pair.push_back(seq);
    markPort(dst);
    scheduleMatching();
    return true;
}

bool
Scheduler::addWriteDemand(const ControlInfo &notify)
{
    Demand d;
    d.src = notify.src;
    d.dst = notify.dst;
    d.id = notify.id;
    d.remaining = notify.size;
    d.notified = events_.now();
    d.seq = next_seq_++;
    return insertDemand(std::move(d));
}

bool
Scheduler::addReadDemand(const MemMessage &request, Bytes response_bytes)
{
    Demand d;
    // The demand is for the *response*: memory node sends to requester.
    d.src = request.dst;
    d.dst = request.src;
    d.id = request.id;
    d.remaining = response_bytes;
    d.notified = events_.now();
    d.seq = next_seq_++;
    d.response = true;
    return insertDemand(std::move(d), &request);
}

void
Scheduler::releaseRequest(std::uint32_t index)
{
    if (index != kNone)
        requests_.release(index);
}

std::size_t
Scheduler::pendingDemands() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q->size();
    return n;
}

double
Scheduler::avgIterations() const
{
    return matching_passes_ == 0
        ? 0.0
        : static_cast<double>(matching_iterations_) /
            static_cast<double>(matching_passes_);
}

bool
Scheduler::isPairHead(const Demand &d) const
{
    const auto &v = pairs_[pairIndex(d.src, d.dst)];
    return !v.empty() && v.front() == d.seq;
}

void
Scheduler::retirePairEntry(const Demand &d)
{
    auto &v = pairs_[pairIndex(d.src, d.dst)];
    auto pos = std::find(v.begin(), v.end(), d.seq);
    EDM_ASSERT(pos != v.end(), "retiring unknown seq");
    v.erase(pos);
    if (v.empty())
        pairDstsWord(d.src, d.dst) &= ~portBit(d.dst);
    // The pair's next demand may now be its head.
    markPort(d.dst);
}

bool
Scheduler::eligible(const Demand &dem) const
{
    if (src_busy_[dem.src] || !isPairHead(dem))
        return false;
    // A response's first grant is the buffered request itself — a
    // multi-block message delivered on the memory node's *downlink*,
    // which therefore must be free too (unlike single-block /G/ grants,
    // which interleave freely).
    if (dem.request != kNone && dst_busy_[dem.src])
        return false;
    if (topo_) {
        // Sharded eligibility: respect reservations other shards
        // announced, and require the trunk lanes a cross-leaf flow
        // traverses to be free.
        if (remote_src_busy_until_[dem.src] > events_.now())
            return false;
        if (topo_->leafOf(dem.src) != leaf_) {
            const std::size_t lane =
                topo_->ecmpLane(dem.src, dem.dst, dem.id, dem.response);
            // Granted data descends our down lane...
            if (lane_busy_until_[1][lane] > events_.now())
                return false;
            // ...and a request forward first ascends our up lane toward
            // the memory node.
            if (dem.request != kNone &&
                lane_busy_until_[0][lane] > events_.now())
                return false;
        }
    }
    return true;
}

bool
Scheduler::propose(NodeId d, bool &limit_deferred)
{
    if (d < dst_lo_ || d >= dst_hi_ || dst_busy_[d])
        return false;
    if (topo_ && remote_dst_busy_until_[d] > events_.now())
        return false;
    if (!fair_tree_) {
        const auto *entry = queues_[d]->peekIf(
            [this](const Demand &dem) { return eligible(dem); });
        if (!entry)
            return false;
        candidates_.push_back(
            Candidate{d, entry->value.src, entry->value.seq,
                      entry->priority});
        return true;
    }
    // Fair-share pick: the demand of the most deserving pool
    // (latency-sensitive pools bypass, the rest in virtual-time order,
    // limit-capped pools sit out the window). The queue iterates in
    // priority order, so the first entry seen for a pool is that pool's
    // best and ties resolve to the higher legacy priority — keeping the
    // decision a pure function of queue contents and tree state.
    const Queue::Entry *best = nullptr;
    bool best_bypass = false;
    double best_vt = 0.0;
    bool saw_normal = false;
    bool saw_eligible = false;
    queues_[d]->forEach([&](const Queue::Entry &e) {
        const Demand &dem = e.value;
        if (!eligible(dem))
            return;
        saw_eligible = true;
        if (fair_tree_->overLimit(dem.pool, events_.now())) {
            // The pool spent its window: defer, wake at roll.
            limit_deferred = true;
            if (fair_tree_->noteDeferred(dem.pool, events_.now())) {
                if (auto *log = cfg_.event_log)
                    log->log(trace::EventType::GrantDeferredByLimit,
                             events_.now(), d, dem.src, dem.dst, dem.id,
                             dem.response, trace::Detail::None,
                             dem.remaining, leaf_, 0, auxOf(dem.pool));
            }
            return;
        }
        const bool bypass = fair_tree_->latencySensitive(dem.pool);
        if (!bypass)
            saw_normal = true;
        const double vt = fair_tree_->vtime(dem.pool);
        bool better;
        if (!best)
            better = true;
        else if (bypass != best_bypass)
            better = bypass;
        else if (bypass)
            better = false; // first (highest-prio) bypass wins
        else
            better = vt < best_vt; // ties: first seen wins
        if (better) {
            best = &e;
            best_bypass = bypass;
            best_vt = vt;
        }
    });
    if (best) {
        Candidate c{d, best->value.src, best->value.seq, best->priority};
        c.pool = best->value.pool;
        c.bypass = best_bypass;
        c.vt = best_vt;
        c.bypass_decided = best_bypass && saw_normal;
        candidates_.push_back(c);
    }
    // An eligible but over-limit demand keeps the port in the rescan set,
    // so every pass re-notes its deferral exactly as a full scan would.
    return saw_eligible;
}

void
Scheduler::scheduleMatching()
{
    if (matching_scheduled_)
        return;
    matching_scheduled_ = true;
    // Run asynchronously (the matching pipeline iterates continuously in
    // hardware); the switch datapath charges the visible grant latency
    // (PIM iteration + grant generation / forwarding CDC, §3.2.2).
    events_.scheduleAfter(0, [this] { runMatching(); });
}

void
Scheduler::runMatching()
{
    matching_scheduled_ = false;
    ++matching_passes_;

    const Picoseconds iter_cost =
        3 * cfg_.schedulerCycle(); // 3 cycles per PIM iteration (§3.1.2)
    int iteration = 0;
    bool limit_deferred = false;

    for (;;) {
        // Fair share: refresh the water-filled pool shares before each
        // iteration proposes (grants issued last iteration may have
        // drained a pool's backlog and changed the active set).
        if (fair_tree_)
            refreshPoolShares();

        // Phase 1 (request): each free destination port proposes. Only
        // rescan-set ports are visited, in ascending order, and a port
        // leaves the set when it is busy or holds no eligible demand
        // (see the file comment's invariant).
        candidates_.clear();
        for (std::size_t w = dst_lo_ >> 6; w < words_; ++w) {
            for (std::uint64_t bits = rescan_[w]; bits != 0;
                 bits &= bits - 1) {
                const auto d = static_cast<NodeId>(
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
                if (!propose(d, limit_deferred))
                    rescan_[w] &= ~portBit(d);
            }
        }
        if (candidates_.empty())
            break;

        ++iteration;
        ++matching_iterations_;
        // Grants of iteration k issue 3·(k−1) scheduler cycles after the
        // pass starts; the first iteration's visible latency is charged
        // by the switch datapath to avoid double counting.
        const Picoseconds grant_time =
            events_.now() +
            static_cast<Picoseconds>(iteration - 1) * iter_cost;

        // Phase 2 (grant/accept): each source accepts its highest-priority
        // request (the single-cycle priority-encoder step). Under fair
        // share the same bypass-then-virtual-time order decides.
        winners_.clear();
        for (const auto &c : candidates_) {
            std::int32_t &slot = winner_of_src_[c.src];
            if (slot < 0) {
                slot = static_cast<std::int32_t>(winners_.size());
                winners_.push_back(c);
                continue;
            }
            Candidate &w = winners_[static_cast<std::size_t>(slot)];
            if (!fair_tree_) {
                if (c.prio > w.prio)
                    w = c;
                continue;
            }
            bool take;
            if (c.bypass != w.bypass)
                take = c.bypass;
            else if (c.bypass)
                take = c.prio > w.prio;
            else if (c.vt != w.vt)
                take = c.vt < w.vt;
            else
                take = c.prio > w.prio;
            if (take) {
                const bool decided =
                    c.bypass_decided || (c.bypass && !w.bypass);
                w = c;
                w.bypass_decided = decided;
            } else if (w.bypass && !c.bypass) {
                w.bypass_decided = true;
            }
        }

        // Phase 3 (update): issue grants in ascending source order, mark
        // ports busy.
        std::sort(winners_.begin(), winners_.end(),
                  [](const Candidate &a, const Candidate &b) {
                      return a.src < b.src;
                  });
        for (const Candidate &c : winners_) {
            winner_of_src_[c.src] = -1;
            Queue &q = *queues_[c.dst];
            // Extract the demand, grant a chunk, reinsert if unfinished.
            Demand granted{};
            bool found = false;
            q.eraseIf([&](const Demand &dem) {
                if (dem.seq == c.seq) {
                    granted = dem;
                    found = true;
                    return true;
                }
                return false;
            });
            EDM_ASSERT(found, "winner demand vanished from queue");
            const std::uint64_t before = grants_issued_;
            issueGrant(c.dst, granted, grant_time);
            if (c.bypass_decided && grants_issued_ > before) {
                if (auto *log = cfg_.event_log)
                    log->log(trace::EventType::PriorityBypass,
                             grant_time, c.dst, granted.src, granted.dst,
                             granted.id, granted.response,
                             trace::Detail::None, 0, leaf_, 0,
                             auxOf(c.pool));
            }
        }
    }

    // A pool deferred by its limit has demand no port release will
    // re-propose: wake the matcher when the window rolls (stale
    // wake-ups — a later pass moved the horizon — fire as no-ops).
    if (fair_tree_ && limit_deferred) {
        const Picoseconds wake = fair_tree_->windowEnd(events_.now());
        if (limit_wake_at_ != wake) {
            limit_wake_at_ = wake;
            events_.schedule(wake, [this, wake] {
                if (limit_wake_at_ == wake) {
                    limit_wake_at_ = -1;
                    markAllPorts();
                    scheduleMatching();
                }
            });
        }
    }
}

void
Scheduler::issueGrant(NodeId dst_port, Demand &d, Picoseconds when)
{
    const Bytes l = std::min<Bytes>(cfg_.chunk_bytes, d.remaining);
    EDM_ASSERT(l > 0, "granting zero bytes");

    const auto ledger_it = ledger_.find(packKey(keyOf(d)));
    if (ledger_it == ledger_.end()) {
        // The flow retired (final /MT/ observed, or its sender's link
        // died) while this demand was still queued: granting it would
        // put a /G/ on the wire that no host answers and hold both
        // ports busy for l/B for nothing. Drop the demand instead and
        // leave the ports free — the same matching pass can still hand
        // them to a live demand.
        ++ledger_stats_.grants_suppressed;
        ledger_stats_.stale_bytes_reclaimed += d.remaining;
        if (auto *log = cfg_.event_log)
            log->log(trace::EventType::GrantDropped, events_.now(),
                     dst_port, d.src, d.dst, d.id, d.response,
                     trace::Detail::Suppressed, d.remaining, leaf_, 0,
                     auxOf(d.pool));
        releaseRequest(d.request);
        retirePairEntry(d);
        return;
    }
    ledger_it->second.granted += l;
    ++grants_issued_;

    ControlInfo g;
    g.dst = d.dst;
    g.src = d.src;
    g.id = d.id;
    g.size = l;
    g.response = d.response;
    // A response's first grant forwards its buffered request; the
    // delivery event takes over the request's index.
    const std::uint32_t request = d.request;
    d.request = kNone;
    if (request != kNone) {
        // Forwarding the request occupies the memory node's downlink for
        // the request's few blocks; reserve it so the RREQ cannot
        // interleave with a data stream headed to the same port.
        const MemMessage &req = requests_[request];
        const NodeId mem_port = d.src;
        dst_busy_[mem_port] = true;
        events_.schedule(when + requestForwardOccupancy(cfg_, req),
                         [this, mem_port] {
                             dst_busy_[mem_port] = false;
                             markPort(mem_port);
                             markPairDsts(mem_port);
                             scheduleMatching();
                         });
        if (isCrossLeaf(d)) {
            // The forward ascends our up lane toward the spine; the
            // memory node's shard learns of its downlink reservation
            // one trunk traversal later.
            const Picoseconds fwd_release =
                when + requestForwardOccupancy(cfg_, req);
            const std::size_t lane =
                topo_->ecmpLane(d.src, d.dst, d.id, d.response);
            raiseBusyUntil(lane_busy_until_[0], lane, fwd_release);
            events_.scheduleAfter(
                trunk_, [peer = shards_[topo_->leafOf(mem_port)], mem_port,
                         lane, fwd_release] {
                    peer->noteRemoteForward(mem_port, lane, fwd_release);
                });
        }
    }

    src_busy_[d.src] = true;
    dst_busy_[dst_port] = true;

    // Release both ports one chunk occupancy after the grant leaves, so
    // the next chunk's first bit lands right behind this chunk's last
    // bit (§3.1.1 step 7). The payload charge is the raw serialization
    // l/B; wire-charged mode charges the chunk's exact 66-bit block
    // line-time (core/occupancy.hpp), which also covers the /MS/,
    // address and /MT/ framing the payload charge leaves unpaid.
    const Picoseconds occupancy = grantOccupancy(cfg_, d.response, l);
    if (fair_tree_) {
        // Charge the granted data's line-time to the client's pool:
        // advances its virtual time (the fairness currency) and its
        // limit window, and shrinks its backlog by the granted bytes.
        fair_tree_->chargeGrant(d.pool, l, occupancy, events_.now());
    }
    const NodeId src_port = d.src;
    events_.schedule(when + occupancy, [this, src_port, dst_port] {
        src_busy_[src_port] = false;
        dst_busy_[dst_port] = false;
        // Both freed ports can take a demand as destination, and every
        // queue holding a pair from either can now see it eligible (the
        // uplink for its data, the downlink for a request forward).
        markPort(src_port);
        markPort(dst_port);
        markPairDsts(src_port);
        markPairDsts(dst_port);
        scheduleMatching();
    });

    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::GrantIssued, when, dst_port, d.src,
                 d.dst, d.id, d.response,
                 request != kNone ? trace::Detail::RequestForward
                                  : trace::Detail::None,
                 l, leaf_, 0, auxOf(d.pool));

    if (isCrossLeaf(d)) {
        // Granted data descends our down lane; the sender's shard
        // learns of its uplink reservation one trunk traversal later.
        // The note carries the pool id and the data line-time so the
        // remote tree books its tenant's cross-leaf consumption.
        const std::size_t lane =
            topo_->ecmpLane(d.src, d.dst, d.id, d.response);
        const Picoseconds release = when + occupancy;
        raiseBusyUntil(lane_busy_until_[1], lane, release);
        events_.scheduleAfter(
            trunk_, [peer = shards_[topo_->leafOf(d.src)], src = d.src, lane,
                     release, pool = d.pool, occupancy] {
                peer->noteRemoteGrant(src, lane, release, pool, occupancy);
            });
    }
    if (topo_) {
        // Per-tier occupancy accounting (docs/TOPOLOGY.md): edge tiers
        // carry the full grant charge; cross-leaf chunks additionally
        // occupy a trunk lane and the spine for the same line-time.
        chargeTier(LinkTier::LeafIngress, d, occupancy, when);
        if (isCrossLeaf(d)) {
            chargeTier(LinkTier::Trunk, d, occupancy, when);
            chargeTier(LinkTier::Spine, d, occupancy, when);
        }
        chargeTier(LinkTier::LeafEgress, d, occupancy, when);
    }

    d.remaining -= l;
    if (d.remaining > 0) {
        // Reinsert with updated priority (SRPT decreases as we send).
        Queue &q = *queues_[dst_port];
        const bool ok = q.insert(priorityOf(d), std::move(d));
        EDM_ASSERT(ok, "reinsert into queue we just popped from");
    } else {
        retirePairEntry(d);
    }

    auto deliver = [this, g, request] { deliverGrant(g, request); };
    static_assert(EventQueue::Callback::kFitsInline<decltype(deliver)>,
                  "a grant's delivery event must not allocate");
    events_.schedule(when, std::move(deliver));
}

void
Scheduler::deliverGrant(const ControlInfo &grant, std::uint32_t request)
{
    GrantAction action;
    action.target = grant.src;
    action.chunk = grant.size;
    if (request == kNone) {
        action.grant_block = grant;
    } else {
        action.forward_request = requests_.take(request);
    }
    sink_(action);
}

void
Scheduler::reclaimQueuedDemand(const FlowKey &key)
{
    Queue &q = *queues_[key.dst];
    Demand dropped{};
    bool found = false;
    q.eraseIf([&](const Demand &dem) {
        if (dem.src == key.src && dem.id == key.id &&
            dem.response == key.response) {
            dropped = dem;
            found = true;
            return true;
        }
        return false;
    });
    if (!found)
        return;
    ledger_stats_.stale_bytes_reclaimed += dropped.remaining;
    releaseRequest(dropped.request);
    retirePairEntry(dropped);
}

void
Scheduler::onChunkForwarded(NodeId src, NodeId dst, MsgId id,
                            bool response, Bytes bytes, bool last_chunk)
{
    ++ledger_stats_.chunks_observed;
    const FlowKey key{src, dst, id, response};
    auto it = ledger_.find(packKey(key));
    if (it == ledger_.end())
        return; // flow already retired, or never tracked (evicted id)
    it->second.observed += bytes;
    if (!last_chunk)
        return;
    // The message's final chunk is through the switch: the demand's
    // lifecycle ends here, whatever the byte arithmetic says.
    ++ledger_stats_.retired_by_completion;
    releaseLedgerBacklog(key, it->second);
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::LedgerRetire, events_.now(), dst,
                 src, dst, id, response, trace::Detail::None,
                 it->second.observed, leaf_, 0, auxOf(poolOfKey(key)));
    ledger_.erase(it);
    reclaimQueuedDemand(key);
}

std::optional<Scheduler::FlowBytes>
Scheduler::flowBytes(const FlowKey &key) const
{
    const auto it = ledger_.find(packKey(key));
    if (it == ledger_.end())
        return std::nullopt;
    return it->second;
}

void
Scheduler::abortPort(NodeId port)
{
    // Sweep in ascending packed-key (dst, id, direction) order, so log
    // records, reclaims and sink calls do not depend on the hash
    // table's layout.
    std::vector<std::uint64_t> keys;
    for (const auto &[packed, entry] : ledger_) {
        if (unpackKey(packed).src == port)
            keys.push_back(packed);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<FlowKey> aborted;
    for (const std::uint64_t packed : keys) {
        const FlowKey key = unpackKey(packed);
        const auto it = ledger_.find(packed);
        const Bytes stale = it->second.demanded - it->second.observed;
        // The aborted flow's never-granted bytes leave the pool's
        // backlog with it — a storm must not inflate a tenant's
        // apparent demand (and so deflate everyone else's share)
        // with demand nobody can serve anymore.
        releaseLedgerBacklog(key, it->second);
        ledger_.erase(it);
        ++ledger_stats_.retired_by_abort;
        if (auto *log = cfg_.event_log)
            log->log(trace::EventType::LedgerAbort, events_.now(), port,
                     key.src, key.dst, key.id, key.response,
                     trace::Detail::None, stale, leaf_, 0,
                     auxOf(poolOfKey(key)));
        reclaimQueuedDemand(key);
        if (abort_sink_)
            aborted.push_back(key);
    }
    // Notify after the sweep: a sink may re-enter the scheduler (a host
    // re-issuing the aborted read opens a fresh demand), which must not
    // happen while the sweep is live.
    for (const FlowKey &key : aborted)
        abort_sink_(key);
}

} // namespace core
} // namespace edm

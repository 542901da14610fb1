#include "host_stack.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace core {

HostStack::HostStack(NodeId id, const EdmConfig &cfg, EventQueue &events,
                     bool has_memory, std::function<void()> on_tx_work)
    : id_(id), cfg_(cfg), events_(events),
      on_tx_work_(std::move(on_tx_work)),
      mux_(phy::TxPolicy::Fair),
      demux_([this](const phy::PhyBlock &b) { onMemoryBlock(b); },
             [this](std::vector<phy::PhyBlock> frame) {
                 ++stats_.frames_received;
                 if (on_frame_)
                     on_frame_(std::move(frame));
             })
{
    EDM_ASSERT(on_tx_work_, "host stack needs a TX-work callback");
    if (has_memory) {
        dram_ = std::make_unique<mem::Dram>();
        store_ = std::make_unique<mem::BackingStore>();
    }
}

void
HostStack::postRead(NodeId dst, std::uint64_t addr, Bytes len,
                    ReadCallback cb)
{
    EDM_ASSERT(len > 0 && len <= 0xFFFF,
               "read length %llu outside the 16-bit wire field",
               static_cast<unsigned long long>(len));
    PendingRequest req;
    req.msg.type = MemMsgType::RREQ;
    req.msg.src = id_;
    req.msg.dst = dst;
    req.msg.addr = addr;
    req.msg.len = len;
    req.read_cb = std::move(cb);
    req.posted = events_.now();
    admit(dst, std::move(req));
}

void
HostStack::postWrite(NodeId dst, std::uint64_t addr,
                     std::vector<std::uint8_t> data, WriteCallback cb)
{
    EDM_ASSERT(!data.empty() && data.size() <= 0xFFFF,
               "write length %zu outside the 16-bit wire field",
               data.size());
    PendingRequest req;
    req.msg.type = MemMsgType::WREQ;
    req.msg.src = id_;
    req.msg.dst = dst;
    req.msg.addr = addr;
    req.msg.len = data.size();
    req.msg.payload = std::move(data);
    req.write_cb = std::move(cb);
    req.posted = events_.now();
    admit(dst, std::move(req));
}

void
HostStack::postRmw(NodeId dst, std::uint64_t addr, mem::RmwOp op,
                   std::uint64_t arg0, std::uint64_t arg1, RmwCallback cb)
{
    PendingRequest req;
    req.msg.type = MemMsgType::RMWREQ;
    req.msg.src = id_;
    req.msg.dst = dst;
    req.msg.addr = addr;
    req.msg.len = 16; // RRES carries old value + swapped flag
    req.msg.opcode = op;
    req.msg.arg0 = arg0;
    req.msg.arg1 = arg1;
    req.rmw_cb = std::move(cb);
    req.posted = events_.now();
    admit(dst, std::move(req));
}

bool
HostStack::nextIdLive(NodeId dst)
{
    return requests_.count(std::make_pair(dst, next_id_[dst])) != 0;
}

void
HostStack::admit(NodeId dst, PendingRequest req)
{
    // Rate-limit active requests to X per destination (§3.1.2): the
    // scheduler's per-port notification queues are sized X·N, and hosts
    // are the enforcement point.
    if (outstanding_[dst] >= cfg_.max_notifications) {
        parked_[dst].push_back(std::move(req));
        return;
    }
    // 8-bit message ids wrap at 256 sends per destination; launching
    // onto an id whose original message is still live (a stranded
    // read, or simply >256 queued toward one node) would make two
    // distinct messages indistinguishable on the wire. Stall the send
    // until the id frees — its completion (or timeout) calls
    // release(), which drains the park.
    if (nextIdLive(dst)) {
        ++stats_.id_stalls;
        parked_[dst].push_back(std::move(req));
        if (auto *log = cfg_.event_log)
            log->log(trace::EventType::IdWrapStall, events_.now(), id_,
                     id_, dst, next_id_[dst], false, trace::Detail::None,
                     parked_[dst].size());
        return;
    }
    ++outstanding_[dst];
    launch(std::move(req));
}

void
HostStack::release(NodeId dst)
{
    auto it = outstanding_.find(dst);
    EDM_ASSERT(it != outstanding_.end() && it->second > 0,
               "release without matching admit for dst %u", dst);
    --it->second;
    // Drain as many parked sends as the freed slot (and, after an
    // id-stall, the freed message id) allows. Without id stalls parked
    // is non-empty only when every slot is taken, so the loop runs at
    // most once — exactly the historical one-for-one relaunch.
    auto &parked = parked_[dst];
    while (!parked.empty() && it->second < cfg_.max_notifications &&
           !nextIdLive(dst)) {
        PendingRequest req = std::move(parked.front());
        parked.pop_front();
        ++it->second;
        launch(std::move(req));
    }
}

void
HostStack::launch(PendingRequest req)
{
    const NodeId dst = req.msg.dst;
    const MsgId id = next_id_[dst]++;
    req.msg.id = id;

    const auto key = std::make_pair(dst, id);
    EDM_ASSERT(!requests_.count(key),
               "message id wrap with >256 outstanding to node %u", dst);

    RequestState st;
    st.type = req.msg.type;
    st.remote_addr = req.msg.addr;
    st.total = req.msg.len;
    st.posted = req.posted;
    st.read_cb = std::move(req.read_cb);
    st.write_cb = std::move(req.write_cb);
    st.rmw_cb = std::move(req.rmw_cb);
    st.retries = req.retries;

    switch (req.msg.type) {
      case MemMsgType::RREQ:
      case MemMsgType::RMWREQ:
        // The request travels now; it doubles as the demand notification
        // for its response (§3.1.1) so no /N/ is needed.
        if (cfg_.read_timeout > 0) {
            st.timeout = events_.scheduleAfter(
                cfg_.read_timeout, [this, dst, id] {
                    onReadTimeout(dst, id);
                });
        }
        requests_.emplace(key, std::move(st));
        enqueueMemBlocks(serialize(req.msg), cycles(cfg_.costs.host_gen_request));
        break;
      case MemMsgType::WREQ: {
        // Explicit demand notification; data waits for a grant.
        st.data = std::move(req.msg.payload);
        requests_.emplace(key, std::move(st));
        ControlInfo n;
        n.dst = dst;
        n.src = id_;
        n.id = id;
        n.size = req.msg.len;
        ++stats_.notify_blocks_sent;
        enqueueMemBlocks({makeNotify(n)},
                         cycles(cfg_.costs.host_gen_request));
        break;
      }
      case MemMsgType::RRES:
        EDM_PANIC("applications do not post RRES directly");
    }
}

void
HostStack::enqueueMemBlocks(std::vector<phy::PhyBlock> blocks,
                            Picoseconds delay)
{
    stats_.mem_blocks_sent += blocks.size();
    events_.scheduleAfter(delay, [this, blocks = std::move(blocks)] {
        mux_.enqueueMemory(blocks, events_.now());
        on_tx_work_();
    });
}

void
HostStack::rxBlock(const phy::PhyBlock &block)
{
    demux_.feed(block);
}

void
HostStack::rxBlockTrain(const phy::PhyBlock *blocks, std::size_t count)
{
    EDM_ASSERT(demux_.inMemoryMessage(),
               "host %u received a train outside a memory message", id_);
    for (std::size_t i = 0; i < count; ++i) {
        EDM_ASSERT(blocks[i].isData(), "control block in a train");
        demux_.feed(blocks[i]);
    }
}

void
HostStack::rxFrameTrain(const phy::PhyBlock *blocks, std::size_t count)
{
    // The emitting mux was outside any memory message for the train's
    // whole span (frame trains never form mid-/MS/), so the demux state
    // at delivery is pure L2: blocks buffer until the per-block /Tn/.
    EDM_ASSERT(!demux_.inMemoryMessage(),
               "host %u received a frame train inside a memory message",
               id_);
    for (std::size_t i = 0; i < count; ++i) {
        EDM_ASSERT(!(blocks[i].isControl() &&
                     phy::isTerminate(blocks[i].type())),
                   "terminate block in a frame train");
        demux_.feed(blocks[i]);
    }
}

void
HostStack::onMemoryBlock(const phy::PhyBlock &block)
{
    ++stats_.mem_blocks_received;

    if (block.isControl() && block.type() == phy::BlockType::Grant) {
        ++stats_.grant_blocks_received;
        const ControlInfo g = unpackControl(block.controlPayload());
        // Parse + enqueue to the grant queue (2 cycles, §3.2.1); the
        // queue read happens on the TX side of the clock crossing.
        events_.scheduleAfter(cycles(cfg_.costs.host_proc_grant),
                              [this, g] {
                                  grant_queue_.push(g);
                                  onGrant(g);
                              });
        return;
    }
    if (block.isControl() && block.type() == phy::BlockType::Notify) {
        EDM_PANIC("host %u received an /N/ block — switch-only", id_);
    }

    auto msg = assembler_.feed(block);
    if (!msg)
        return;

    MemMessage m = std::move(*msg);
    Picoseconds delay = 0;
    switch (m.type) {
      case MemMsgType::RREQ:
      case MemMsgType::RMWREQ:
        // Parse + grant-queue entry + hand-off to the memory controller.
        delay = cycles(cfg_.costs.host_proc_grant +
                       cfg_.costs.host_proc_rreq_extra);
        break;
      case MemMsgType::WREQ:
      case MemMsgType::RRES:
        delay = cycles(cfg_.costs.host_proc_data);
        break;
    }
    events_.scheduleAfter(delay, [this, m = std::move(m)] {
        onMessage(m);
    });
}

void
HostStack::onGrant(const ControlInfo &g)
{
    grant_queue_.pop();
    const auto req_key = std::make_pair(g.dst, g.id);
    // Route by the grant's direction bit: a host can hold a WREQ toward
    // a peer *and* serve that peer's read under the same (dst, id), and
    // spending a response grant on the write (or vice versa) both
    // starves the granted flow and over-grants the other.
    if (!g.response) {
        if (auto it = requests_.find(req_key);
            it != requests_.end() && it->second.type == MemMsgType::WREQ) {
            sendWriteChunk(g.dst, g.id, g.size);
            return;
        }
    } else if (responses_.count(req_key)) {
        sendResponseChunk(g.dst, g.id, g.size);
        return;
    }
    if (g.response && store_) {
        // A /G/ can lawfully overtake its own flow's forwarded request:
        // the single-block grant interleaves through a backlogged
        // egress while the multi-block RREQ waits for stream ownership.
        // A grant that arrives (over the still-working downlink) after
        // this node's uplink died can never be answered: drop it, the
        // same way the fault hook reaped the grants parked before the
        // disable.
        if (uplink_disabled_) {
            ++stats_.parked_grants_dropped;
            if (auto *log = cfg_.event_log)
                log->log(trace::EventType::GrantDropped, events_.now(),
                         id_, id_, g.dst, g.id, g.response,
                         trace::Detail::UplinkDown, g.size);
            return;
        }
        // Park it — the hardware would simply leave it in the grant
        // queue — and serveRead/serveRmw consumes it on arrival. If the
        // request never shows up (lost to a fault, or the grant was
        // issued against an evicted ledger id), the expiry sweep drops
        // the orphan instead of letting it drain into a later message
        // reusing the same (dst, id). One sweep is pending per key, not
        // per grant — armed here on the empty→non-empty transition.
        ++stats_.grants_parked;
        auto &parked = parked_grants_[req_key];
        parked.push_back(ParkedGrant{g.size, events_.now()});
        if (auto *log = cfg_.event_log)
            log->log(trace::EventType::GrantParked, events_.now(), id_,
                     id_, g.dst, g.id, g.response, trace::Detail::None,
                     g.size);
        if (!parked_sweeps_.count(req_key)) {
            parked_sweeps_[req_key] =
                events_.scheduleAfter(kParkedGrantTimeout,
                                      [this, req_key] {
                                          expireParkedGrants(req_key);
                                      });
        }
        return;
    }
    ++stats_.unknown_grants;
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::GrantDropped, events_.now(), id_, id_,
                 g.dst, g.id, g.response, trace::Detail::UnknownMessage,
                 g.size);
    EDM_WARN("host %u: grant for unknown message dst=%u id=%u", id_,
             g.dst, g.id);
}

void
HostStack::onMessage(MemMessage msg)
{
    switch (msg.type) {
      case MemMsgType::RREQ:
        serveRead(msg);
        break;
      case MemMsgType::RMWREQ:
        serveRmw(msg);
        break;
      case MemMsgType::WREQ:
        serveWrite(msg);
        break;
      case MemMsgType::RRES:
        completeRead(msg);
        break;
    }
}

void
HostStack::serveRead(const MemMessage &req)
{
    EDM_ASSERT(store_ && dram_, "node %u has no memory to serve reads",
               id_);
    const Picoseconds dram = dram_->access(req.addr, req.len,
                                           events_.now());
    last_dram_latency_ = dram;

    ResponseState rs;
    rs.data = store_->read(req.addr, req.len);
    responses_[std::make_pair(req.src, req.id)] = std::move(rs);

    // The forwarded RREQ is the implicit first grant (§3.1.1 step 4):
    // send the first chunk as soon as the DRAM read returns.
    const NodeId dst = req.src;
    const MsgId id = req.id;
    events_.scheduleAfter(dram, [this, dst, id] {
        sendResponseChunk(dst, id, cfg_.chunk_bytes);
    });
    drainParkedGrants(dst, id, dram);
}

void
HostStack::serveRmw(const MemMessage &req)
{
    EDM_ASSERT(store_ && dram_, "node %u has no memory to serve RMW", id_);
    // Read + modify + write, atomically (nothing else runs in between in
    // a discrete-event step), charging two DRAM accesses.
    const Picoseconds t0 = dram_->access(req.addr, 8, events_.now());
    const Picoseconds t1 = dram_->access(req.addr, 8, events_.now() + t0);
    last_dram_latency_ = t0 + t1;
    const mem::RmwResult result =
        store_->rmw(req.opcode, req.addr, req.arg0, req.arg1);

    ResponseState rs;
    rs.data.resize(16);
    for (int i = 0; i < 8; ++i)
        rs.data[i] = static_cast<std::uint8_t>(result.old_value >> (8 * i));
    rs.data[8] = result.swapped ? 1 : 0;
    responses_[std::make_pair(req.src, req.id)] = std::move(rs);

    const NodeId dst = req.src;
    const MsgId id = req.id;
    events_.scheduleAfter(t0 + t1, [this, dst, id] {
        sendResponseChunk(dst, id, cfg_.chunk_bytes);
    });
    drainParkedGrants(dst, id, t0 + t1);
}

void
HostStack::drainParkedGrants(NodeId dst, MsgId id, Picoseconds delay)
{
    const auto it = parked_grants_.find(std::make_pair(dst, id));
    if (it == parked_grants_.end())
        return;
    // Grants that overtook this request resume in arrival order, right
    // behind the implicit first chunk (scheduled just above at the same
    // instant; same-timestamp events run in scheduling order).
    std::vector<ParkedGrant> grants = std::move(it->second);
    parked_grants_.erase(it);
    if (auto *log = cfg_.event_log) {
        for (const ParkedGrant &g : grants)
            log->log(trace::EventType::GrantDrained, events_.now(), id_,
                     id_, dst, id, true, trace::Detail::None, g.size);
    }
    const auto sweep = parked_sweeps_.find(std::make_pair(dst, id));
    if (sweep != parked_sweeps_.end()) {
        events_.cancel(sweep->second);
        parked_sweeps_.erase(sweep);
    }
    events_.scheduleAfter(delay,
                          [this, dst, id, grants = std::move(grants)] {
                              for (const ParkedGrant &g : grants)
                                  sendResponseChunk(dst, id, g.size);
                          });
}

void
HostStack::expireParkedGrants(std::pair<NodeId, MsgId> key)
{
    parked_sweeps_.erase(key); // this firing was the pending sweep
    const auto it = parked_grants_.find(key);
    if (it == parked_grants_.end())
        return;
    // Grants sit in arrival order, so timestamps are monotonic: expire
    // the prefix this sweep's deadline covers, then re-arm for the
    // oldest survivor so every grant still gets its exact
    // parked_at + timeout deadline from one pending event per key.
    const Picoseconds cutoff = events_.now() - kParkedGrantTimeout;
    auto &grants = it->second;
    std::size_t expired = 0;
    while (expired < grants.size() &&
           grants[expired].parked_at <= cutoff)
        ++expired;
    if (expired > 0) {
        stats_.parked_grants_dropped += expired;
        if (auto *log = cfg_.event_log) {
            for (std::size_t i = 0; i < expired; ++i)
                log->log(trace::EventType::GrantDropped, events_.now(),
                         id_, id_, key.first, key.second, true,
                         trace::Detail::ParkedExpired, grants[i].size);
        }
        EDM_WARN("host %u: dropped %zu orphaned parked grant(s) dst=%u "
                 "id=%u",
                 id_, expired, key.first, key.second);
        grants.erase(grants.begin(),
                     grants.begin() + static_cast<std::ptrdiff_t>(expired));
    }
    if (grants.empty()) {
        parked_grants_.erase(it);
        return;
    }
    parked_sweeps_[key] =
        events_.schedule(grants.front().parked_at + kParkedGrantTimeout,
                         [this, key] { expireParkedGrants(key); });
}

void
HostStack::onUplinkDisabled()
{
    uplink_disabled_ = true;
    for (const auto &[key, grants] : parked_grants_) {
        stats_.parked_grants_dropped += grants.size();
        if (auto *log = cfg_.event_log) {
            for (const ParkedGrant &g : grants)
                log->log(trace::EventType::GrantDropped, events_.now(),
                         id_, id_, key.first, key.second, true,
                         trace::Detail::UplinkDown, g.size);
        }
    }
    parked_grants_.clear();
    for (const auto &[key, ev] : parked_sweeps_)
        events_.cancel(ev);
    parked_sweeps_.clear();
}

void
HostStack::onUplinkRepaired()
{
    uplink_disabled_ = false;
}

void
HostStack::serveWrite(const MemMessage &chunk)
{
    EDM_ASSERT(store_ && dram_, "node %u has no memory to serve writes",
               id_);
    last_dram_latency_ = dram_->access(chunk.addr, chunk.payload.size(),
                                       events_.now());
    store_->write(chunk.addr, chunk.payload);
    if (chunk.last_chunk) {
        ++stats_.writes_completed;
        if (write_delivered_)
            write_delivered_(chunk, events_.now());
    }
}

void
HostStack::sendResponseChunk(NodeId dst, MsgId id, Bytes chunk)
{
    const auto key = std::make_pair(dst, id);
    auto it = responses_.find(key);
    if (it == responses_.end()) {
        ++stats_.stale_response_grants;
        if (auto *log = cfg_.event_log)
            log->log(trace::EventType::GrantDropped, events_.now(), id_,
                     id_, dst, id, true, trace::Detail::StaleResponse,
                     chunk);
        EDM_WARN("host %u: RRES grant for finished message id=%u", id_, id);
        return;
    }
    ResponseState &rs = it->second;
    const Bytes n = std::min<Bytes>(chunk, rs.data.size() - rs.sent);
    MemMessage m;
    m.type = MemMsgType::RRES;
    m.src = id_;
    m.dst = dst;
    m.id = id;
    m.len = n;
    m.payload.assign(rs.data.begin() + static_cast<std::ptrdiff_t>(rs.sent),
                     rs.data.begin() +
                         static_cast<std::ptrdiff_t>(rs.sent + n));
    rs.sent += n;
    m.last_chunk = rs.sent >= rs.data.size();
    if (m.last_chunk)
        responses_.erase(it);
    enqueueMemBlocks(serialize(m), cycles(cfg_.costs.host_read_grant +
                                          cfg_.costs.host_gen_data));
}

void
HostStack::sendWriteChunk(NodeId dst, MsgId id, Bytes chunk)
{
    const auto key = std::make_pair(dst, id);
    auto it = requests_.find(key);
    EDM_ASSERT(it != requests_.end(), "write grant without state");
    RequestState &st = it->second;
    const Bytes n = std::min<Bytes>(chunk, st.total - st.done);
    EDM_ASSERT(n > 0, "over-granted write dst=%u id=%u", dst, id);

    MemMessage m;
    m.type = MemMsgType::WREQ;
    m.src = id_;
    m.dst = dst;
    m.id = id;
    m.addr = st.remote_addr + st.done;
    m.len = n;
    m.payload.assign(st.data.begin() + static_cast<std::ptrdiff_t>(st.done),
                     st.data.begin() +
                         static_cast<std::ptrdiff_t>(st.done + n));
    st.done += n;
    m.last_chunk = st.done >= st.total;
    enqueueMemBlocks(serialize(m), cycles(cfg_.costs.host_read_grant +
                                          cfg_.costs.host_gen_data));

    if (m.last_chunk) {
        // All data handed to the fabric; the write-completion callback
        // fires when the memory node reports delivery (fabric hook).
        if (!st.write_cb) {
            requests_.erase(it);
            release(dst);
        }
    }
}

void
HostStack::completeRead(const MemMessage &chunk)
{
    const auto key = std::make_pair(chunk.src, chunk.id);
    auto it = requests_.find(key);
    if (it == requests_.end())
        return; // timed out earlier; drop late data (§3.3)
    RequestState &st = it->second;
    st.data.insert(st.data.end(), chunk.payload.begin(),
                   chunk.payload.end());
    st.done += chunk.payload.size();
    if (!chunk.last_chunk && st.done < st.total)
        return;

    if (st.timeout != kInvalidEvent)
        events_.cancel(st.timeout);
    const Picoseconds latency = events_.now() - st.posted;

    if (st.type == MemMsgType::RMWREQ) {
        ++stats_.rmws_completed;
        mem::RmwResult result;
        if (st.data.size() >= 9) {
            for (int i = 0; i < 8; ++i)
                result.old_value |=
                    static_cast<std::uint64_t>(st.data[i]) << (8 * i);
            result.swapped = st.data[8] != 0;
        }
        auto cb = std::move(st.rmw_cb);
        const NodeId dst = chunk.src;
        requests_.erase(it);
        release(dst);
        if (cb)
            cb(result, latency);
    } else {
        ++stats_.reads_completed;
        if (st.retries > 0)
            ++stats_.reads_recovered;
        auto cb = std::move(st.read_cb);
        auto data = std::move(st.data);
        const NodeId dst = chunk.src;
        requests_.erase(it);
        release(dst);
        if (cb)
            cb(std::move(data), latency, false);
    }
}

void
HostStack::onReadTimeout(NodeId dst, MsgId id)
{
    const auto key = std::make_pair(dst, id);
    auto it = requests_.find(key);
    if (it == requests_.end())
        return;
    ++stats_.read_timeouts;
    it->second.timeout = kInvalidEvent; // this firing was the guard
    if (cfg_.read_retry_limit > 0 &&
        it->second.type == MemMsgType::RREQ) {
        recoverLostRead(it);
        return;
    }
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::FaultRecover, events_.now(), id_, dst,
                 id_, id, true, trace::Detail::ReadTimeout, 0);
    auto cb = std::move(it->second.read_cb);
    const Picoseconds latency = events_.now() - it->second.posted;
    requests_.erase(it);
    release(dst);
    if (cb)
        cb({}, latency, true); // NULL (zero-size) response, §3.3
}

void
HostStack::recoverLostRead(
    std::map<std::pair<NodeId, MsgId>, RequestState>::iterator it)
{
    const NodeId dst = it->first.first;
    const MsgId id = it->first.second;
    RequestState &st = it->second;
    if (st.timeout != kInvalidEvent) {
        events_.cancel(st.timeout);
        st.timeout = kInvalidEvent;
    }
    if (st.retries < cfg_.read_retry_limit) {
        // Re-issue as a fresh RREQ (new message id via launch) after
        // exponential backoff. The original post time rides along so
        // the completion latency spans the entire recovery; any chunk
        // prefix that landed before the loss is discarded — the retried
        // request restarts the transfer.
        PendingRequest req;
        req.msg.type = MemMsgType::RREQ;
        req.msg.src = id_;
        req.msg.dst = dst;
        req.msg.addr = st.remote_addr;
        req.msg.len = st.total;
        req.read_cb = std::move(st.read_cb);
        req.posted = st.posted;
        req.retries = st.retries + 1;
        const Picoseconds backoff = cfg_.read_retry_base << st.retries;
        ++stats_.read_retries;
        if (auto *log = cfg_.event_log)
            log->log(trace::EventType::FaultRecover, events_.now(), id_,
                     dst, id_, id, true, trace::Detail::ReadRetry,
                     static_cast<std::uint64_t>(req.retries));
        requests_.erase(it);
        release(dst);
        events_.scheduleAfter(backoff,
                              [this, dst, req = std::move(req)]() mutable {
                                  admit(dst, std::move(req));
                              });
        return;
    }
    // Retry budget exhausted: abandon with the legacy NULL response.
    ++stats_.reads_abandoned;
    if (auto *log = cfg_.event_log)
        log->log(trace::EventType::FaultRecover, events_.now(), id_, dst,
                 id_, id, true, trace::Detail::ReadAbandoned,
                 static_cast<std::uint64_t>(st.retries));
    auto cb = std::move(st.read_cb);
    const Picoseconds latency = events_.now() - st.posted;
    requests_.erase(it);
    release(dst);
    if (cb)
        cb({}, latency, true);
}

void
HostStack::onFlowAborted(NodeId mem_node, MsgId id)
{
    // Fail-fast is an opt-in refinement of the timeout guard: without a
    // retry budget the legacy NULL path stays the only authority.
    if (cfg_.read_retry_limit <= 0)
        return;
    auto it = requests_.find(std::make_pair(mem_node, id));
    if (it == requests_.end() || it->second.type != MemMsgType::RREQ)
        return; // RMW is not idempotent — its timeout decides alone
    it->second.data.clear();
    it->second.done = 0;
    recoverLostRead(it);
}

void
HostStack::notifyWriteDelivered(NodeId mem_node, MsgId id,
                                Picoseconds delivered_at)
{
    const auto key = std::make_pair(mem_node, id);
    auto it = requests_.find(key);
    if (it == requests_.end())
        return;
    const Picoseconds latency = delivered_at - it->second.posted;
    auto cb = std::move(it->second.write_cb);
    requests_.erase(it);
    release(mem_node);
    if (cb)
        cb(latency);
}

void
HostStack::setWriteDeliveredHook(WriteDeliveredHook hook)
{
    write_delivered_ = std::move(hook);
}

void
HostStack::setFrameHandler(FrameHandler handler)
{
    on_frame_ = std::move(handler);
}

} // namespace core
} // namespace edm

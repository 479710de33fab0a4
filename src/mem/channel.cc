#include "mem/channel.hh"

#include <algorithm>

#include "common/log.hh"
#include "mem/client.hh"
#include "obs/stat_registry.hh"
#include "sim/event_kinds.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

namespace
{

/** Latency the Decoupled synchronization buffer adds to each burst. */
constexpr Tick syncBufferLatency = nsToTick(5.0);

} // namespace

Channel::Channel(EventQueue &eq, const MemConfig &cfg,
                 RequestPool &pool, const TimingParams &tp)
    : eq_(eq), cfg_(cfg), pool_(pool), tp_(tp),
      ranks_(cfg.ranksPerChannel()),
      banks_(cfg.ranksPerChannel() * cfg.banksPerRank),
      pdExitReadyAt_(cfg.ranksPerChannel(), 0),
      plans_(cfg.ranksPerChannel()),
      relockParked_(cfg.ranksPerChannel(), 0)
{
    // A rank holds at most three deferred transitions per bank
    // (DESIGN.md §6), so its fixed buffer bounds the bank count.
    if (3 * cfg.banksPerRank > Rank::maxPendingTransitions)
        fatal("Channel: %u banks per rank exceed the %u the rank's "
              "deferred-transition buffer supports",
              cfg.banksPerRank, Rank::maxPendingTransitions / 3);
}

Channel::~Channel()
{
    // Queued requests (including one in flight at each bank head) go
    // back to the pool; their pending completion events die with the
    // event queue and never observe the recycled storage.
    for (auto &bc : banks_)
        while (!bc.q.empty())
            pool_.release(bc.q.pop_front());
    while (!writeQueue_.empty())
        pool_.release(writeQueue_.pop_front());
}

Channel::BankCtl &
Channel::bankCtl(std::uint32_t rank, std::uint32_t bank)
{
    return banks_[rank * cfg_.banksPerRank + bank];
}

void
Channel::setCommandObserver(CommandObserver *obs,
                            std::uint32_t chan_id)
{
    obs_ = obs;
    chanId_ = chan_id;
    if (obs_)
        obs_->onTimingChange(chanId_, eq_.now(), tp_);
}

void
Channel::emit(DramCmdEvent ev)
{
    ev.channel = chanId_;
    obs_->onCommand(ev);
}

void
Channel::emitCke(DramCmd cmd, Tick at, Tick done_at,
                 std::uint32_t rank, RankIdleState state)
{
    if (!obs_)
        return;
    DramCmdEvent ev;
    ev.cmd = cmd;
    ev.at = at;
    ev.doneAt = done_at;
    ev.rank = rank;
    ev.pdState = static_cast<std::uint8_t>(state);
    emit(ev);
}

void
Channel::access(MemRequest *req)
{
    ++pending_;
    if (req->isWrite) {
        writeQueue_.push_back(req);
        if (writeQueue_.size() >= cfg_.writeQueueDepth / 2)
            drainMode_ = true;
        pumpWrites();
    } else {
        ++pendingReads_;
        dispatchToBank(req);
    }
}

void
Channel::dispatchToBank(MemRequest *req)
{
    settlePlan(req->loc.rank);
    BankCtl &bc = bankCtl(req->loc.rank, req->loc.bank);
    counters_.bto += bc.q.size();
    counters_.btc += 1;
    bc.q.push_back(req);
    tryService(req->loc.rank, req->loc.bank);
}

void
Channel::pumpWrites()
{
    while (!writeQueue_.empty() &&
           (drainMode_ || pendingReads_ == 0)) {
        MemRequest *w = writeQueue_.pop_front();
        dispatchToBank(w);
        if (drainMode_ && writeQueue_.size() <= cfg_.writeQueueDepth / 4)
            drainMode_ = false;
    }
    if (writeQueue_.empty())
        drainMode_ = false;
}

void
Channel::tryService(std::uint32_t r, std::uint32_t b)
{
    BankCtl &bc = bankCtl(r, b);
    if (bc.q.empty() || bc.bank.inService())
        return;

    // FR-FCFS: promote the oldest row hit to the head of the bank
    // queue before committing to service order (a pointer splice on
    // the intrusive queue).
    if (cfg_.scheduler == SchedulerPolicy::FrFcfs &&
        bc.bank.rowState() == Bank::RowState::Open) {
        for (MemRequest *it = bc.q.head(); it != nullptr;
             it = it->next) {
            if (it->loc.row == bc.bank.openRow()) {
                bc.q.unlink(it);
                bc.q.push_front(it);
                break;
            }
        }
    }

    MemRequest *req = bc.q.front();
    bc.bank.setInService(true);

    const TimingParams tp = tp_;
    Rank &rk = ranks_[r];
    const Tick now = eq_.now();
    // Apply the transitions already due, so the rank's deferred buffer
    // holds only the few still in the future (at most three per bank).
    rk.settle(now);

    // Earliest first command: planning happens now at the earliest
    // (writebacks may have aged in the write queue), the request must
    // clear MC processing, the bank must be available, and the channel
    // must not be re-locking.
    Tick earliest = std::max({now, req->arrival + tp.tMC,
                              bc.bank.readyAt(), suspendedUntil_});

    // Powerdown exit if the rank sleeps (EPDC is counted by the rank).
    if (rk.powerdown()) {
        // A rank the re-lock force-parked wakes "for free" at `now`
        // (the stall itself covers its fast exit, and the checker
        // exempts it).  A rank resident from *before* the quiescence
        // cannot start its exit sequence until the new clock locks:
        // its exit latency — frequency-dependent for the DLL-off deep
        // states — runs from the stall end, under the parameters in
        // effect there.
        const Tick wake_at =
            relockParked_[r] ? now : std::max(now, suspendedUntil_);
        const Tick exit_lat = idleExitLatency(rk.idleState(), tp);
        rk.setIdleState(now, RankIdleState::Up);
        dropPlan(r);
        pdExitReadyAt_[r] = wake_at + exit_lat;
        req->sawPowerdownExit = true;
        counters_.epdc += 1;
        emitCke(DramCmd::PowerdownExit, wake_at, pdExitReadyAt_[r], r);
    }
    earliest = std::max(earliest, pdExitReadyAt_[r]);

    // Row-buffer outcome and command sequence.
    Bank &bank = bc.bank;
    Tick act_at = 0;
    Tick cas_at;
    bool did_act = false;
    Tick open_miss_pre_at = 0;
    Tick open_miss_pre_done = 0;

    if (bank.rowState() == Bank::RowState::Open &&
        bank.openRow() == req->loc.row) {
        req->outcome = RowOutcome::Hit;
        counters_.rbhc += 1;
        cas_at = earliest;
    } else if (bank.rowState() == Bank::RowState::Open) {
        req->outcome = RowOutcome::OpenMiss;
        counters_.obmc += 1;
        Tick pre_at = std::max(earliest, bank.lastActAt() + tp.tRAS);
        open_miss_pre_at = pre_at;
        open_miss_pre_done = pre_at + tp.tRP;
        act_at = rk.earliestAct(open_miss_pre_done, tp);
        cas_at = act_at + tp.tRCD;
        did_act = true;
    } else {
        req->outcome = RowOutcome::ClosedMiss;
        counters_.cbmc += 1;
        act_at = rk.earliestAct(earliest, tp);
        cas_at = act_at + tp.tRCD;
        did_act = true;
    }

    req->serviceStart = did_act ? act_at : cas_at;
    req->dataReady = cas_at + tp.tCL;

    // Bus stage: CTO accumulates the residual bus work (in bursts)
    // ahead of this request when its data is ready (paper Eq. 7).
    Tick data_at_bus = req->dataReady;
    Tick bank_burst_extra = 0;
    if (decoupledDeviceMHz_ != 0) {
        // Devices run slower than the channel: a synchronization
        // buffer bridges the rates, adding latency, and the bank is
        // occupied for the slower device-side transfer.
        Tick dev_burst = 4 * periodFromMHz(decoupledDeviceMHz_);
        if (dev_burst > tp.tBURST)
            bank_burst_extra = dev_burst - tp.tBURST;
        data_at_bus += syncBufferLatency;
    }
    double residual = 0.0;
    if (busFreeAt_ > data_at_bus) {
        residual = static_cast<double>(busFreeAt_ - data_at_bus) /
                   static_cast<double>(tp.tBURST);
    }
    counters_.cto += residual;
    counters_.ctc += 1;

    req->burstStart = std::max(data_at_bus, busFreeAt_);
    if (throttleUtil_ > 0.0 && throttleUtil_ < 1.0) {
        // Throttling enforces a minimum burst-to-burst spacing; it
        // delays requests rather than saving energy (paper Section 5).
        Tick min_gap = static_cast<Tick>(
            static_cast<double>(tp.tBURST) / throttleUtil_);
        req->burstStart = std::max(req->burstStart,
                                   lastBurstStart_ + min_gap);
    }
    lastBurstStart_ = req->burstStart;
    const Tick chan_burst = tp.tBURST;
    busFreeAt_ = req->burstStart + chan_burst;
    req->burstEnd = busFreeAt_;
    req->bankBurstExtra = bank_burst_extra;

    if (did_act) {
        bank.recordAct(act_at);
        rk.recordAct(act_at);
        bank.openRowAt(req->loc.row);
    }
    // The precharge/keep-open decision is made when the access
    // completes (onBurstDone), when the queue contents are known;
    // until then nothing else can plan against this bank.
    bank.setReadyAt(req->burstEnd + bank_burst_extra);

    // Announce the planned command sequence in issue order.
    if (obs_) {
        DramCmdEvent ev;
        ev.rank = r;
        ev.bank = b;
        ev.row = req->loc.row;
        if (req->outcome == RowOutcome::OpenMiss) {
            ev.cmd = DramCmd::Pre;
            ev.at = open_miss_pre_at;
            ev.doneAt = open_miss_pre_done;
            emit(ev);
        }
        if (did_act) {
            ev.cmd = DramCmd::Act;
            ev.at = act_at;
            ev.doneAt = act_at;
            emit(ev);
        }
        ev.cmd = req->isWrite ? DramCmd::Write : DramCmd::Read;
        ev.at = cas_at;
        ev.doneAt = req->burstEnd;
        ev.burstStart = req->burstStart;
        ev.burstEnd = req->burstEnd;
        emit(ev);
    }

    // Rank accounting: the open-miss precharge and the activate are
    // recorded at their future ticks instead of scheduled as events;
    // the rank applies them in tick order whenever it next syncs
    // (DESIGN.md §6).  The rank burst accounting rides on the
    // completion event, so a request costs one channel event.
    if (req->outcome == RowOutcome::OpenMiss)
        rk.closeAt(open_miss_pre_done);
    if (did_act)
        rk.openAt(act_at);
    // The burst tag carries the request's pool slab index and the
    // channel-side burst time; burst_acct is recoverable as
    // chan_burst + req->bankBurstExtra (set above, stable until
    // completion).
    Tick burst_acct = chan_burst + bank_burst_extra;
    eq_.schedule(req->burstEnd,
                 [this, req, chan_burst, burst_acct] {
                     evBurstDone(req, chan_burst, burst_acct);
                 },
                 EventClass::Hardware,
                 {EvChanBurstDone, id_, pool_.indexOf(req),
                  chan_burst});
}

void
Channel::evBurstDone(MemRequest *req, Tick chan_burst, Tick burst_acct)
{
    settlePlan(req->loc.rank);
    ranks_[req->loc.rank].noteBurst(req->isWrite, burst_acct);
    onBurstDone(req, chan_burst);
}

void
Channel::evPreDone(std::uint32_t r, bool close)
{
    settlePlan(r);
    if (close)
        ranks_[r].closeAt(eq_.now());
    maybePowerdown(r);
}

void
Channel::evRelockEnter(std::uint32_t r)
{
    settlePlan(r);
    Rank &rk = ranks_[r];
    if (rk.powerdown()) {
        // Already resident in an idle state: JEDEC lets the device sit
        // in powerdown/self-refresh through the frequency change, so
        // no CKE traffic is needed (and a duplicate enter would be a
        // protocol violation).
        return;
    }
    // Every deferred open lies strictly before quiesce and every
    // deferred close at or before it, so settling here sees exactly
    // the banks the relock waits out (DESIGN.md §6).
    rk.settle(eq_.now());
    if (rk.openBanks() == 0) {
        rk.setIdleState(eq_.now(), RankIdleState::FastPd);
        relockParked_[r] = 1;
        emitCke(DramCmd::PowerdownEnter, eq_.now(), eq_.now(), r,
                RankIdleState::FastPd);
        armPlan(r);
    }
}

void
Channel::evRelockExit(std::uint32_t r)
{
    settlePlan(r);
    Rank &rk = ranks_[r];
    if (relockParked_[r]) {
        relockParked_[r] = 0;
        if (rk.idleState() == RankIdleState::FastPd) {
            emitCke(DramCmd::PowerdownExit, eq_.now(), eq_.now(), r);
            rk.setIdleState(eq_.now(), RankIdleState::Up);
            dropPlan(r);
            maybePowerdown(r);
        } else if (!rk.powerdown()) {
            // A refresh or access already woke it mid-window.
            maybePowerdown(r);
        }
        // A rank that demoted below fast-PD inside the window stays
        // resident; the next access pays that state's full exit
        // latency.
        return;
    }
    if (!rk.powerdown())
        maybePowerdown(r);
    // Pre-relock residents stay down; nothing to announce.
}

void
Channel::evRefreshDone(std::uint32_t r)
{
    settlePlan(r);
    ranks_[r].noteRefresh();
    maybePowerdown(r);
}

void
Channel::onBurstDone(MemRequest *req, Tick chan_burst)
{
    const Tick now = eq_.now();
    counters_.busBusyTime += chan_burst;

    std::uint32_t r = req->loc.rank;
    std::uint32_t b = req->loc.bank;
    BankCtl &bc = bankCtl(r, b);

    if (bc.q.front() != req)
        panic("Channel: completion for a request not at bank head");
    bc.q.pop_front();
    bc.bank.setInService(false);
    --pending_;

    // Row management: closed-page (paper Section 2.1) precharges now
    // unless another pending access targets the open row; open-page
    // always leaves the row latched and pays the precharge on the
    // next conflicting access.
    const TimingParams tp = tp_;
    bool keep_open = cfg_.pagePolicy == PagePolicy::OpenPage;
    if (!keep_open) {
        for (const MemRequest *other = bc.q.head(); other != nullptr;
             other = other->next) {
            if (other->loc.row == req->loc.row) {
                keep_open = true;
                break;
            }
        }
    }
    if (!keep_open) {
        Tick pre_start = std::max(now + req->bankBurstExtra,
                                  bc.bank.lastActAt() + tp.tRAS);
        if (req->isWrite)
            pre_start += tp.tWR;
        // A refresh or frequency re-lock may have claimed this bank
        // mid-burst (both push readyAt past their busy window); the
        // trailing precharge must wait it out.
        pre_start = std::max(pre_start, bc.bank.readyAt());
        Tick pre_done = pre_start + tp.tRP;
        if (obs_) {
            DramCmdEvent ev;
            ev.cmd = DramCmd::Pre;
            ev.at = pre_start;
            ev.doneAt = pre_done;
            ev.rank = r;
            ev.bank = b;
            ev.row = req->loc.row;
            emit(ev);
        }
        bc.bank.close();
        bc.bank.setReadyAt(std::max(bc.bank.readyAt(), pre_done));
        // Without powerdown nothing is decided when the precharge
        // completes, so the close is only recorded.  Otherwise it
        // keeps its event, which may power the rank down.
        if (pdMode_ == PowerdownMode::None) {
            ranks_[r].closeAt(pre_done);
        } else {
            eq_.schedule(pre_done, [this, r] { evPreDone(r, true); },
                         EventClass::Hardware,
                         {EvChanPreDone, id_, r, 1});
        }
    }

    if (req->isWrite) {
        counters_.writes += 1;
    } else {
        counters_.reads += 1;
        counters_.readLatencyTotal += now - req->arrival;
        --pendingReads_;
        if (req->client != nullptr)
            req->client->onMemComplete(now, *req);
    }
    pool_.release(req);

    tryService(r, b);
    pumpWrites();
    maybePowerdown(r);
}

bool
Channel::rankFullyIdleAt(std::uint32_t r, Tick at)
{
    ranks_[r].settle(at);
    if (ranks_[r].openBanks() != 0)
        return false;
    const std::uint32_t base = r * cfg_.banksPerRank;
    for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b) {
        const BankCtl &bc = banks_[base + b];
        if (!bc.q.empty() || bc.bank.inService())
            return false;
    }
    return true;
}

void
Channel::maybePowerdown(std::uint32_t r)
{
    if (pdMode_ == PowerdownMode::None)
        return;
    if (ranks_[r].powerdown())
        return;
    if (eq_.now() < suspendedUntil_)
        return;
    if (!rankFullyIdleAt(r, eq_.now()))
        return;
    RankIdleState target = RankIdleState::FastPd;
    switch (pdMode_) {
      case PowerdownMode::None:
        return;
      case PowerdownMode::FastExit:
      case PowerdownMode::Ladder:  // the ladder starts at fast-PD
        target = RankIdleState::FastPd;
        break;
      case PowerdownMode::SlowExit:
        target = RankIdleState::SlowPd;
        break;
      case PowerdownMode::SelfRefresh:
        target = RankIdleState::SelfRefresh;
        break;
      case PowerdownMode::SelfRefreshSlow:
        target = RankIdleState::SrSlowClock;
        break;
      case PowerdownMode::DeepPowerdown:
        target = RankIdleState::DeepPd;
        break;
    }
    ranks_[r].setIdleState(eq_.now(), target);
    emitCke(DramCmd::PowerdownEnter, eq_.now(), eq_.now(), r, target);
    armPlan(r);
}

void
Channel::armPlan(std::uint32_t r)
{
    if (pdMode_ != PowerdownMode::Ladder)
        return;
    // Fast-PD -> slow-PD -> self-refresh -> SR slow clock -> deep PD;
    // a zero dwell disables its rung and every one below it.
    const Tick dwell[4] = {cfg_.ladder.demoteSlowPd,
                           cfg_.ladder.demoteSelfRefresh,
                           cfg_.ladder.demoteSrSlow,
                           cfg_.ladder.demoteDeepPd};
    dropPlan(r);
    DemotionPlan &p = plans_[r];
    Tick at = eq_.now();
    for (Tick d : dwell) {
        if (d == 0)
            break;
        at += d;
        p.at[p.size++] = at;
    }
    if (p.size != 0)
        ++armedPlans_;
}

void
Channel::dropPlan(std::uint32_t r)
{
    DemotionPlan &p = plans_[r];
    if (p.next == p.size)
        return;
    p.next = p.size = 0;
    --armedPlans_;
}

void
Channel::applyDueRungs(std::uint32_t r)
{
    DemotionPlan &p = plans_[r];
    const Tick now = eq_.now();
    while (p.next < p.size) {
        const Tick at = p.at[p.next];
        // A rung due at the touching tick applies first.
        if (at > now)
            return;
        // The timer's body, at its own tick: settle the rank there,
        // then refuse the rest of the walk unless it is fully idle.
        if (!rankFullyIdleAt(r, at)) {
            dropPlan(r);
            return;
        }
        const auto target = static_cast<RankIdleState>(
            static_cast<std::uint8_t>(RankIdleState::SlowPd) + p.next);
        ranks_[r].setIdleState(at, target);
        counters_.pdDemotions += 1;
        emitCke(DramCmd::PowerdownEnter, at, at, r, target);
        // The chain re-armed itself only while the ladder was the
        // mode; the mode cannot have changed since `at`, as
        // setPowerdownMode() settles every plan first.
        if (++p.next == p.size || pdMode_ != PowerdownMode::Ladder) {
            p.next = p.size = 0;
            --armedPlans_;
        }
    }
}

void
Channel::setPowerdownMode(PowerdownMode mode)
{
    const bool leaving_none = pdMode_ == PowerdownMode::None &&
                              mode != PowerdownMode::None;
    settlePlans();
    pdMode_ = mode;
    if (mode == PowerdownMode::None)
        return;
    const Tick now = eq_.now();
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        maybePowerdown(r);
        if (!leaving_none)
            continue;
        // Trailing precharges recorded under None have no event to
        // decide on.  The rank can be idle no earlier than its last
        // one, so a single decision there powers it down on the tick
        // an event per precharge would have.
        ranks_[r].settle(now);
        if (const auto at = ranks_[r].latestPendingClose()) {
            eq_.schedule(*at, [this, r] { evPreDone(r, false); },
                         EventClass::Hardware,
                         {EvChanPreDone, id_, r, 0});
        }
    }
}

void
Channel::setDecoupled(std::uint32_t device_mhz)
{
    decoupledDeviceMHz_ = device_mhz;
}

void
Channel::setThrottle(double max_utilization)
{
    throttleUtil_ = max_utilization;
}

Tick
Channel::applyFrequency(const TimingParams &tp)
{
    const Tick now = eq_.now();
    Tick quiesce = std::max(now, busFreeAt_);
    for (auto &bc : banks_)
        quiesce = std::max(quiesce, bc.bank.readyAt());

    const Tick stall_end = quiesce + tp.tRELOCK;
    for (auto &bc : banks_)
        bc.bank.setReadyAt(std::max(bc.bank.readyAt(), stall_end));
    busFreeAt_ = std::max(busFreeAt_, stall_end);
    suspendedUntil_ = stall_end;
    counters_.relockStallTime += stall_end - quiesce;

    // Ranks drop to fast-exit precharge powerdown for the re-lock
    // window (JEDEC requires powerdown or self-refresh to change
    // frequency).
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        eq_.schedule(quiesce, [this, r] { evRelockEnter(r); },
                     EventClass::Hardware,
                     {EvChanRelockEnter, id_, r});
        eq_.schedule(stall_end, [this, r] { evRelockExit(r); },
                     EventClass::Hardware,
                     {EvChanRelockExit, id_, r});
    }

    tp_ = tp;
    if (obs_) {
        // Announce the re-lock window, then the timing that takes
        // effect at its end.
        DramCmdEvent ev;
        ev.cmd = DramCmd::Relock;
        ev.at = quiesce;
        ev.doneAt = stall_end;
        ev.channel = chanId_;
        obs_->onCommand(ev);
        obs_->onTimingChange(chanId_, stall_end, tp_);
    }
    return stall_end;
}

void
Channel::startRefresh()
{
    if (refreshRunning_)
        return;
    refreshRunning_ = true;
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        // Stagger refreshes across ranks to avoid synchronized dips.
        Tick phase = (tp_.tREFI * (r + 1)) / (ranks_.size() + 1);
        eq_.schedule(eq_.now() + phase, [this, r] { refreshRank(r); },
                     EventClass::Hardware,
                     {EvChanRefreshTick, id_, r});
    }
}

void
Channel::refreshRank(std::uint32_t r)
{
    settlePlan(r);
    const Tick now = eq_.now();
    Rank &rk = ranks_[r];

    // Ranks resident in any internally-refreshing state (self-refresh
    // or deeper) refresh themselves; skip the external refresh
    // entirely.
    if (rk.selfRefreshing()) {
        eq_.scheduleLast(now + tp_.tREFI, [this, r] { refreshRank(r); },
                         EventClass::Hardware,
                         {EvChanRefreshTick, id_, r});
        return;
    }

    const TimingParams tp = tp_;
    Tick start = std::max(now, suspendedUntil_);
    if (rk.powerdown()) {
        const Tick exit_lat = idleExitLatency(rk.idleState(), tp);
        rk.setIdleState(now, RankIdleState::Up);
        dropPlan(r);
        counters_.epdc += 1;
        Tick exit_done = now + exit_lat;
        start = std::max(start, exit_done);
        emitCke(DramCmd::PowerdownExit, now, exit_done, r);
    }
    const std::uint32_t base = r * cfg_.banksPerRank;
    for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b)
        start = std::max(start, banks_[base + b].bank.readyAt());

    const Tick end = start + tp.tRFC;
    emitCke(DramCmd::Refresh, start, end, r);
    for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b) {
        Bank &bank = banks_[base + b].bank;
        bank.setReadyAt(std::max(bank.readyAt(), end));
    }
    eq_.schedule(end, [this, r] { evRefreshDone(r); },
                 EventClass::Hardware, {EvChanRefreshDone, id_, r});
    eq_.scheduleLast(now + tp.tREFI, [this, r] { refreshRank(r); },
                     EventClass::Hardware, {EvChanRefreshTick, id_, r});
}

EventCallback
Channel::rebuildEvent(std::uint32_t kind, std::uint64_t a,
                      std::uint64_t b)
{
    // Operands come from the file: a request slot, or a rank index.
    const std::size_t limit =
        kind == EvChanBurstDone ? pool_.capacity() : ranks_.size();
    if (a >= limit)
        fatal("resume: channel %u %s event operand %llu out of range "
              "(snapshot section sim)",
              id_, eventKindName(kind),
              static_cast<unsigned long long>(a));
    auto r = static_cast<std::uint32_t>(a);
    switch (kind) {
      case EvChanBurstDone: {
        MemRequest *req = pool_.at(static_cast<std::size_t>(a));
        Tick chan_burst = b;
        Tick burst_acct = chan_burst + req->bankBurstExtra;
        return [this, req, chan_burst, burst_acct] {
            evBurstDone(req, chan_burst, burst_acct);
        };
      }
      case EvChanPreDone: {
        const bool close = b != 0;
        return [this, r, close] { evPreDone(r, close); };
      }
      case EvChanRelockEnter:
        return [this, r] { evRelockEnter(r); };
      case EvChanRelockExit:
        return [this, r] { evRelockExit(r); };
      case EvChanRefreshTick:
        return [this, r] { refreshRank(r); };
      case EvChanRefreshDone:
        return [this, r] { evRefreshDone(r); };
      default:
        panic("Channel %u: cannot rebuild event kind %s", id_,
              eventKindName(kind));
    }
}

void
Channel::checkPendingEvents(const std::vector<PendingEvent> &pend)
{
    std::vector<std::uint32_t> bursts(banks_.size(), 0);
    std::vector<std::uint32_t> closes(ranks_.size(), 0);
    std::vector<std::uint32_t> ticks(ranks_.size(), 0);
    for (const PendingEvent &pe : pend) {
        if (pe.tag.owner != id_)
            continue;
        if (pe.tag.kind == EvChanBurstDone) {
            // The completion pops its bank queue's head.
            const MemRequest *req = pool_.at(pe.tag.a);
            if (req->loc.rank >= ranks_.size() ||
                req->loc.bank >= cfg_.banksPerRank ||
                bankCtl(req->loc.rank, req->loc.bank).q.front() != req)
                fatal("resume: channel %u burst for request slot %llu, "
                      "which heads none of its bank queues (snapshot "
                      "sections mc, sim)",
                      id_, static_cast<unsigned long long>(pe.tag.a));
            ++bursts[req->loc.rank * cfg_.banksPerRank + req->loc.bank];
        } else if (pe.tag.kind == EvChanPreDone && pe.tag.b != 0) {
            ++closes[pe.tag.a];
        } else if (pe.tag.kind == EvChanRefreshTick) {
            ++ticks[pe.tag.a];
        }
    }
    for (std::size_t i = 0; i < banks_.size(); ++i) {
        if (bursts[i] != (banks_[i].bank.inService() ? 1u : 0u))
            fatal("resume: channel %u bank %zu awaits %u bursts but is "
                  "%sin service (snapshot sections mc, sim)",
                  id_, i, bursts[i],
                  banks_[i].bank.inService() ? "" : "not ");
    }
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        // A running refresh engine keeps one tick per rank pending.
        if (ticks[r] != (refreshRunning_ ? 1u : 0u))
            fatal("resume: channel %u rank %u has %u pending refresh "
                  "ticks, but its refresh engine is %s (snapshot "
                  "sections mc, sim)",
                  id_, r, ticks[r], refreshRunning_ ? "on" : "off");
        std::uint32_t open = 0;
        for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b)
            open += bankCtl(r, b).bank.rowState() == Bank::RowState::Open;
        if (ranks_[r].openBanksAfterPending() != open + closes[r])
            fatal("resume: channel %u rank %u accounts for %u open "
                  "banks, but %u are open and %u pending precharges "
                  "close more (snapshot sections mc, sim)",
                  id_, r, ranks_[r].openBanksAfterPending(), open,
                  closes[r]);
    }
}

void
Channel::transfer(SectionIO &io, const TimingParams &tp,
                  std::vector<bool> &taken)
{
    // Queues travel as request-pool slab indices, head first; a
    // restored index must name an in-flight request of this channel
    // that no other queue holds, and a bank queue's requests must
    // target that bank.
    auto queue = [&](ReqQueue &q, const BankCtl *bank) {
        std::vector<std::size_t> idx;
        for (const MemRequest *rq = q.head(); rq != nullptr;
             rq = rq->next)
            idx.push_back(pool_.indexOf(rq));
        io.list<std::uint64_t>(idx);
        if (!io.loading())
            return;
        if (!q.empty())
            panic("Channel restore: queue not empty");
        for (std::size_t i : idx) {
            if (i >= pool_.capacity())
                io.fail("queued request %zu out of the pool's %zu "
                        "slots",
                        i, pool_.capacity());
            MemRequest *rq = pool_.at(i);
            const DecodedAddr &loc = rq->loc;
            if (taken[i] || loc.channel != id_ ||
                loc.rank >= ranks_.size() ||
                loc.bank >= cfg_.banksPerRank ||
                (bank && bank != &bankCtl(loc.rank, loc.bank)))
                io.fail("queued request %zu is free, queued twice or "
                        "in another bank's queue",
                        i);
            taken[i] = true;
            q.push_back(rq);
        }
    };

    // A checkpoint is a touch: the rungs due by now apply first (and
    // count in pdDemotions).
    if (!io.loading())
        settlePlans();
    counters_.transfer(io);
    if (io.loading())
        tp_ = tp;
    std::uint64_t nranks = ranks_.size();
    io.expect("channel ranks", nranks);
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        ranks_[r].transfer(io);
        transferPlan(io, r);
    }
    if (io.loading()) {
        armedPlans_ = 0;
        for (const DemotionPlan &p : plans_)
            armedPlans_ += p.next != p.size;
    }
    std::uint64_t nbanks = banks_.size();
    io.expect("channel banks", nbanks);
    for (BankCtl &bc : banks_) {
        bc.bank.transfer(io);
        queue(bc.q, &bc);
    }
    for (Tick &t : pdExitReadyAt_)
        io(t);
    queue(writeQueue_, nullptr);
    io(drainMode_);
    io(busFreeAt_);
    io(suspendedUntil_);
    io(pending_);
    io(pendingReads_);
    io.enumByte("powerdown mode", pdMode_, PowerdownMode::Ladder);
    io(decoupledDeviceMHz_);
    io(throttleUtil_);
    io(lastBurstStart_);
    io(refreshRunning_);
    for (std::uint8_t &p : relockParked_)
        io(p);
    if (!io.loading())
        return;

    // A rank's pending opens are its banks' latest ACTs, at most one
    // per bank.  Any other tick would replay the open after the bank's
    // own later close and leave the rank closing banks it never opened.
    // Its accounting must not run ahead of the restored clock.
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        if (ranks_[r].lastUpdate() > eq_.now())
            fatal("channel %u rank %u accounted up to tick %llu, past "
                  "the snapshot's tick %llu (snapshot sections mc, sim)",
                  id_, r,
                  static_cast<unsigned long long>(ranks_[r].lastUpdate()),
                  static_cast<unsigned long long>(eq_.now()));
        std::vector<Tick> acts;
        for (std::uint32_t b = 0; b < cfg_.banksPerRank; ++b)
            acts.push_back(bankCtl(r, b).bank.lastActAt());
        for (Tick at : ranks_[r].pendingOpens()) {
            auto it = std::find(acts.begin(), acts.end(), at);
            if (it == acts.end())
                io.fail("rank %u has a deferred open at tick %llu that "
                        "is no bank's last ACT",
                        r, static_cast<unsigned long long>(at));
            acts.erase(it);
        }
    }
}

void
Channel::transferPlan(SectionIO &io, std::uint32_t r)
{
    // The pending rungs' ticks.  Each rung goes one state down from
    // the last, starting below the rank's current state.
    DemotionPlan &p = plans_[r];
    std::vector<Tick> rungs(p.at.begin() + p.next, p.at.begin() + p.size);
    io.list<std::uint8_t>(rungs);
    if (!io.loading())
        return;
    p.next = p.size = 0;
    if (rungs.empty())
        return;
    const Rank &rk = ranks_[r];
    if (!rk.powerdown())
        io.fail("rank %u has a demotion plan but is not powered down", r);
    const std::size_t first =
        static_cast<std::size_t>(rk.idleState()) -
        static_cast<std::size_t>(RankIdleState::FastPd);
    if (first + rungs.size() > p.at.size())
        io.fail("rank %u in %s plans %zu rungs, but only %zu lie below "
                "it",
                r, rankIdleStateName(rk.idleState()), rungs.size(),
                p.at.size() - first);
    if (rungs[0] <= eq_.now())
        io.fail("rank %u demotion rung at tick %llu is not after the "
                "snapshot's tick %llu",
                r, static_cast<unsigned long long>(rungs[0]),
                static_cast<unsigned long long>(eq_.now()));
    for (std::size_t i = 1; i < rungs.size(); ++i) {
        if (rungs[i] <= rungs[i - 1])
            io.fail("rank %u demotion plan ticks out of order (rung %zu "
                    "at tick %llu, after %llu)",
                    r, i, static_cast<unsigned long long>(rungs[i]),
                    static_cast<unsigned long long>(rungs[i - 1]));
    }
    p.next = static_cast<std::uint8_t>(first);
    p.size = static_cast<std::uint8_t>(first + rungs.size());
    std::copy(rungs.begin(), rungs.end(), p.at.begin() + first);
}

void
Channel::sampleRanks(Tick now, std::vector<RankActivity> &out)
{
    settlePlans();
    for (Rank &rk : ranks_)
        out.push_back(rk.sample(now));
}

std::uint32_t
Channel::ranksPoweredDown() const
{
    std::uint32_t n = 0;
    for (const Rank &rk : ranks_) {
        if (rk.powerdown())
            ++n;
    }
    return n;
}

std::uint32_t
Channel::pendingRankCloses()
{
    settlePlans();
    std::uint32_t n = 0;
    for (const Rank &rk : ranks_)
        n += rk.pendingCloses();
    return n;
}

void
Channel::registerStats(StatRegistry &reg,
                       const std::string &prefix) const
{
    reg.addCounter(prefix + ".rowHits", &counters_.rbhc);
    reg.addCounter(prefix + ".openMisses", &counters_.obmc);
    reg.addCounter(prefix + ".closedMisses", &counters_.cbmc);
    reg.addCounter(prefix + ".reads", &counters_.reads);
    reg.addCounter(prefix + ".writes", &counters_.writes);
    reg.addCounter(prefix + ".bto", &counters_.bto);
    reg.addCounter(prefix + ".btc", &counters_.btc);
    reg.addCounter(prefix + ".ctc", &counters_.ctc);
    reg.addGauge(prefix + ".cto", &counters_.cto);
    reg.addCounter(prefix + ".pdExits", &counters_.epdc);
    reg.addCounter(prefix + ".busBusyTime", &counters_.busBusyTime);
    reg.addCounter(prefix + ".readLatency",
                   &counters_.readLatencyTotal);
    reg.addCounter(prefix + ".relockStall",
                   &counters_.relockStallTime);
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        ranks_[r].registerStats(reg,
                                prefix + ".rank" + std::to_string(r));
    }
}

} // namespace memscale

#include "mem/controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stat_registry.hh"
#include "sim/event_kinds.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

MemoryController::MemoryController(EventQueue &eq, const MemConfig &cfg,
                                   FreqIndex initial)
    : eq_(eq), cfg_(cfg), map_(cfg),
      chanFreq_(cfg.numChannels, initial)
{
    const TimingParams &t = TimingParams::at(initial);
    channels_.reserve(cfg_.numChannels);
    for (std::uint32_t c = 0; c < cfg_.numChannels; ++c) {
        channels_.push_back(
            std::make_unique<Channel>(eq_, cfg_, pool_, t));
        channels_.back()->setId(c);
    }
    if (cfg_.ladder.migrate)
        migrator_ = std::make_unique<PageMigrator>(cfg_);
}

MemRequest *
MemoryController::makeRequest(Addr addr, CoreId core, bool is_write)
{
    MemRequest *req = pool_.alloc();
    req->addr = addr;
    req->isWrite = is_write;
    req->core = core;
    req->arrival = eq_.now();
    map_.decodeInto(addr, req->loc);
    if (migrator_) {
        migrator_->noteAccess(req->loc);
        req->loc.rank = migrator_->remap(req->loc);
    }
    return req;
}

void
MemoryController::read(Addr addr, CoreId core, MemClient *client)
{
    MemRequest *req = makeRequest(addr, core, false);
    req->client = client;
    channels_[req->loc.channel]->access(req);
}

void
MemoryController::writeback(Addr addr, CoreId core)
{
    MemRequest *req = makeRequest(addr, core, true);
    channels_[req->loc.channel]->access(req);
}

FreqIndex
MemoryController::frequency() const
{
    FreqIndex fastest = numFreqPoints - 1;
    for (FreqIndex f : chanFreq_)
        fastest = std::min(fastest, f);
    return fastest;
}

Tick
MemoryController::setFrequency(FreqIndex idx)
{
    if (idx >= numFreqPoints)
        fatal("MemoryController: bad frequency index %u", idx);
    bool change = false;
    for (FreqIndex f : chanFreq_)
        change |= (f != idx);
    if (!change)
        return eq_.now();
    if (beforeFreqChange_)
        beforeFreqChange_();
    freqTransitions_ += 1;
    const TimingParams &t = TimingParams::at(idx);
    Tick resume = eq_.now();
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        if (chanFreq_[c] == idx)
            continue;
        chanFreq_[c] = idx;
        resume = std::max(resume, channels_[c]->applyFrequency(t));
    }
    return resume;
}

Tick
MemoryController::setChannelFrequency(std::uint32_t channel,
                                      FreqIndex idx)
{
    if (idx >= numFreqPoints)
        fatal("MemoryController: bad frequency index %u", idx);
    if (channel >= channels_.size())
        fatal("MemoryController: bad channel %u", channel);
    if (chanFreq_[channel] == idx)
        return eq_.now();
    if (beforeFreqChange_)
        beforeFreqChange_();
    freqTransitions_ += 1;
    chanFreq_[channel] = idx;
    return channels_[channel]->applyFrequency(TimingParams::at(idx));
}

void
MemoryController::setPowerdownMode(PowerdownMode mode)
{
    for (auto &ch : channels_)
        ch->setPowerdownMode(mode);
}

void
MemoryController::setDecoupled(std::uint32_t device_mhz)
{
    decoupledMHz_ = device_mhz;
    for (auto &ch : channels_)
        ch->setDecoupled(device_mhz);
}

void
MemoryController::setThrottle(double max_utilization)
{
    for (auto &ch : channels_)
        ch->setThrottle(max_utilization);
}

void
MemoryController::setCommandObserver(CommandObserver *obs)
{
    for (std::uint32_t c = 0; c < channels_.size(); ++c)
        channels_[c]->setCommandObserver(obs, c);
}

void
MemoryController::startRefresh()
{
    for (auto &ch : channels_)
        ch->startRefresh();
}

void
MemoryController::addRankTimes(McCounters &out, Channel &ch)
{
    std::vector<RankActivity> acts;
    ch.sampleRanks(eq_.now(), acts);
    for (const RankActivity &a : acts) {
        // POCC comes from the ranks: each counts an ACT/PRE pair when
        // its deferred open applies, so the sum is exact at any tick.
        out.pocc += a.actPreCount;
        out.rankTime += a.totalTime;
        out.rankPreTime += a.preStandbyTime + a.prePowerdownTime;
        out.rankPrePdTime += a.prePowerdownTime;
        out.rankActPdTime += a.actPowerdownTime;
        out.rankSrTime += a.selfRefreshTime;
        out.rankSrSlowTime += a.srSlowClockTime;
        out.rankDeepPdTime += a.deepPowerdownTime;
    }
}

void
MemoryController::startMigration()
{
    if (!migrator_ || migrateArmed_)
        return;
    migrateArmed_ = true;
    armMigrate();
}

void
MemoryController::armMigrate()
{
    eq_.schedule(eq_.now() + cfg_.ladder.migrateInterval,
                 [this] { evMigrate(); }, EventClass::Hardware,
                 {EvMemMigrate, 0, 0});
}

void
MemoryController::evMigrate()
{
    std::vector<MigrationSwap> swaps;
    migrator_->runPass(swaps);
    for (const MigrationSwap &s : swaps) {
        for (std::uint32_t l = 0; l < cfg_.ladder.migrationLines;
             ++l) {
            DecodedAddr from;
            from.channel = s.channel;
            from.rank = s.rankFrom;
            from.bank = s.bank;
            from.row = s.row;
            from.column = l % cfg_.linesPerRow();
            DecodedAddr to = from;
            to.rank = s.rankTo;
            // Swap = read both frames, write both crosswise.
            issueCopy(from, false);
            issueCopy(to, false);
            issueCopy(to, true);
            issueCopy(from, true);
        }
    }
    armMigrate();
}

void
MemoryController::issueCopy(const DecodedAddr &loc, bool is_write)
{
    MemRequest *req = pool_.alloc();
    req->loc = loc;
    req->addr = map_.encode(loc);
    req->isWrite = is_write;
    req->core = 0;
    req->arrival = eq_.now();
    channels_[loc.channel]->access(req);
}

EventCallback
MemoryController::rebuildMigrationEvent()
{
    if (!migrator_)
        fatal("resume: snapshot has a migration event but "
              "consolidation is disabled (snapshot section sim)");
    return [this] { evMigrate(); };
}

McCounters
MemoryController::sampleCounters()
{
    McCounters out;
    for (auto &ch : channels_) {
        const McCounters &c = ch->counters();
        out.bto += c.bto;
        out.btc += c.btc;
        out.cto += c.cto;
        out.ctc += c.ctc;
        out.rbhc += c.rbhc;
        out.obmc += c.obmc;
        out.cbmc += c.cbmc;
        out.epdc += c.epdc;
        out.pdDemotions += c.pdDemotions;
        out.reads += c.reads;
        out.writes += c.writes;
        out.busBusyTime += c.busBusyTime;
        out.readLatencyTotal += c.readLatencyTotal;
        out.relockStallTime += c.relockStallTime;
        addRankTimes(out, *ch);
    }
    out.freqTransitions = freqTransitions_;
    if (migrator_)
        out.migrations = migrator_->swapsPerformed();
    return out;
}

McCounters
MemoryController::sampleChannelCounters(std::uint32_t ch)
{
    if (ch >= channels_.size())
        fatal("MemoryController: bad channel %u", ch);
    McCounters out = channels_[ch]->counters();
    addRankTimes(out, *channels_[ch]);
    return out;
}

IntervalActivity
MemoryController::sampleActivity()
{
    IntervalActivity ia;
    ia.busMHz = busMHz();
    ia.deviceBusMHz = decoupledMHz_;
    ia.ranksPerChannel = cfg_.ranksPerChannel();
    ia.numDimms = cfg_.totalDimms();
    const Tick now = eq_.now();
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        channels_[c]->sampleRanks(now, ia.ranks);
        ia.channelBurst.push_back(channels_[c]->counters().busBusyTime);
        ia.channelMHz.push_back(
            TimingParams::at(chanFreq_[c]).busMHz);
    }
    return ia;
}

void
MemoryController::registerStats(StatRegistry &reg,
                                const std::string &prefix) const
{
    reg.addCounter(prefix + ".freqTransitions", &freqTransitions_);
    if (migrator_)
        migrator_->registerStats(reg, prefix + ".migrator");
    reg.addGauge(prefix + ".busMHz", [this] {
        return static_cast<double>(busMHz());
    });
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const std::string chan =
            prefix + ".chan" + std::to_string(c);
        reg.addGauge(chan + ".busMHz", [this, c] {
            return static_cast<double>(
                TimingParams::at(chanFreq_[c]).busMHz);
        });
        channels_[c]->registerStats(reg, chan);
    }
}

void
MemoryController::transfer(SectionIO &io,
                           const std::vector<MemClient *> &clients)
{
    // Pool layout first: restore must materialize the slab before
    // queue contents and event tags can resolve indices into it.
    std::size_t cap = pool_.capacity();
    std::vector<std::size_t> free = pool_.freeListIndices();
    io(cap);
    io.list<std::uint64_t>(free);
    if (io.loading()) {
        // Every in-flight request takes at least one byte, so a
        // capacity the section cannot hold is corrupt; checking it
        // first bounds the slab by the file size.
        if (cap % RequestPool::ChunkSize != 0 || free.size() > cap ||
            cap - free.size() > io.reader().remaining())
            io.fail("bad request pool layout (%zu slots, %zu free)", cap,
                    free.size());
        std::vector<bool> seen(cap, false);
        for (std::size_t idx : free) {
            if (idx >= cap || seen[idx])
                io.fail("free request slot %zu out of range or "
                        "repeated",
                        idx);
            seen[idx] = true;
        }
        pool_.restoreLayout(cap, free);
    }

    std::vector<bool> is_free(cap, false);
    for (std::size_t idx : free)
        is_free[idx] = true;
    for (std::size_t i = 0; i < cap; ++i) {
        if (is_free[i])
            continue;
        MemRequest *q = pool_.at(i);
        io(q->addr);
        io(q->isWrite);
        io(q->core);
        io(q->arrival);
        io(q->loc.channel);
        io(q->loc.rank);
        io(q->loc.bank);
        io(q->loc.row);
        io(q->loc.column);
        io(q->serviceStart);
        io(q->dataReady);
        io(q->burstStart);
        io(q->burstEnd);
        io.enumByte("request row outcome", q->outcome,
                    RowOutcome::ClosedMiss);
        io(q->sawPowerdownExit);
        io(q->bankBurstExtra);
        bool has_client = q->client != nullptr;
        io(has_client);
        if (!io.loading())
            continue;
        q->client = nullptr;
        if (has_client) {
            if (q->core >= clients.size() ||
                clients[q->core] == nullptr) {
                io.fail("restored request (core %u) has no client to "
                        "rebind",
                        q->core);
            }
            q->client = clients[q->core];
        }
        q->prev = nullptr;
        q->next = nullptr;
    }

    std::uint32_t nchan = static_cast<std::uint32_t>(channels_.size());
    io.expect("channels", nchan);
    for (FreqIndex &f : chanFreq_) {
        io(f);
        if (f >= numFreqPoints)
            io.fail("channel frequency index %u out of range", f);
    }
    io(freqTransitions_);
    io(decoupledMHz_);
    for (std::uint32_t c = 0; c < channels_.size(); ++c)
        channels_[c]->transfer(io, TimingParams::at(chanFreq_[c]), is_free);
    // Config-gated: snapshot meta pins the ladder config, so writer
    // and reader agree on whether this trailer exists.
    if (migrator_) {
        io(migrateArmed_);
        migrator_->transfer(io);
    }
}

EventCallback
MemoryController::rebuildChannelEvent(std::uint32_t owner,
                                      std::uint32_t kind,
                                      std::uint64_t a, std::uint64_t b)
{
    if (owner >= channels_.size())
        fatal("resume: event owner %u out of %zu channels (snapshot "
              "section sim)",
              owner, channels_.size());
    return channels_[owner]->rebuildEvent(kind, a, b);
}

void
MemoryController::checkPendingEvents(const std::vector<PendingEvent> &pend)
{
    for (auto &ch : channels_)
        ch->checkPendingEvents(pend);
}

std::size_t
MemoryController::pending() const
{
    std::size_t n = 0;
    for (const auto &ch : channels_)
        n += ch->pending();
    return n;
}

std::uint32_t
MemoryController::ranksPoweredDown() const
{
    std::uint32_t n = 0;
    for (const auto &ch : channels_)
        n += ch->ranksPoweredDown();
    return n;
}

std::uint32_t
MemoryController::pendingRankCloses()
{
    std::uint32_t n = 0;
    for (const auto &ch : channels_)
        n += ch->pendingRankCloses();
    return n;
}

} // namespace memscale

#include "dram/rank.hh"

#include <algorithm>

#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

const char *
rankIdleStateName(RankIdleState s)
{
    switch (s) {
      case RankIdleState::Up:          return "up";
      case RankIdleState::FastPd:      return "fast-pd";
      case RankIdleState::SlowPd:      return "slow-pd";
      case RankIdleState::SelfRefresh: return "self-refresh";
      case RankIdleState::SrSlowClock: return "sr-slow-clock";
      case RankIdleState::DeepPd:      return "deep-pd";
    }
    return "?";
}

Tick
idleExitLatency(RankIdleState s, const TimingParams &tp)
{
    switch (s) {
      case RankIdleState::Up:          return 0;
      case RankIdleState::FastPd:      return tp.tXP;
      case RankIdleState::SlowPd:      return tp.tXPDLL;
      case RankIdleState::SelfRefresh: return tp.tXS;
      case RankIdleState::SrSlowClock: return tp.tXSDLL;
      case RankIdleState::DeepPd:      return tp.tXDP;
    }
    return 0;
}

RankActivity
RankActivity::operator-(const RankActivity &o) const
{
    RankActivity r;
    r.preStandbyTime = preStandbyTime - o.preStandbyTime;
    r.prePowerdownTime = prePowerdownTime - o.prePowerdownTime;
    r.slowPowerdownTime = slowPowerdownTime - o.slowPowerdownTime;
    r.selfRefreshTime = selfRefreshTime - o.selfRefreshTime;
    r.srSlowClockTime = srSlowClockTime - o.srSlowClockTime;
    r.deepPowerdownTime = deepPowerdownTime - o.deepPowerdownTime;
    r.actStandbyTime = actStandbyTime - o.actStandbyTime;
    r.actPowerdownTime = actPowerdownTime - o.actPowerdownTime;
    r.totalTime = totalTime - o.totalTime;
    r.actPreCount = actPreCount - o.actPreCount;
    r.readBursts = readBursts - o.readBursts;
    r.writeBursts = writeBursts - o.writeBursts;
    r.readBurstTime = readBurstTime - o.readBurstTime;
    r.writeBurstTime = writeBurstTime - o.writeBurstTime;
    r.refreshes = refreshes - o.refreshes;
    r.pdExits = pdExits - o.pdExits;
    return r;
}

RankActivity &
RankActivity::operator+=(const RankActivity &o)
{
    preStandbyTime += o.preStandbyTime;
    prePowerdownTime += o.prePowerdownTime;
    slowPowerdownTime += o.slowPowerdownTime;
    selfRefreshTime += o.selfRefreshTime;
    srSlowClockTime += o.srSlowClockTime;
    deepPowerdownTime += o.deepPowerdownTime;
    actStandbyTime += o.actStandbyTime;
    actPowerdownTime += o.actPowerdownTime;
    totalTime += o.totalTime;
    actPreCount += o.actPreCount;
    readBursts += o.readBursts;
    writeBursts += o.writeBursts;
    readBurstTime += o.readBurstTime;
    writeBurstTime += o.writeBurstTime;
    refreshes += o.refreshes;
    pdExits += o.pdExits;
    return *this;
}

double
RankActivity::preFraction() const
{
    if (totalTime == 0)
        return 1.0;
    return static_cast<double>(preStandbyTime + prePowerdownTime) /
           static_cast<double>(totalTime);
}

void
RankActivity::transfer(SectionIO &io)
{
    io(preStandbyTime);
    io(prePowerdownTime);
    io(slowPowerdownTime);
    io(selfRefreshTime);
    io(srSlowClockTime);
    io(deepPowerdownTime);
    io(actStandbyTime);
    io(actPowerdownTime);
    io(totalTime);
    io(actPreCount);
    io(readBursts);
    io(writeBursts);
    io(readBurstTime);
    io(writeBurstTime);
    io(refreshes);
    io(pdExits);
}

void
Rank::transfer(SectionIO &io)
{
    activity_.transfer(io);
    io(lastUpdate_);
    io(openBanks_);
    io.enumByte("Rank idle state", idle_, RankIdleState::DeepPd);
    io(numRecentActs_);
    if (numRecentActs_ > recentActs_.size())
        io.fail("Rank restore: %u recent ACTs exceeds window of %zu",
                numRecentActs_, recentActs_.size());
    for (std::uint32_t i = 0; i < numRecentActs_; ++i)
        io(recentActs_[i]);
    io(numPending_);
    if (numPending_ > pending_.size())
        io.fail("Rank restore: %u deferred transitions exceed the "
                "buffer of %zu",
                numPending_, pending_.size());
    for (std::uint32_t i = 0; i < numPending_; ++i) {
        io(pending_[i].at);
        auto kind = static_cast<std::uint8_t>(pending_[i].open);
        io(kind);
        if (kind > 1)
            io.fail("Rank restore: deferred transition %u has kind %u", i,
                    kind);
        pending_[i].open = kind != 0;
    }
    if (!io.loading())
        return;

    std::fill(recentActs_.begin() + numRecentActs_, recentActs_.end(),
              Tick{0});
    std::fill(pending_.begin() + numPending_, pending_.end(),
              Transition{});
    // Deferred transitions: refuse any buffer the live simulator could
    // not have produced, rather than replaying it into bad accounting.
    std::uint32_t open = openBanks_;
    for (std::uint32_t i = 0; i < numPending_; ++i) {
        const Transition &t = pending_[i];
        if (t.at < lastUpdate_)
            io.fail("Rank restore: deferred transition %u "
                    "at tick %llu precedes the last update at %llu",
                    i, static_cast<unsigned long long>(t.at),
                    static_cast<unsigned long long>(lastUpdate_));
        if (i > 0 && t.at < pending_[i - 1].at)
            io.fail("Rank restore: deferred transition %u is out of tick "
                    "order",
                    i);
        if (t.open) {
            ++open;
        } else if (open == 0) {
            io.fail("Rank restore: deferred transition %u "
                    "closes a bank with none open",
                    i);
        } else {
            --open;
        }
    }
}

std::uint32_t
Rank::pendingCloses() const
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < numPending_; ++i)
        n += pending_[i].open ? 0 : 1;
    return n;
}

std::uint32_t
Rank::openBanksAfterPending() const
{
    // A restored buffer never closes more banks than are open
    // (transfer() refuses one that does), so this cannot wrap.
    std::uint32_t n = openBanks_;
    for (std::uint32_t i = 0; i < numPending_; ++i)
        n = pending_[i].open ? n + 1 : n - 1;
    return n;
}

std::vector<Tick>
Rank::pendingOpens() const
{
    std::vector<Tick> out;
    for (std::uint32_t i = 0; i < numPending_; ++i) {
        if (pending_[i].open)
            out.push_back(pending_[i].at);
    }
    return out;
}

std::optional<Tick>
Rank::latestPendingClose() const
{
    for (std::uint32_t i = numPending_; i > 0; --i) {
        if (!pending_[i - 1].open)
            return pending_[i - 1].at;
    }
    return std::nullopt;
}

void
Rank::setIdleState(Tick at, RankIdleState s)
{
    if (s == idle_)
        return;
    sync(at);
    if (idle_ != RankIdleState::Up && s == RankIdleState::Up)
        ++activity_.pdExits;
    idle_ = s;
}

const RankActivity &
Rank::sample(Tick now)
{
    sync(now);
    return activity_;
}

void
Rank::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".preTime", &activity_.preStandbyTime);
    reg.addCounter(prefix + ".prePdTime",
                   &activity_.prePowerdownTime);
    reg.addCounter(prefix + ".slowPdTime",
                   &activity_.slowPowerdownTime);
    reg.addCounter(prefix + ".srTime", &activity_.selfRefreshTime);
    reg.addCounter(prefix + ".srSlowTime", &activity_.srSlowClockTime);
    reg.addCounter(prefix + ".deepPdTime",
                   &activity_.deepPowerdownTime);
    reg.addCounter(prefix + ".actTime", &activity_.actStandbyTime);
    reg.addCounter(prefix + ".actPdTime",
                   &activity_.actPowerdownTime);
    reg.addCounter(prefix + ".totalTime", &activity_.totalTime);
    reg.addCounter(prefix + ".actPre", &activity_.actPreCount);
    reg.addCounter(prefix + ".readBursts", &activity_.readBursts);
    reg.addCounter(prefix + ".writeBursts", &activity_.writeBursts);
    reg.addCounter(prefix + ".refreshes", &activity_.refreshes);
    reg.addCounter(prefix + ".pdExits", &activity_.pdExits);
}

} // namespace memscale

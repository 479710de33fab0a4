#include "dram/rank.hh"

#include <algorithm>

#include "common/log.hh"
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

double
RankActivity::prePowerdownFraction() const
{
    if (totalTime == 0)
        return 0.0;
    return static_cast<double>(prePowerdownTime) /
           static_cast<double>(totalTime);
}

double
RankActivity::actPowerdownFraction() const
{
    if (totalTime == 0)
        return 0.0;
    return static_cast<double>(actPowerdownTime) /
           static_cast<double>(totalTime);
}

void
RankActivity::saveState(SectionWriter &w) const
{
    w.u64(preStandbyTime);
    w.u64(prePowerdownTime);
    w.u64(slowPowerdownTime);
    w.u64(selfRefreshTime);
    w.u64(srSlowClockTime);
    w.u64(deepPowerdownTime);
    w.u64(actStandbyTime);
    w.u64(actPowerdownTime);
    w.u64(totalTime);
    w.u64(actPreCount);
    w.u64(readBursts);
    w.u64(writeBursts);
    w.u64(readBurstTime);
    w.u64(writeBurstTime);
    w.u64(refreshes);
    w.u64(pdExits);
}

void
RankActivity::restoreState(SectionReader &r)
{
    preStandbyTime = r.u64();
    prePowerdownTime = r.u64();
    slowPowerdownTime = r.u64();
    selfRefreshTime = r.u64();
    srSlowClockTime = r.u64();
    deepPowerdownTime = r.u64();
    actStandbyTime = r.u64();
    actPowerdownTime = r.u64();
    totalTime = r.u64();
    actPreCount = r.u64();
    readBursts = r.u64();
    writeBursts = r.u64();
    readBurstTime = r.u64();
    writeBurstTime = r.u64();
    refreshes = r.u64();
    pdExits = r.u64();
}

void
Rank::saveState(SectionWriter &w) const
{
    activity_.saveState(w);
    w.u64(lastUpdate_);
    w.u32(openBanks_);
    w.u8(static_cast<std::uint8_t>(idle_));
    w.u32(numRecentActs_);
    for (std::uint32_t i = 0; i < numRecentActs_; ++i)
        w.u64(recentActs_[i]);
}

void
Rank::restoreState(SectionReader &r)
{
    activity_.restoreState(r);
    lastUpdate_ = r.u64();
    openBanks_ = r.u32();
    const std::uint8_t s = r.u8();
    if (s > static_cast<std::uint8_t>(RankIdleState::DeepPd))
        fatal("Rank restore: idle state %u out of range", s);
    idle_ = static_cast<RankIdleState>(s);
    numRecentActs_ = r.u32();
    if (numRecentActs_ > recentActs_.size())
        fatal("Rank restore: %u recent ACTs exceeds window of %zu",
              numRecentActs_, recentActs_.size());
    recentActs_ = {};
    for (std::uint32_t i = 0; i < numRecentActs_; ++i)
        recentActs_[i] = r.u64();
}

void
Rank::sync(Tick now)
{
    if (now < lastUpdate_)
        panic("Rank accounting timestamp regressed (%llu < %llu)",
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(lastUpdate_));
    Tick dt = now - lastUpdate_;
    lastUpdate_ = now;
    if (dt == 0)
        return;
    activity_.totalTime += dt;
    if (openBanks_ == 0) {
        switch (idle_) {
          case RankIdleState::Up:
            activity_.preStandbyTime += dt;
            break;
          case RankIdleState::FastPd:
            activity_.prePowerdownTime += dt;
            break;
          case RankIdleState::SlowPd:
            activity_.prePowerdownTime += dt;
            activity_.slowPowerdownTime += dt;
            break;
          case RankIdleState::SelfRefresh:
            activity_.prePowerdownTime += dt;
            activity_.selfRefreshTime += dt;
            break;
          case RankIdleState::SrSlowClock:
            activity_.prePowerdownTime += dt;
            activity_.srSlowClockTime += dt;
            break;
          case RankIdleState::DeepPd:
            activity_.prePowerdownTime += dt;
            activity_.deepPowerdownTime += dt;
            break;
        }
    } else {
        if (idle_ != RankIdleState::Up)
            activity_.actPowerdownTime += dt;
        else
            activity_.actStandbyTime += dt;
    }
}

void
Rank::bankOpened(Tick at)
{
    sync(at);
    ++openBanks_;
}

void
Rank::bankClosed(Tick at)
{
    if (openBanks_ == 0)
        panic("Rank: bankClosed with no open banks");
    sync(at);
    --openBanks_;
}

void
Rank::setPowerdown(Tick at, bool low, bool slow_exit,
                   bool self_refresh)
{
    RankIdleState s = RankIdleState::Up;
    if (low) {
        if (self_refresh)
            s = RankIdleState::SelfRefresh;
        else if (slow_exit)
            s = RankIdleState::SlowPd;
        else
            s = RankIdleState::FastPd;
    }
    setIdleState(at, s);
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

void
Rank::noteBurst(bool is_write, Tick duration)
{
    if (is_write) {
        ++activity_.writeBursts;
        activity_.writeBurstTime += duration;
    } else {
        ++activity_.readBursts;
        activity_.readBurstTime += duration;
    }
}

Tick
Rank::earliestAct(Tick t, const TimingParams &tp) const
{
    Tick earliest = t;
    if (numRecentActs_ > 0) {
        // tRRD from the latest recorded ACT.
        Tick latest = recentActs_[numRecentActs_ - 1];
        if (latest + tp.tRRD > earliest)
            earliest = latest + tp.tRRD;
    }
    if (numRecentActs_ >= 4) {
        // tFAW: at most 4 ACTs within any tFAW window; the new ACT
        // must wait until the 4th-most-recent ACT ages out.
        Tick fourth = recentActs_[numRecentActs_ - 4];
        if (fourth + tp.tFAW > earliest)
            earliest = fourth + tp.tFAW;
    }
    return earliest;
}

void
Rank::recordAct(Tick when)
{
    // Keep the window sorted; planning may insert slightly out of
    // wall-clock order across banks, so place `when` with one
    // insertion step into the already sorted window.
    if (numRecentActs_ == recentActs_.size()) {
        std::copy(recentActs_.begin() + 1, recentActs_.end(),
                  recentActs_.begin());
        --numRecentActs_;
    }
    std::size_t i = numRecentActs_++;
    for (; i > 0 && recentActs_[i - 1] > when; --i)
        recentActs_[i] = recentActs_[i - 1];
    recentActs_[i] = when;
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

void
Rank::reset()
{
    activity_ = RankActivity();
    lastUpdate_ = 0;
    openBanks_ = 0;
    idle_ = RankIdleState::Up;
    recentActs_ = {};
    numRecentActs_ = 0;
}

} // namespace memscale

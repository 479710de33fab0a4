#include "check/protocol_checker.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "common/config.hh"
#include "common/log.hh"
#include "dram/rank.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

namespace
{

const char *
cmdName(DramCmd c)
{
    switch (c) {
      case DramCmd::Act: return "ACT";
      case DramCmd::Pre: return "PRE";
      case DramCmd::Read: return "RD";
      case DramCmd::Write: return "WR";
      case DramCmd::Refresh: return "REF";
      case DramCmd::PowerdownEnter: return "PDE";
      case DramCmd::PowerdownExit: return "PDX";
      case DramCmd::Relock: return "RELOCK";
    }
    return "?";
}

std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/**
 * How far back rank-level ACT history is kept relative to the newest
 * tick seen.  Cross-bank command announcements can arrive out of tick
 * order (planning happens at request granularity), but never further
 * apart than a handful of activate windows; pruning beyond this can
 * only miss a violation, never invent one.
 */
constexpr int ActHistoryWindows = 4;
constexpr std::size_t MaxActHistory = 64;
constexpr std::size_t MaxRefreshWindows = 8;
constexpr std::size_t MaxRelockWindows = 4;

/**
 * DDR3 allows postponing auto-refresh by up to 8 tREFI; a gap beyond
 * 9 tREFI between refreshes means the refresh chain starved or died.
 */
constexpr Tick RefreshStarvationREFIs = 9;

} // namespace

std::string
ProtocolViolation::str() const
{
    std::string where = format("ch %u rank %u", channel, rank);
    if (bank != AllBanks)
        where += format(" bank %u", bank);
    return format("%s violation at tick %llu (%s, cmd %s): ",
                  rule.c_str(),
                  static_cast<unsigned long long>(at), where.c_str(),
                  cmdName(cmd)) +
           detail;
}

ProtocolChecker::ProtocolChecker(bool strict) : strict_(strict) {}

bool
ProtocolChecker::strictEnv()
{
    const char *v = envSwitch(EnvSwitch::Strict);
    if (!v)
        return false;
    return std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
           std::strcmp(v, "ON") == 0 || std::strcmp(v, "true") == 0 ||
           std::strcmp(v, "yes") == 0;
}

ProtocolChecker::ChannelState &
ProtocolChecker::chan(std::uint32_t ch)
{
    if (ch >= channels_.size())
        channels_.resize(ch + 1);
    return channels_[ch];
}

ProtocolChecker::RankState &
ProtocolChecker::rank(ChannelState &cs, std::uint32_t r)
{
    if (r >= cs.ranks.size())
        cs.ranks.resize(r + 1);
    return cs.ranks[r];
}

ProtocolChecker::BankState &
ProtocolChecker::bank(RankState &rs, std::uint32_t b)
{
    if (b >= rs.banks.size())
        rs.banks.resize(b + 1);
    return rs.banks[b];
}

const TimingParams &
ProtocolChecker::paramsAt(const ChannelState &cs, Tick t) const
{
    // Last entry whose effective tick is <= t; onTimingChange keeps
    // the list ascending and non-empty after attach.
    if (cs.timings.empty())
        return TimingParams::at(nominalFreqIndex);
    auto it = std::upper_bound(
        cs.timings.begin(), cs.timings.end(), t,
        [](Tick v, const auto &e) { return v < e.first; });
    return it == cs.timings.begin() ? it->second : std::prev(it)->second;
}

void
ProtocolChecker::onTimingChange(std::uint32_t ch, Tick effective,
                                const TimingParams &tp)
{
    ChannelState &cs = chan(ch);
    if (!cs.timings.empty() && cs.timings.back().first == effective) {
        cs.timings.back().second = tp;
        return;
    }
    if (!cs.timings.empty() && cs.timings.back().first > effective) {
        // Announced out of order: the later change supersedes the
        // history after it, which keeps the list ascending.
        DramCmdEvent ev;
        ev.cmd = DramCmd::Relock;
        ev.at = effective;
        ev.channel = ch;
        record(cs, ev, "timing-order",
               format("timing change effective at %llu after one "
                      "effective at %llu",
                      static_cast<unsigned long long>(effective),
                      static_cast<unsigned long long>(
                          cs.timings.back().first)));
        while (!cs.timings.empty() && cs.timings.back().first > effective)
            cs.timings.pop_back();
        if (!cs.timings.empty() && cs.timings.back().first == effective) {
            cs.timings.back().second = tp;
            return;
        }
    }
    cs.timings.emplace_back(effective, tp);
}

void
ProtocolChecker::record(ChannelState &cs, const DramCmdEvent &ev,
                        const char *rule, std::string detail)
{
    ProtocolViolation v;
    v.rule = rule;
    v.at = ev.at;
    v.channel = ev.channel;
    v.rank = ev.rank;
    v.bank = ev.bank;
    v.cmd = ev.cmd;
    v.detail = std::move(detail);
    ++cs.violations;
    if (cs.samples.size() < MaxSamples)
        cs.samples.push_back(v);
    if (strict_)
        fatal("MEMSCALE_STRICT: %s", v.str().c_str());
}

std::uint64_t
ProtocolChecker::violations() const
{
    std::uint64_t n = 0;
    for (const ChannelState &cs : channels_)
        n += cs.violations;
    return n;
}

std::uint64_t
ProtocolChecker::commandsChecked() const
{
    std::uint64_t n = 0;
    for (const ChannelState &cs : channels_)
        n += cs.commands;
    return n;
}

std::uint64_t
ProtocolChecker::relocksSeen() const
{
    std::uint64_t n = 0;
    for (const ChannelState &cs : channels_)
        n += cs.relockCount;
    return n;
}

const std::vector<ProtocolViolation> &
ProtocolChecker::samples() const
{
    mergedSamples_.clear();
    for (const ChannelState &cs : channels_) {
        for (const ProtocolViolation &v : cs.samples) {
            if (mergedSamples_.size() == MaxSamples)
                return mergedSamples_;
            mergedSamples_.push_back(v);
        }
    }
    return mergedSamples_;
}

void
ProtocolChecker::checkWindows(const DramCmdEvent &ev, ChannelState &cs,
                              RankState &rs, bool data_cmd)
{
    for (const auto &[s, e] : cs.relocks) {
        if (ev.at >= s && ev.at < e) {
            record(cs, ev, "relock-window",
                   format("command inside re-lock quiescence "
                          "[%llu, %llu)",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(e)));
            break;
        }
    }
    for (const auto &[s, e] : rs.refreshes) {
        if (ev.at >= s && ev.at < e) {
            record(cs, ev, "refresh-window",
                   format("command inside refresh busy window "
                          "[%llu, %llu)",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(e)));
            break;
        }
    }
    if (rs.pdEnter != MaxTick && ev.at >= rs.pdEnter) {
        record(cs, ev, "powerdown",
               format("command while CKE low (since tick %llu, no "
                      "exit announced)",
                      static_cast<unsigned long long>(rs.pdEnter)));
    } else if (data_cmd && ev.at < rs.pdReady) {
        record(cs, ev, "powerdown-exit",
               format("command %llu ticks before powerdown exit "
                      "latency elapses (ready at %llu)",
                      static_cast<unsigned long long>(rs.pdReady -
                                                      ev.at),
                      static_cast<unsigned long long>(rs.pdReady)));
    }
}

void
ProtocolChecker::checkAct(const DramCmdEvent &ev, ChannelState &cs)
{
    const TimingParams &tp = paramsAt(cs, ev.at);
    RankState &rs = rank(cs, ev.rank);
    BankState &bs = bank(rs, ev.bank);

    checkWindows(ev, cs, rs, true);

    if (bs.cmdSeen && ev.at < bs.lastCmd) {
        record(cs, ev, "command-order",
               format("per-bank command stream regressed (last "
                      "command at %llu)",
                      static_cast<unsigned long long>(bs.lastCmd)));
    }
    if (bs.open) {
        record(cs, ev, "act-on-open-bank",
               format("row %llu still open (no intervening precharge)",
                      static_cast<unsigned long long>(bs.row)));
    }
    if (bs.preSeen && ev.at < bs.lastPreDone) {
        record(cs, ev, "tRP",
               format("activate %llu ticks before precharge completes "
                      "at %llu",
                      static_cast<unsigned long long>(bs.lastPreDone -
                                                      ev.at),
                      static_cast<unsigned long long>(bs.lastPreDone)));
    }
    if (bs.actSeen && ev.at < bs.lastAct + tp.tRC()) {
        record(cs, ev, "tRC",
               format("activate-to-activate gap %llu < tRC %llu",
                      static_cast<unsigned long long>(ev.at -
                                                      bs.lastAct),
                      static_cast<unsigned long long>(tp.tRC())));
    }

    // Rank-level activate-window constraints against the sorted
    // history (announcements may interleave across banks out of tick
    // order, so insert in order and check both neighbours).
    auto &acts = rs.acts;
    auto pos = std::upper_bound(acts.begin(), acts.end(), ev.at);
    std::size_t i = static_cast<std::size_t>(pos - acts.begin());
    acts.insert(pos, ev.at);
    if (i > 0 && ev.at - acts[i - 1] < tp.tRRD) {
        record(cs, ev, "tRRD",
               format("activate %llu ticks after previous rank "
                      "activate (tRRD %llu)",
                      static_cast<unsigned long long>(ev.at -
                                                      acts[i - 1]),
                      static_cast<unsigned long long>(tp.tRRD)));
    }
    if (i + 1 < acts.size() && acts[i + 1] - ev.at < tp.tRRD) {
        record(cs, ev, "tRRD",
               format("activate %llu ticks before next rank activate "
                      "(tRRD %llu)",
                      static_cast<unsigned long long>(acts[i + 1] -
                                                      ev.at),
                      static_cast<unsigned long long>(tp.tRRD)));
    }
    for (std::size_t j = std::max<std::size_t>(i, 4);
         j < acts.size() && j <= i + 4; ++j) {
        if (acts[j] - acts[j - 4] < tp.tFAW) {
            record(cs, ev, "tFAW",
                   format("5 activates within %llu ticks (tFAW %llu)",
                          static_cast<unsigned long long>(
                              acts[j] - acts[j - 4]),
                          static_cast<unsigned long long>(tp.tFAW)));
            break;
        }
    }
    // Prune: keep a generous out-of-order horizon behind the newest
    // ACT; dropping older history can only miss violations.
    const Tick newest = acts.back();
    const Tick horizon = tp.tFAW * ActHistoryWindows;
    while (acts.size() > MaxActHistory ||
           (!acts.empty() && acts.front() + horizon < newest)) {
        acts.erase(acts.begin());
    }

    bs.open = true;
    bs.row = ev.row;
    bs.actSeen = true;
    bs.lastAct = ev.at;
    bs.cmdSeen = true;
    bs.lastCmd = ev.at;
}

void
ProtocolChecker::checkPre(const DramCmdEvent &ev, ChannelState &cs)
{
    const TimingParams &tp = paramsAt(cs, ev.at);
    RankState &rs = rank(cs, ev.rank);
    BankState &bs = bank(rs, ev.bank);

    checkWindows(ev, cs, rs, false);

    if (bs.cmdSeen && ev.at < bs.lastCmd) {
        record(cs, ev, "command-order",
               format("per-bank command stream regressed (last "
                      "command at %llu)",
                      static_cast<unsigned long long>(bs.lastCmd)));
    }
    if (bs.open && bs.actSeen && ev.at < bs.lastAct + tp.tRAS) {
        record(cs, ev, "tRAS",
               format("precharge %llu ticks after activate (tRAS "
                      "%llu)",
                      static_cast<unsigned long long>(ev.at -
                                                      bs.lastAct),
                      static_cast<unsigned long long>(tp.tRAS)));
    }
    if (ev.doneAt < ev.at + tp.tRP) {
        record(cs, ev, "tRP",
               format("precharge window %llu < tRP %llu",
                      static_cast<unsigned long long>(ev.doneAt -
                                                      ev.at),
                      static_cast<unsigned long long>(tp.tRP)));
    }

    bs.open = false;
    bs.preSeen = true;
    bs.lastPreDone = ev.doneAt;
    bs.cmdSeen = true;
    bs.lastCmd = ev.at;
}

void
ProtocolChecker::checkColumn(const DramCmdEvent &ev, ChannelState &cs)
{
    const TimingParams &tp = paramsAt(cs, ev.at);
    RankState &rs = rank(cs, ev.rank);
    BankState &bs = bank(rs, ev.bank);

    checkWindows(ev, cs, rs, true);

    if (bs.cmdSeen && ev.at < bs.lastCmd) {
        record(cs, ev, "command-order",
               format("per-bank command stream regressed (last "
                      "command at %llu)",
                      static_cast<unsigned long long>(bs.lastCmd)));
    }
    if (!bs.open) {
        record(cs, ev, "cas-closed-bank",
               "column access with no row open");
    } else if (bs.row != ev.row) {
        record(cs, ev, "cas-row-mismatch",
               format("column access to row %llu but row %llu is open",
                      static_cast<unsigned long long>(ev.row),
                      static_cast<unsigned long long>(bs.row)));
    } else if (bs.actSeen && ev.at < bs.lastAct + tp.tRCD) {
        record(cs, ev, "tRCD",
               format("column access %llu ticks after activate (tRCD "
                      "%llu)",
                      static_cast<unsigned long long>(ev.at -
                                                      bs.lastAct),
                      static_cast<unsigned long long>(tp.tRCD)));
    }

    // Data-bus stage: tCL before data, burst length per the params in
    // effect at the burst, and no overlap on the shared bus.
    if (ev.burstStart < ev.at + tp.tCL) {
        record(cs, ev, "tCL",
               format("burst starts %llu ticks after CAS (tCL %llu)",
                      static_cast<unsigned long long>(ev.burstStart -
                                                      ev.at),
                      static_cast<unsigned long long>(tp.tCL)));
    }
    const TimingParams &btp = paramsAt(cs, ev.burstStart);
    if (ev.burstEnd - ev.burstStart != btp.tBURST) {
        record(cs, ev, "burst-length",
               format("burst %llu ticks, expected tBURST %llu",
                      static_cast<unsigned long long>(ev.burstEnd -
                                                      ev.burstStart),
                      static_cast<unsigned long long>(btp.tBURST)));
    }
    if (ev.burstStart < cs.lastBurstEnd) {
        record(cs, ev, "bus-overlap",
               format("burst starts %llu ticks before the previous "
                      "burst drains at %llu",
                      static_cast<unsigned long long>(cs.lastBurstEnd -
                                                      ev.burstStart),
                      static_cast<unsigned long long>(cs.lastBurstEnd)));
    }
    cs.lastBurstEnd = std::max(cs.lastBurstEnd, ev.burstEnd);

    bs.cmdSeen = true;
    bs.lastCmd = ev.at;
}

void
ProtocolChecker::checkRefresh(const DramCmdEvent &ev, ChannelState &cs)
{
    const TimingParams &tp = paramsAt(cs, ev.at);
    RankState &rs = rank(cs, ev.rank);

    // Rank-wide: relock and CKE rules apply; the rank must also have
    // cleared its powerdown-exit latency.
    for (const auto &[s, e] : cs.relocks) {
        if (ev.at >= s && ev.at < e) {
            record(cs, ev, "relock-window",
                   format("refresh inside re-lock quiescence "
                          "[%llu, %llu)",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(e)));
            break;
        }
    }
    if (rs.pdEnter != MaxTick && ev.at >= rs.pdEnter) {
        // A rank in self-refresh (or deeper) refreshes internally; an
        // external REF there is a distinct protocol error from plain
        // command-while-CKE-low.
        if (rs.pdState >=
            static_cast<std::uint8_t>(RankIdleState::SelfRefresh)) {
            record(cs, ev, "refresh-in-selfrefresh",
                   format("external refresh while rank self-refreshes "
                          "in %s (since tick %llu)",
                          rankIdleStateName(
                              static_cast<RankIdleState>(rs.pdState)),
                          static_cast<unsigned long long>(rs.pdEnter)));
        } else {
            record(cs, ev, "powerdown",
                   format("refresh while CKE low (since tick %llu)",
                          static_cast<unsigned long long>(rs.pdEnter)));
        }
    } else if (ev.at < rs.pdReady) {
        record(cs, ev, "powerdown-exit",
               format("refresh before powerdown exit latency elapses "
                      "(ready at %llu)",
                      static_cast<unsigned long long>(rs.pdReady)));
    }
    if (ev.doneAt < ev.at + tp.tRFC) {
        record(cs, ev, "tRFC",
               format("refresh busy window %llu < tRFC %llu",
                      static_cast<unsigned long long>(ev.doneAt -
                                                      ev.at),
                      static_cast<unsigned long long>(tp.tRFC)));
    }
    // Backward check: no already-announced activate may sit inside the
    // new busy window.
    for (Tick a : rs.acts) {
        if (a >= ev.at && a < ev.doneAt) {
            record(cs, ev, "refresh-window",
                   format("activate at %llu inside refresh busy "
                          "window [%llu, %llu)",
                          static_cast<unsigned long long>(a),
                          static_cast<unsigned long long>(ev.at),
                          static_cast<unsigned long long>(ev.doneAt)));
            break;
        }
    }
    if (rs.refreshSeen && !rs.selfRefreshSinceRefresh &&
        ev.at > rs.lastRefreshStart +
                    RefreshStarvationREFIs * tp.tREFI) {
        record(cs, ev, "refresh-starvation",
               format("gap since previous refresh %llu > %llu tREFI",
                      static_cast<unsigned long long>(
                          ev.at - rs.lastRefreshStart),
                      static_cast<unsigned long long>(
                          RefreshStarvationREFIs)));
    }
    rs.refreshSeen = true;
    rs.selfRefreshSinceRefresh = false;
    rs.lastRefreshStart = ev.at;
    rs.refreshes.emplace_back(ev.at, ev.doneAt);
    if (rs.refreshes.size() > MaxRefreshWindows)
        rs.refreshes.erase(rs.refreshes.begin());
}

void
ProtocolChecker::onCommand(const DramCmdEvent &ev)
{
    ChannelState &cs = chan(ev.channel);
    ++cs.commands;
    switch (ev.cmd) {
      case DramCmd::Act:
        checkAct(ev, cs);
        break;
      case DramCmd::Pre:
        checkPre(ev, cs);
        break;
      case DramCmd::Read:
      case DramCmd::Write:
        checkColumn(ev, cs);
        break;
      case DramCmd::Refresh:
        checkRefresh(ev, cs);
        break;
      case DramCmd::PowerdownEnter: {
        RankState &rs = rank(cs, ev.rank);
        const std::uint8_t state = ev.pdState;
        if (rs.pdEnter != MaxTick) {
            // Re-announce while already entered: legal only as a
            // demotion strictly down the ladder (CKE never rose, so
            // no exit latency was paid in between).
            if (state <= rs.pdState) {
                record(cs, ev, "pd-transition",
                       format("re-enter to %s while already in %s "
                              "(since tick %llu); only strictly "
                              "deeper demotions are legal without an "
                              "exit",
                              rankIdleStateName(
                                  static_cast<RankIdleState>(state)),
                              rankIdleStateName(
                                  static_cast<RankIdleState>(
                                      rs.pdState)),
                              static_cast<unsigned long long>(
                                  rs.pdEnter)));
            }
            rs.pdState = std::max(rs.pdState, state);
        } else {
            rs.pdEnter = ev.at;
            rs.pdState = state;
            rs.pdParked = ev.at < cs.relockEnd;
        }
        if (selfRefreshing(static_cast<RankIdleState>(rs.pdState)))
            rs.selfRefreshSinceRefresh = true;
        break;
      }
      case DramCmd::PowerdownExit: {
        RankState &rs = rank(cs, ev.rank);
        if (rs.pdEnter == MaxTick) {
            record(cs, ev, "pd-transition",
                   "powerdown exit with no matching enter announced");
        } else {
            // The wake must pay the deepest reached rung's datasheet
            // exit latency -- unless the whole residency sits inside
            // a frequency re-lock window, whose quiescence already
            // covers (and exceeds) the wake.
            const TimingParams &tp = paramsAt(cs, ev.at);
            const Tick need = idleExitLatency(
                static_cast<RankIdleState>(rs.pdState), tp);
            const bool in_relock =
                rs.pdParked && ev.at <= cs.relockEnd;
            if (!in_relock && ev.doneAt < ev.at + need) {
                record(cs, ev, "pd-exit-latency",
                       format("exit from %s ready after %llu ticks; "
                              "datasheet latency is %llu",
                              rankIdleStateName(
                                  static_cast<RankIdleState>(
                                      rs.pdState)),
                              static_cast<unsigned long long>(
                                  ev.doneAt - ev.at),
                              static_cast<unsigned long long>(need)));
            }
        }
        rs.pdEnter = MaxTick;
        rs.pdState = 0;
        rs.pdParked = false;
        rs.pdReady = std::max(rs.pdReady, ev.doneAt);
        break;
      }
      case DramCmd::Relock: {
        ++cs.relockCount;
        cs.relockEnd = std::max(cs.relockEnd, ev.doneAt);
        cs.relocks.emplace_back(ev.at, ev.doneAt);
        if (cs.relocks.size() > MaxRelockWindows)
            cs.relocks.erase(cs.relocks.begin());
        for (RankState &rs : cs.ranks) {
            for (Tick a : rs.acts) {
                if (a >= ev.at && a < ev.doneAt) {
                    record(cs, ev, "relock-window",
                           format("activate at %llu inside re-lock "
                                  "quiescence [%llu, %llu)",
                                  static_cast<unsigned long long>(a),
                                  static_cast<unsigned long long>(
                                      ev.at),
                                  static_cast<unsigned long long>(
                                      ev.doneAt)));
                    break;
                }
            }
        }
        break;
      }
    }
}

void
ProtocolChecker::transfer(SectionIO &io)
{
    io.list(channels_, [&io](ChannelState &cs) {
        io(cs.violations);
        io(cs.commands);
        io(cs.relockCount);
        io.list(cs.samples, [&io](ProtocolViolation &v) {
            io(v.rule);
            io(v.at);
            io(v.channel);
            io(v.rank);
            io(v.bank);
            io.enumByte("violation command", v.cmd, DramCmd::Relock);
            io(v.detail);
        });
        io.list(cs.timings, [&io](std::pair<Tick, TimingParams> &t) {
            io(t.first);
            t.second.transfer(io);
        });
        io(cs.relocks);
        io(cs.relockEnd);
        io(cs.lastBurstEnd);
        io.list(cs.ranks, [&io](RankState &rs) {
            io(rs.acts);
            io(rs.refreshes);
            io.list(rs.banks, [&io](BankState &bs) {
                io(bs.open);
                io(bs.actSeen);
                io(bs.preSeen);
                io(bs.row);
                io(bs.lastAct);
                io(bs.lastPreDone);
                io(bs.lastCmd);
                io(bs.cmdSeen);
            });
            io(rs.pdEnter);
            io(rs.pdState);
            io(rs.pdParked);
            io(rs.pdReady);
            io(rs.lastRefreshStart);
            io(rs.refreshSeen);
            io(rs.selfRefreshSinceRefresh);
        });
        // record() keeps the first MaxSamples violations.
        if (io.loading() &&
            cs.samples.size() !=
                std::min<std::uint64_t>(cs.violations, MaxSamples))
            io.fail("%zu violation samples for %llu violations",
                    cs.samples.size(),
                    static_cast<unsigned long long>(cs.violations));
    });
}

} // namespace memscale

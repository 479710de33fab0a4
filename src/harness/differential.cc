#include "harness/differential.hh"

#include <cstdio>

#include "check/state_hash.hh"
#include "common/log.hh"

namespace memscale
{

namespace
{

using Flat = std::vector<std::pair<std::string, std::string>>;

std::string
fmtU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fmtF64(double v)
{
    if (v == 0.0)
        v = 0.0;   // collapse -0.0 and +0.0, as StateHasher does
    char buf[48];
    // %a round-trips the exact bit pattern, so string equality is
    // value equality at the last ulp.
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
indexed(const char *prefix, std::size_t i, const char *suffix = "")
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%zu]%s", prefix, i, suffix);
    return buf;
}

void
flattenCounters(Flat &out, const char *p, const McCounters &c)
{
    auto put = [&](const char *name, std::uint64_t v) {
        out.emplace_back(std::string(p) + name, fmtU64(v));
    };
    put("bto", c.bto);
    put("btc", c.btc);
    out.emplace_back(std::string(p) + "cto", fmtF64(c.cto));
    put("ctc", c.ctc);
    put("rbhc", c.rbhc);
    put("obmc", c.obmc);
    put("cbmc", c.cbmc);
    put("epdc", c.epdc);
    put("pocc", c.pocc);
    put("rankTime", c.rankTime);
    put("rankPreTime", c.rankPreTime);
    put("rankPrePdTime", c.rankPrePdTime);
    put("rankActPdTime", c.rankActPdTime);
    put("reads", c.reads);
    put("writes", c.writes);
    put("busBusyTime", c.busBusyTime);
    put("readLatencyTotal", c.readLatencyTotal);
    put("freqTransitions", c.freqTransitions);
    put("relockStallTime", c.relockStallTime);
    // Idle-ladder columns ride along only when a deep state or the
    // migrator was actually exercised, so pre-ladder flattened
    // sequences — and their golden hashes — are unchanged.
    if (c.rankSrTime + c.rankSrSlowTime + c.rankDeepPdTime +
            c.pdDemotions + c.migrations >
        0) {
        put("rankSrTime", c.rankSrTime);
        put("rankSrSlowTime", c.rankSrSlowTime);
        put("rankDeepPdTime", c.rankDeepPdTime);
        put("pdDemotions", c.pdDemotions);
        put("migrations", c.migrations);
    }
}

void
flattenEnergy(Flat &out, const char *p, const EnergyBreakdown &e)
{
    auto put = [&](const char *name, double v) {
        out.emplace_back(std::string(p) + name, fmtF64(v));
    };
    put("background", e.background);
    put("actPre", e.actPre);
    put("readWrite", e.readWrite);
    put("termination", e.termination);
    put("refresh", e.refresh);
    put("pllReg", e.pllReg);
    put("mc", e.mc);
    put("cpu", e.cpu);
    put("rest", e.rest);
}

} // namespace

Flat
flattenRunResult(const RunResult &r)
{
    Flat out;
    out.emplace_back("mixName", r.mixName);
    out.emplace_back("policyName", r.policyName);
    out.emplace_back("runtime", fmtU64(r.runtime));
    out.emplace_back("hitTimeLimit", fmtU64(r.hitTimeLimit ? 1 : 0));
    out.emplace_back("numCores", fmtU64(r.coreCpi.size()));
    for (std::size_t i = 0; i < r.coreCpi.size(); ++i)
        out.emplace_back(indexed("coreCpi", i), fmtF64(r.coreCpi[i]));
    for (std::size_t i = 0; i < r.coreTlm.size(); ++i)
        out.emplace_back(indexed("coreTlm", i), fmtU64(r.coreTlm[i]));
    for (std::size_t i = 0; i < r.coreApp.size(); ++i)
        out.emplace_back(indexed("coreApp", i), r.coreApp[i]);
    flattenEnergy(out, "energy.", r.energy);
    flattenCounters(out, "counters.", r.counters);
    out.emplace_back("avgMemPower", fmtF64(r.avgMemPower));
    out.emplace_back("avgDimmPower", fmtF64(r.avgDimmPower));
    out.emplace_back("avgSystemPower", fmtF64(r.avgSystemPower));
    out.emplace_back("measuredRpki", fmtF64(r.measuredRpki));
    out.emplace_back("measuredWpki", fmtF64(r.measuredWpki));
    out.emplace_back("epochs", fmtU64(r.timeline.size()));
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
        const EpochRecord &e = r.timeline[i];
        out.emplace_back(indexed("epoch", i, ".start"),
                         fmtU64(e.start));
        out.emplace_back(indexed("epoch", i, ".end"), fmtU64(e.end));
        out.emplace_back(indexed("epoch", i, ".busMHz"),
                         fmtU64(e.busMHz));
        out.emplace_back(indexed("epoch", i, ".cpuGHz"),
                         fmtF64(e.cpuGHz));
        out.emplace_back(indexed("epoch", i, ".channelUtil"),
                         fmtF64(e.channelUtil));
    }
    out.emplace_back("protocolViolations",
                     fmtU64(r.protocolViolations));
    // Serving fields ride along only for serving runs, so every
    // closed-loop flattened sequence — and therefore every golden
    // hash — is byte-identical to what it was before serving existed.
    if (r.serving.valid) {
        const ServingStats &s = r.serving;
        out.emplace_back("serving.arrived", fmtU64(s.arrived));
        out.emplace_back("serving.completed", fmtU64(s.completed));
        out.emplace_back("serving.dropped", fmtU64(s.dropped));
        out.emplace_back("serving.queuedAtEnd",
                         fmtU64(s.queuedAtEnd));
        out.emplace_back("serving.inServiceAtEnd",
                         fmtU64(s.inServiceAtEnd));
        out.emplace_back("serving.queuePeak", fmtU64(s.queuePeak));
        out.emplace_back("serving.meanUs", fmtF64(s.meanUs));
        out.emplace_back("serving.maxUs", fmtF64(s.maxUs));
        out.emplace_back("serving.p50Us", fmtF64(s.p50Us));
        out.emplace_back("serving.p95Us", fmtF64(s.p95Us));
        out.emplace_back("serving.p99Us", fmtF64(s.p99Us));
        out.emplace_back("serving.p999Us", fmtF64(s.p999Us));
        out.emplace_back("serving.histOverflow",
                         fmtU64(s.histOverflow));
    }
    return out;
}

DiffReport
diffRunResults(std::string label, const RunResult &a, const RunResult &b)
{
    DiffReport rep;
    rep.label = std::move(label);
    rep.hashA = hashRunResult(a);
    rep.hashB = hashRunResult(b);
    Flat fa = flattenRunResult(a);
    Flat fb = flattenRunResult(b);
    if (fa.size() != fb.size()) {
        rep.diffs.push_back({"field-count", fmtU64(fa.size()),
                             fmtU64(fb.size())});
    }
    const std::size_t n = std::min(fa.size(), fb.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (fa[i].first != fb[i].first) {
            // Structural divergence (different vector lengths above);
            // positional comparison is meaningless past this point.
            rep.diffs.push_back({"field-order", fa[i].first,
                                 fb[i].first});
            break;
        }
        if (fa[i].second != fb[i].second)
            rep.diffs.push_back({fa[i].first, fa[i].second,
                                 fb[i].second});
    }
    return rep;
}

DiffReport
diffComparisons(std::string label, const ComparisonResult &a,
                const ComparisonResult &b)
{
    DiffReport base = diffRunResults(label + ":base", a.base, b.base);
    DiffReport pol =
        diffRunResults(label + ":policy", a.policy, b.policy);
    DiffReport rep;
    rep.label = std::move(label);
    for (FieldDiff &d : base.diffs) {
        d.field = "base." + d.field;
        rep.diffs.push_back(std::move(d));
    }
    for (FieldDiff &d : pol.diffs) {
        d.field = "policy." + d.field;
        rep.diffs.push_back(std::move(d));
    }
    if (fmtF64(a.memEnergySavings) != fmtF64(b.memEnergySavings))
        rep.diffs.push_back({"memEnergySavings",
                             fmtF64(a.memEnergySavings),
                             fmtF64(b.memEnergySavings)});
    if (fmtF64(a.sysEnergySavings) != fmtF64(b.sysEnergySavings))
        rep.diffs.push_back({"sysEnergySavings",
                             fmtF64(a.sysEnergySavings),
                             fmtF64(b.sysEnergySavings)});
    if (fmtF64(a.worstCpiIncrease) != fmtF64(b.worstCpiIncrease))
        rep.diffs.push_back({"worstCpiIncrease",
                             fmtF64(a.worstCpiIncrease),
                             fmtF64(b.worstCpiIncrease)});
    rep.hashA = hashComparison(a);
    rep.hashB = hashComparison(b);
    return rep;
}

std::uint64_t
hashRunResult(const RunResult &r)
{
    StateHasher h;
    for (const auto &[label, value] : flattenRunResult(r))
        h.add(label, std::string_view(value));
    return h.digest();
}

std::uint64_t
hashComparison(const ComparisonResult &c)
{
    StateHasher h;
    h.add("base", hashRunResult(c.base));
    h.add("policy", hashRunResult(c.policy));
    h.add("memEnergySavings", c.memEnergySavings);
    h.add("sysEnergySavings", c.sysEnergySavings);
    h.add("avgCpiIncrease", c.avgCpiIncrease);
    h.add("worstCpiIncrease", c.worstCpiIncrease);
    return h.digest();
}

std::string
DiffReport::str(std::size_t max_fields) const
{
    std::string s = label;
    if (identical()) {
        s += ": identical (hash ";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx)",
                      static_cast<unsigned long long>(hashA));
        s += buf;
        return s;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  ": %zu field diff(s), hash %016llx vs %016llx",
                  diffs.size(),
                  static_cast<unsigned long long>(hashA),
                  static_cast<unsigned long long>(hashB));
    s += buf;
    std::size_t shown = 0;
    for (const FieldDiff &d : diffs) {
        if (shown++ == max_fields) {
            s += "\n  ...";
            break;
        }
        s += "\n  " + d.field + ": " + d.a + " vs " + d.b;
    }
    return s;
}

std::vector<DiffReport>
sweepDiff(const std::vector<SweepCase> &cases, unsigned jobs)
{
    SweepEngine serial(1);
    SweepEngine pool(jobs);
    std::vector<ComparisonResult> a = compareCases(serial, cases);
    std::vector<ComparisonResult> b = compareCases(pool, cases);
    std::vector<DiffReport> reports;
    reports.reserve(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "sweep[%zu]:", i);
        reports.push_back(diffComparisons(
            buf + cases[i].cfg.mixName + "/" + cases[i].policy, a[i],
            b[i]));
    }
    return reports;
}

std::size_t
runSelfCheck(const SystemConfig &cfg, unsigned jobs)
{
    std::vector<SweepCase> cases;
    for (const char *policy : {"memscale", "fastpd"}) {
        SweepCase c;
        c.cfg = cfg;
        c.policy = policy;
        cases.push_back(std::move(c));
    }
    std::size_t failures = 0;
    for (const DiffReport &r : sweepDiff(cases, jobs)) {
        bool ok = r.identical();
        std::fprintf(stderr, "[%s] %s\n", ok ? "PASS" : "FAIL",
                     r.str().c_str());
        if (!ok)
            ++failures;
    }
    return failures;
}

} // namespace memscale

#include "harness/cluster.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/log.hh"
#include "common/rng.hh"
#include "harness/differential.hh"
#include "memscale/policies/fastcap_policy.hh"
#include "memscale/policies/policy.hh"
#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

double
jainIndex(const std::vector<double> &x)
{
    if (x.empty())
        return 1.0;
    double sum = 0.0;
    double sumsq = 0.0;
    for (double v : x) {
        sum += v;
        sumsq += v * v;
    }
    if (sumsq <= 0.0)
        return 1.0;
    return sum * sum / (static_cast<double>(x.size()) * sumsq);
}

BudgetAllocation
allocateFleetBudget(Watts capW,
                    const std::vector<ServerTelemetry> &telemetry,
                    const std::vector<double> &weights)
{
    const std::size_t n = telemetry.size();
    if (n == 0)
        fatal("allocateFleetBudget: empty fleet");
    if (!(capW > 0.0))
        fatal("allocateFleetBudget: cap %g W must be positive", capW);

    std::vector<double> w(n, 1.0);
    if (!weights.empty()) {
        for (std::size_t k = 0; k < n; ++k) {
            w[k] = weights[k % weights.size()];
            if (!(w[k] > 0.0))
                fatal("allocateFleetBudget: weight %g must be "
                      "positive",
                      w[k]);
        }
    }

    std::vector<double> mn(n), dm(n);
    double sum_min = 0.0;
    double sum_demand = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        mn[k] = std::max(telemetry[k].minW, 0.0);
        dm[k] = std::max(telemetry[k].demandW, mn[k]);
        sum_min += mn[k];
        sum_demand += dm[k];
    }

    BudgetAllocation out;
    out.budgetW.resize(n);

    if (sum_demand <= capW) {
        // Cap is slack: everybody runs at full demand.  Granting more
        // than the demand would not buy performance, so this is the
        // work-conserving optimum, not a violation of it.
        out.budgetW.assign(dm.begin(), dm.end());
        out.theta = 1.0 / *std::min_element(w.begin(), w.end());
        return out;
    }
    if (sum_min >= capW) {
        // Even the power floors overflow the budget: scale them
        // proportionally and flag the epoch.  sum_min >= capW > 0.
        for (std::size_t k = 0; k < n; ++k)
            out.budgetW[k] = capW * mn[k] / sum_min;
        out.feasible = sum_min <= capW;
        out.theta = 0.0;
        return out;
    }

    // Weighted water-fill: grant each server the fraction
    // min(1, theta * w_k) of its (demand - min) span and bisect for
    // the largest theta that fits.  Sum is continuous and monotone in
    // theta, so 64 halvings pin the cap to machine precision —
    // work-conserving by construction.
    auto total = [&](double theta) {
        double s = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            s += mn[k] +
                 std::min(1.0, theta * w[k]) * (dm[k] - mn[k]);
        return s;
    };
    double lo = 0.0;
    double hi = 1.0 / *std::min_element(w.begin(), w.end());
    for (int it = 0; it < 64; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (total(mid) <= capW)
            lo = mid;
        else
            hi = mid;
    }
    for (std::size_t k = 0; k < n; ++k)
        out.budgetW[k] =
            mn[k] + std::min(1.0, lo * w[k]) * (dm[k] - mn[k]);
    out.theta = lo;
    return out;
}

namespace
{

constexpr std::uint64_t fleetHashSeed = 0xF1EE7C0DEull;

std::string
serverSnapshotPath(const std::string &fleet_path, std::size_t k)
{
    return fleet_path + ".server" + std::to_string(k);
}

/**
 * The fleet snapshot's "cluster" section: config fingerprint, epoch
 * cursor, the last telemetry and cumulative energy per server, and
 * every completed epoch's power row.
 */
struct FleetSection
{
    std::uint32_t numServers = 0;
    std::string policy;
    Watts capW = 0.0;
    Tick coordEpoch = 0;
    std::uint64_t seed = 0;
    Tick horizon = 0;
    Tick epochLen = 0;
    std::vector<double> weights;
    std::vector<double> rateScale;
    std::uint32_t epochsDone = 0;
    std::vector<ServerTelemetry> tele;
    std::vector<double> energy;
    std::vector<FleetEpochRow> rows;
};

/**
 * Write or read `f` field by field, in file order.  Restoring checks
 * the fingerprint fields against `f`'s (fleetFingerprint() of the
 * resumed run) unless `io` adopts them for inspection.
 */
void
transfer(FleetSection &f, SectionIO &io)
{
    io.expect("number of servers", f.numServers);
    io.expect("policy", f.policy);
    io.expect("cap", f.capW);
    io.expect("coordination epoch", f.coordEpoch);
    io.expect("fleet seed", f.seed);
    io.expect("horizon", f.horizon);
    io.expect("server epoch length", f.epochLen);
    io.expect("fairness weights", f.weights);
    io.expect("rate scales", f.rateScale);
    io(f.epochsDone);
    if (io.loading() && f.numServers > io.reader().remaining())
        io.fail("%u servers exceed the section", f.numServers);
    f.tele.resize(f.numServers);
    f.energy.resize(f.numServers);
    for (std::uint32_t k = 0; k < f.numServers; ++k) {
        ServerTelemetry &t = f.tele[k];
        io(t.valid);
        io(t.measuredW);
        io(t.demandW);
        io(t.minW);
        io(t.slowdown);
        io(f.energy[k]);
    }
    io.list(f.rows, [&io](FleetEpochRow &row) {
        io(row.epoch);
        io(row.start);
        io(row.end);
        io(row.budgetW);
        io(row.measuredW);
        io(row.fleetW);
        io(row.fleetBudgetW);
        io(row.capMet);
        io(row.allocFeasible);
    });
}

/** The section's config fingerprint for a fleet run. */
FleetSection
fleetFingerprint(const ClusterConfig &cfg)
{
    FleetSection f;
    f.numServers = cfg.numServers;
    f.policy = cfg.policy;
    f.capW = cfg.capW;
    f.coordEpoch = cfg.coordEpoch;
    f.seed = cfg.server.seed;
    f.horizon = cfg.server.serving.horizon;
    f.epochLen = cfg.server.epochLen;
    f.weights = cfg.weights;
    f.rateScale = cfg.rateScale;
    return f;
}

} // namespace

FleetMeta
readFleetMeta(const std::string &path)
{
    SnapshotReader snap(path);
    FleetMeta meta;
    if (!snap.has("cluster"))
        return meta;
    SectionReader r = snap.section("cluster");
    SectionIO io(r, false);
    FleetSection f;
    transfer(f, io);
    r.finish();
    meta.valid = true;
    meta.numServers = f.numServers;
    meta.policy = f.policy;
    meta.capW = f.capW;
    meta.coordEpoch = f.coordEpoch;
    meta.epochsDone = f.epochsDone;
    if (!f.rows.empty()) {
        meta.budgetW = f.rows.back().budgetW;
        meta.lastFleetW = f.rows.back().fleetW;
    }
    return meta;
}

ClusterHarness::ClusterHarness(const ClusterConfig &cfg) : cfg_(cfg)
{
    if (cfg_.numServers == 0)
        fatal("cluster: need at least one server");
    if (!cfg_.server.serving.enabled)
        fatal("cluster: the per-server template must enable the "
              "serving front end");
    if (!std::isfinite(cfg_.capW) || cfg_.capW < 0.0)
        fatal("cluster: cap %g W must be finite and >= 0 "
              "(0 = uncoordinated)",
              cfg_.capW);
    if (cfg_.coordEpoch == 0)
        fatal("cluster: zero coordination epoch");
    if (cfg_.coordEpoch < cfg_.server.epochLen)
        fatal("cluster: coordination epoch (%0.3f ms) must cover at "
              "least one policy epoch (%0.3f ms)",
              tickToMs(cfg_.coordEpoch),
              tickToMs(cfg_.server.epochLen));
    for (double w : cfg_.weights) {
        if (!(w > 0.0))
            fatal("cluster: fairness weight %g must be positive", w);
    }
    const std::uint32_t n = cfg_.numServers;
    for (Tick t = cfg_.coordEpoch; t < cfg_.server.serving.horizon;
         t += cfg_.coordEpoch)
        cuts_.push_back(t);
    weights_.assign(n, 1.0);
    for (std::uint32_t k = 0; k < n && !cfg_.weights.empty(); ++k)
        weights_[k] = cfg_.weights[k % cfg_.weights.size()];
    tele_.resize(n);
    prevEnergy_.assign(n, 0.0);
    obsBudgetW_.assign(n, 0.0);
    obsPowerW_.assign(n, 0.0);
    obsP99Us_.assign(n, 0.0);
    obsSlowdown_.assign(n, 1.0);

    if (!cfg_.resumePath.empty()) {
        SnapshotReader snap(cfg_.resumePath);
        if (!snap.has("cluster"))
            fatal("cluster resume: %s has no cluster section",
                  cfg_.resumePath.c_str());
        FleetSection got = fleetFingerprint(cfg_);
        SnapshotIO(snap).section(
            "cluster", [&](SectionIO &io) { transfer(got, io); });
        if (got.epochsDone == 0 || got.epochsDone > cuts_.size())
            fatal("cluster resume: snapshot epoch cursor %u out of "
                  "range (run has %zu cuts)",
                  got.epochsDone, cuts_.size());
        epoch_ = got.epochsDone;
        tele_ = got.tele;
        prevEnergy_ = got.energy;
        rows_ = got.rows;
    }
}

SystemConfig
ClusterHarness::serverConfig(std::uint32_t k) const
{
    SystemConfig c = cfg_.server;
    // Index-keyed stream derivation: server k's seed depends only on
    // the fleet base seed and k, never on the fleet size.
    c.seed = deriveSeed(cfg_.server.seed, k);
    c.resumePath.clear();
    c.powerCapW = 0.0;
    if (!cfg_.rateScale.empty())
        c.serving.arrival.ratePerSec *=
            cfg_.rateScale[k % cfg_.rateScale.size()];
    return c;
}

void
ClusterHarness::registerStats(StatRegistry &reg)
{
    for (std::uint32_t k = 0; k < cfg_.numServers; ++k) {
        const std::string p = "server" + std::to_string(k);
        reg.addGauge(p + ".budgetW", &obsBudgetW_[k]);
        reg.addGauge(p + ".powerW", &obsPowerW_[k]);
        reg.addGauge(p + ".p99Us", &obsP99Us_[k]);
        reg.addGauge(p + ".slowdown", &obsSlowdown_[k]);
    }
    reg.addGauge("fleet.powerW", &obsFleetW_);
    reg.addGauge("fleet.capW", [this] { return cfg_.capW; });
    reg.addGauge("fleet.epoch", &obsEpoch_);
}

FleetResult
ClusterHarness::run()
{
    advance(numEpochs());
    return finish();
}

void
ClusterHarness::startServers()
{
    if (!servers_.empty())
        return;
    // N live servers, built once (or resumed from their per-server
    // snapshots) and stepped epoch by epoch.  Each is touched by one
    // sweep worker at a time; results are keyed by server index, so
    // the outcome is bit-identical at any --jobs.
    const std::uint32_t n = cfg_.numServers;
    eng_.emplace(cfg_.jobs);
    std::vector<std::unique_ptr<Policy>> policies(n);
    std::vector<std::unique_ptr<System>> servers(n);
    eng_->forEach(n, [&](std::size_t k) {
        SystemConfig c = serverConfig(static_cast<std::uint32_t>(k));
        if (!cfg_.resumePath.empty())
            c.resumePath = serverSnapshotPath(cfg_.resumePath, k);
        policies[k] = makePolicy(cfg_.policy);
        servers[k] = std::make_unique<System>(c, *policies[k]);
    });
    policies_ = std::move(policies);
    servers_ = std::move(servers);
}

bool
ClusterHarness::advance(std::size_t epochs)
{
    const std::size_t target = std::min(epochs, numEpochs());
    if (finished_ || epoch_ >= target)
        return !finished_ && epoch_ < numEpochs();
    startServers();
    const std::uint32_t n = cfg_.numServers;
    const Tick horizon = cfg_.server.serving.horizon;

    // A capped fleet steps one epoch per batch: epoch e's budgets come
    // from epoch e-1's telemetry, so every server must finish e-1
    // first.  Uncapped, nothing couples the servers, so each steps the
    // whole span in one batch, and the rows are recorded in epoch order
    // afterwards.
    while (epoch_ < target) {
        const std::size_t first = epoch_;
        const std::size_t span = cfg_.capW > 0.0 ? 1 : target - first;
        auto epochStart = [&](std::size_t e) {
            return e == 0 ? Tick(0) : cuts_[e - 1];
        };
        auto epochEnd = [&](std::size_t e) {
            return e < cuts_.size() ? cuts_[e] : horizon;
        };

        // Budgets for epoch e come from epoch e-1's telemetry — the
        // coordinator always acts on stale-by-one-epoch reports.  The
        // first epoch has none, so the cap splits by weight alone.
        BudgetAllocation alloc;
        if (cfg_.capW > 0.0) {
            bool have_tele = true;
            for (const ServerTelemetry &t : tele_)
                have_tele = have_tele && t.valid;
            if (have_tele) {
                alloc = allocateFleetBudget(cfg_.capW, tele_, weights_);
            } else {
                double wsum = 0.0;
                for (double w : weights_)
                    wsum += w;
                alloc.budgetW.resize(n);
                for (std::uint32_t k = 0; k < n; ++k)
                    alloc.budgetW[k] =
                        cfg_.capW * weights_[k] / wsum;
            }
        }

        // new_tele[i][k]: server k's report for epoch first + i.
        std::vector<std::vector<ServerTelemetry>> new_tele(
            span, std::vector<ServerTelemetry>(n));
        eng_->forEach(n, [&](std::size_t k) {
            System &sys = *servers_[k];
            for (std::size_t i = 0; i < span; ++i) {
                const std::size_t e = first + i;
                const Tick end = epochEnd(e);
                const double dt_sec = tickToSec(end - epochStart(e));
                sys.setPowerCap(alloc.budgetW.empty() ? 0.0
                                                      : alloc.budgetW[k]);
                if (!sys.advance(end) && e < cuts_.size())
                    fatal("cluster: server %zu stopped at %0.3f ms, "
                          "short of the epoch cut at %0.3f ms",
                          k, tickToMs(sys.now()), tickToMs(end));
                const SystemTelemetry st = sys.telemetry();
                obsP99Us_[k] = st.serving.p99Us;
                ServerTelemetry t;
                t.valid = true;
                t.measuredW =
                    (st.energy.total() - prevEnergy_[k]) / dt_sec;
                prevEnergy_[k] = st.energy.total();
                const auto *fc = dynamic_cast<const FastCapPolicy *>(
                    policies_[k].get());
                if (fc != nullptr && fc->telemetry().valid) {
                    t.demandW = fc->telemetry().demandW;
                    t.minW = fc->telemetry().minW;
                    t.slowdown = fc->telemetry().slowdown;
                } else {
                    // Cap-oblivious policies report measurements
                    // only: the coordinator still splits the budget,
                    // the server just won't honour it.
                    t.demandW = t.measuredW;
                }
                new_tele[i][k] = t;
            }
        });

        for (std::size_t i = 0; i < span; ++i, ++epoch_) {
            const std::size_t e = epoch_;
            FleetEpochRow row;
            row.epoch = static_cast<std::uint32_t>(e);
            row.start = epochStart(e);
            row.end = epochEnd(e);
            row.budgetW = alloc.budgetW;
            row.allocFeasible = alloc.feasible;
            for (std::uint32_t k = 0; k < n; ++k) {
                row.measuredW.push_back(new_tele[i][k].measuredW);
                row.fleetW += new_tele[i][k].measuredW;
            }
            for (double b : row.budgetW)
                row.fleetBudgetW += b;
            row.capMet = cfg_.capW <= 0.0 ||
                         row.fleetW <= cfg_.capW * (1.0 + 1e-9);
            rows_.push_back(row);
            tele_ = new_tele[i];

            obsEpoch_ = static_cast<double>(e);
            obsFleetW_ = row.fleetW;
            for (std::uint32_t k = 0; k < n; ++k) {
                obsBudgetW_[k] =
                    row.budgetW.empty() ? 0.0 : row.budgetW[k];
                obsPowerW_[k] = row.measuredW[k];
                obsSlowdown_[k] = new_tele[i][k].slowdown;
            }
        }
    }
    return epoch_ < numEpochs();
}

void
ClusterHarness::checkpoint(const std::string &path)
{
    if (finished_ || epoch_ == 0 || epoch_ > cuts_.size())
        fatal("cluster: no fleet cut at epoch cursor %zu%s (a cut "
              "needs 1..%zu epochs done)",
              epoch_, finished_ ? " of a finished fleet" : "",
              cuts_.size());
    startServers();
    eng_->forEach(cfg_.numServers, [&](std::size_t k) {
        servers_[k]->checkpoint(serverSnapshotPath(path, k));
    });
    FleetSection f = fleetFingerprint(cfg_);
    f.epochsDone = static_cast<std::uint32_t>(epoch_);
    f.tele = tele_;
    f.energy = prevEnergy_;
    f.rows = rows_;
    SnapshotWriter sw;
    SnapshotIO(sw).section("cluster",
                           [&](SectionIO &io) { transfer(f, io); });
    sw.writeFile(path);
}

FleetResult
ClusterHarness::finish()
{
    if (finished_)
        fatal("cluster: finish() called twice");
    startServers();
    finished_ = true;
    const std::uint32_t n = cfg_.numServers;
    FleetResult out;
    out.servers = eng_->map<RunResult>(
        n, [&](std::size_t k) { return servers_[k]->finish(); });
    const std::vector<RunResult> &results = out.servers;
    out.epochs = rows_;
    std::uint64_t h = fleetHashSeed;
    for (const RunResult &r : results)
        h = splitmix64(h ^ hashRunResult(r));
    out.fleetHash = h;
    for (const RunResult &r : results)
        out.fleetEnergyJ += r.energy.total();
    for (const FleetEpochRow &row : rows_) {
        out.peakEpochW = std::max(out.peakEpochW, row.fleetW);
        if (cfg_.capW > 0.0 && !row.capMet)
            ++out.capViolations;
    }
    const double slo = cfg_.server.serving.sloP99Us;
    if (slo > 0.0) {
        std::uint32_t met = 0;
        for (const RunResult &r : results)
            met += r.serving.p99Us <= slo ? 1 : 0;
        out.sloAttainment =
            static_cast<double>(met) / static_cast<double>(n);
    } else {
        out.sloAttainment = 1.0;
    }
    std::vector<double> slowdowns;
    for (const ServerTelemetry &t : tele_)
        if (t.valid)
            slowdowns.push_back(t.slowdown);
    out.jainSlowdown = jainIndex(slowdowns);
    return out;
}

} // namespace memscale

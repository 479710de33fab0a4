#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/config.hh"
#include "common/log.hh"
#include "workload/mixes.hh"

namespace memscale
{

namespace
{

unsigned
clampJobs(unsigned long long v)
{
    if (v > MaxJobs) {
        warn("clamping jobs=%llu to %u", v, MaxJobs);
        return MaxJobs;
    }
    return static_cast<unsigned>(v);
}

} // namespace

unsigned
checkedJobs(long long requested)
{
    if (requested < 0)
        fatal("jobs must be >= 0, got %lld", requested);
    return clampJobs(static_cast<unsigned long long>(requested));
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return clampJobs(requested);
    if (const char *env = envSwitch(EnvSwitch::Jobs)) {
        char *end = nullptr;
        long long v = std::strtoll(env, &end, 10);
        if (*end != '\0' || v < 0)
            fatal("MEMSCALE_JOBS must be a non-negative integer, "
                  "got '%s'",
                  env);
        if (v > 0)
            return clampJobs(static_cast<unsigned long long>(v));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * One parallel batch in flight.  Tasks are dealt out one deque per
 * worker: round-robin in descending predicted cost when the caller
 * gave costs, else as contiguous index chunks.  An idle worker steals
 * from the back of a victim's deque, scanning victims in a fixed
 * order.  All bookkeeping is mutex-per-deque — task bodies here are
 * entire simulation runs, so queue overhead is noise.
 */
struct Batch
{
    explicit Batch(std::size_t n, unsigned workers,
                   const std::function<void(std::size_t)> &f,
                   const std::vector<double> &cost)
        : fn(f), queues(workers), remaining(n)
    {
        if (cost.empty()) {
            for (std::size_t i = 0; i < n; ++i)
                queues[i * workers / n].q.push_back(i);
            return;
        }
        // Longest first, so the long runs start at once instead of
        // forming the batch's tail; the stable sort breaks ties by
        // index.
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t(0));
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost[a] > cost[b];
                         });
        for (std::size_t k = 0; k < n; ++k)
            queues[k % workers].q.push_back(order[k]);
    }

    struct WorkerQueue
    {
        std::mutex m;
        std::deque<std::size_t> q;
    };

    const std::function<void(std::size_t)> &fn;
    std::vector<WorkerQueue> queues;
    std::atomic<std::size_t> remaining;

    std::mutex errMutex;
    std::size_t errIndex = ~std::size_t(0);
    std::exception_ptr err;

    bool
    pop(unsigned self, std::size_t &out)
    {
        {
            WorkerQueue &own = queues[self];
            std::lock_guard<std::mutex> g(own.m);
            if (!own.q.empty()) {
                out = own.q.front();
                own.q.pop_front();
                return true;
            }
        }
        // Steal from the back of the first non-empty victim.
        unsigned nw = static_cast<unsigned>(queues.size());
        for (unsigned k = 1; k < nw; ++k) {
            WorkerQueue &victim = queues[(self + k) % nw];
            std::lock_guard<std::mutex> g(victim.m);
            if (!victim.q.empty()) {
                out = victim.q.back();
                victim.q.pop_back();
                return true;
            }
        }
        return false;
    }

    void
    runTasks(unsigned self)
    {
        std::size_t idx;
        while (pop(self, idx)) {
            try {
                fn(idx);
            } catch (...) {
                std::lock_guard<std::mutex> g(errMutex);
                // Keep the lowest-indexed failure so the rethrown
                // error does not depend on thread timing.
                if (idx < errIndex) {
                    errIndex = idx;
                    err = std::current_exception();
                }
            }
            remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
    }
};

struct SweepEngine::Impl
{
    explicit Impl(unsigned njobs) : jobs(njobs)
    {
        // The calling thread is worker 0; spawn the other jobs-1.
        for (unsigned w = 1; w < jobs; ++w)
            threads.emplace_back([this, w] { workerLoop(w); });
    }

    ~Impl()
    {
        {
            std::lock_guard<std::mutex> g(m);
            shutdown = true;
        }
        cv.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    void
    workerLoop(unsigned self)
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(m);
        for (;;) {
            cv.wait(lk, [&] {
                return shutdown || (batch && batchGen != seen);
            });
            if (shutdown)
                return;
            seen = batchGen;
            Batch *b = batch;
            ++active;
            lk.unlock();
            b->runTasks(self);
            lk.lock();
            if (--active == 0)
                doneCv.notify_all();
        }
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &fn,
        const std::vector<double> &cost)
    {
        // Serialize batches from concurrent callers.
        std::lock_guard<std::mutex> serial(callerMutex);
        Batch b(n, jobs, fn, cost);
        {
            std::lock_guard<std::mutex> g(m);
            batch = &b;
            ++batchGen;
        }
        cv.notify_all();
        b.runTasks(0);
        {
            // Wait for stragglers: every task done *and* every worker
            // out of runTasks() before the stack Batch dies.
            std::unique_lock<std::mutex> lk(m);
            doneCv.wait(lk, [&] {
                return active == 0 &&
                       b.remaining.load(std::memory_order_acquire) == 0;
            });
            batch = nullptr;
        }
        if (b.err)
            std::rethrow_exception(b.err);
    }

    unsigned jobs;
    std::vector<std::thread> threads;
    std::mutex callerMutex;
    std::mutex m;
    std::condition_variable cv;
    std::condition_variable doneCv;
    Batch *batch = nullptr;
    std::uint64_t batchGen = 0;
    unsigned active = 0;
    bool shutdown = false;

    /**
     * The run memo, keyed by runIdentity().  An entry is added before
     * its run starts, so a second task that needs the run waits on
     * the future instead of simulating it again.
     */
    std::mutex memoMutex;
    std::unordered_map<std::string, std::shared_future<RunResult>> memo;
    std::atomic<std::size_t> simulated{0};
};

SweepEngine::SweepEngine(unsigned jobs)
    : impl_(std::make_unique<Impl>(resolveJobs(jobs)))
{
}

SweepEngine::~SweepEngine() = default;
SweepEngine::SweepEngine(SweepEngine &&) noexcept = default;
SweepEngine &SweepEngine::operator=(SweepEngine &&) noexcept = default;

unsigned
SweepEngine::jobs() const
{
    return impl_->jobs;
}

void
SweepEngine::forEach(std::size_t n,
                     const std::function<void(std::size_t)> &fn,
                     const std::vector<double> &cost) const
{
    if (!cost.empty() && cost.size() != n)
        fatal("sweep: %zu task costs for %zu tasks", cost.size(), n);
    if (n == 0)
        return;
    if (impl_->jobs == 1 || n == 1) {
        // Single-thread fallback: run inline, first failure
        // propagates directly (which is also the lowest index).
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    impl_->run(n, fn, cost);
}

RunResult
SweepEngine::simulate(const SystemConfig &cfg,
                      const std::string &policy) const
{
    Impl &im = *impl_;
    if (!cfg.resumePath.empty()) {
        ++im.simulated;
        return memscale::simulate(cfg, policy);
    }
    std::string key = runIdentity(cfg, *makePolicy(policy));
    std::promise<RunResult> mine;
    std::shared_future<RunResult> run;
    bool owner = false;
    {
        std::lock_guard<std::mutex> g(im.memoMutex);
        auto [it, fresh] = im.memo.try_emplace(std::move(key));
        if (fresh)
            it->second = mine.get_future().share();
        run = it->second;
        owner = fresh;
    }
    if (owner) {
        ++im.simulated;
        try {
            mine.set_value(memscale::simulate(cfg, policy));
        } catch (...) {
            mine.set_exception(std::current_exception());
        }
    }
    return run.get();
}

std::size_t
SweepEngine::runsSimulated() const
{
    return impl_->simulated;
}

double
predictedCost(const SystemConfig &cfg)
{
    if (cfg.serving.enabled) {
        return cfg.serving.arrival.ratePerSec *
               tickToSec(cfg.serving.horizon) *
               cfg.serving.missesPerRequest;
    }
    const std::vector<MixSpec> &mixes = allMixes();
    auto mix = std::find_if(mixes.begin(), mixes.end(),
                            [&](const MixSpec &m) {
                                return m.name == cfg.mixName;
                            });
    // An unknown mix costs nothing here; its run reports the error.
    if (cfg.customApps.empty() && mix == mixes.end())
        return 0.0;
    const double budget = static_cast<double>(cfg.instrBudget);
    const double scale = budget / static_cast<double>(canonicalBudget);
    double pki = 0.0;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
        const AppProfile &app =
            cfg.customApps.empty()
                ? appForCore(*mix, i)
                : cfg.customApps[i % cfg.customApps.size()];
        AppProfile run = scaledProfile(app, scale);
        pki += run.averageMpki(cfg.instrBudget) +
               run.averageWpki(cfg.instrBudget);
    }
    return budget * pki / 1000.0;
}

namespace
{

/** runBaseline() with its System run through the engine's memo. */
CalibratedBaseline
calibratedBaseline(const SweepEngine &eng, const SystemConfig &cfg)
{
    CalibratedBaseline out;
    out.base = calibrate(
        cfg, eng.simulate(withRestWatts(cfg, 0.0), "baseline"), out.rest);
    return out;
}

/** compareWithBase() with its System run through the engine's memo. */
ComparisonResult
comparedWith(const SweepEngine &eng, const SystemConfig &cfg,
             const CalibratedBaseline &cb, const std::string &policy)
{
    return compareRuns(
        cb.base, eng.simulate(withRestWatts(cfg, cb.rest), policy));
}

} // namespace

std::vector<ComparisonResult>
compareCases(const SweepEngine &eng, const std::vector<SweepCase> &cases)
{
    std::vector<double> cost;
    for (const SweepCase &c : cases)
        cost.push_back(predictedCost(c.cfg));
    return eng.map<ComparisonResult>(
        cases.size(),
        [&](std::size_t i) {
            const SweepCase &c = cases[i];
            return comparedWith(eng, c.cfg, calibratedBaseline(eng, c.cfg),
                                c.policy);
        },
        cost);
}

std::vector<CalibratedBaseline>
runBaselines(const SweepEngine &eng,
             const std::vector<SystemConfig> &cfgs)
{
    std::vector<double> cost;
    for (const SystemConfig &c : cfgs)
        cost.push_back(predictedCost(c));
    return eng.map<CalibratedBaseline>(
        cfgs.size(),
        [&](std::size_t i) { return calibratedBaseline(eng, cfgs[i]); },
        cost);
}

std::vector<ComparisonResult>
comparePolicyGrid(const SweepEngine &eng,
                  const std::vector<SystemConfig> &cfgs,
                  const std::vector<CalibratedBaseline> &bases,
                  const std::vector<std::string> &policies)
{
    if (bases.size() != cfgs.size())
        fatal("comparePolicyGrid: %zu baselines for %zu configs",
              bases.size(), cfgs.size());
    std::size_t n = cfgs.size();
    std::vector<double> cost;
    for (std::size_t t = 0; t < policies.size() * n; ++t)
        cost.push_back(predictedCost(cfgs[t % n]));
    return eng.map<ComparisonResult>(
        policies.size() * n,
        [&](std::size_t t) {
            return comparedWith(eng, cfgs[t % n], bases[t % n],
                                policies[t / n]);
        },
        cost);
}

} // namespace memscale

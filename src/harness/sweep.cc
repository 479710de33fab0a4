#include "harness/sweep.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hh"

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
    const char *env = std::getenv("MEMSCALE_JOBS");
    if (env && *env) {
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
 * One parallel batch in flight.  Tasks are dealt out as contiguous
 * index chunks, one per worker; an idle worker steals from the back
 * of a victim's deque, scanning victims in a fixed order.  All
 * bookkeeping is mutex-per-deque — task bodies here are entire
 * simulation runs, so queue overhead is noise.
 */
struct Batch
{
    explicit Batch(std::size_t n, unsigned workers,
                   const std::function<void(std::size_t)> &f)
        : fn(f), queues(workers), remaining(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            queues[i * workers / n].q.push_back(i);
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
    run(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        // Serialize batches from concurrent callers.
        std::lock_guard<std::mutex> serial(callerMutex);
        Batch b(n, jobs, fn);
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
                     const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;
    if (impl_->jobs == 1 || n == 1) {
        // Single-thread fallback: run inline, first failure
        // propagates directly (which is also the lowest index).
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    impl_->run(n, fn);
}

std::vector<ComparisonResult>
compareCases(const SweepEngine &eng, const std::vector<SweepCase> &cases)
{
    return eng.map<ComparisonResult>(
        cases.size(), [&](std::size_t i) {
            return compare(cases[i].cfg, cases[i].policy);
        });
}

std::vector<CalibratedBaseline>
runBaselines(const SweepEngine &eng,
             const std::vector<SystemConfig> &cfgs)
{
    return eng.map<CalibratedBaseline>(
        cfgs.size(), [&](std::size_t i) {
            CalibratedBaseline out;
            out.base = runBaseline(cfgs[i], out.rest);
            return out;
        });
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
    return eng.map<ComparisonResult>(
        policies.size() * n, [&](std::size_t t) {
            std::size_t p = t / n;
            std::size_t i = t % n;
            return compareWithBase(cfgs[i], bases[i].base,
                                   bases[i].rest, policies[p]);
        });
}

} // namespace memscale

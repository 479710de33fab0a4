/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: event
 * kernel throughput, DRAM channel request throughput, and end-to-end
 * simulated-instructions-per-second, so regressions in simulation
 * speed are caught alongside the figure reproductions.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "check/protocol_checker.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "memscale/policies/policy.hh"
#include "sim/event_queue.hh"
#include "workload/mixes.hh"
#include "workload/openloop.hh"
#include "workload/trace_source.hh"

using namespace memscale;

namespace
{

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        for (int i = 0; i < 10000; ++i)
            eq.schedule(static_cast<Tick>(i * 7 % 9973),
                        [&fired] { ++fired; });
        eq.runUntil();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueue);

/**
 * Steady-state hold model: `depth` events stay pending while every
 * fired event schedules its successor 2^12-2^18 ticks out, the range
 * of deltas the simulator produces, so each pop pairs with one insert
 * at the queue depth real runs keep (tens of events).  BM_EventQueue
 * instead preloads 10,000 events.
 */
struct HoldModel
{
    EventQueue eq;
    std::uint64_t draws = 0;
    std::uint64_t fired = 0;
    std::uint64_t hops = 0;

    Tick
    delta()
    {
        constexpr Tick lo = Tick(1) << 12, hi = Tick(1) << 18;
        return lo + splitmix64(++draws) % (hi - lo);
    }
};

struct HoldEvent
{
    HoldModel *m;

    void
    operator()() const
    {
        if (++m->fired <= m->hops)
            m->eq.scheduleIn(m->delta(), HoldEvent{m});
    }
};

void
BM_EventQueueHold(benchmark::State &state)
{
    const auto depth = static_cast<std::uint64_t>(state.range(0));
    constexpr std::uint64_t kHops = 100000;
    for (auto _ : state) {
        HoldModel m;
        m.hops = kHops;
        for (std::uint64_t i = 0; i < depth; ++i)
            m.eq.schedule(m.delta(), HoldEvent{&m});
        m.eq.runUntil();
        benchmark::DoNotOptimize(m.fired);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kHops + depth));
}
BENCHMARK(BM_EventQueueHold)->Arg(32)->Arg(128);

/**
 * The hold model at depth 32, of which 16 events are a refresh-like
 * chain: links staggered over one tREFI (7.8 us), each rescheduling
 * itself one tREFI ahead, so a reschedule lands behind most of the
 * queue.  Arg 0 reschedules with schedule(), arg 1 with scheduleLast().
 */
struct RefreshLink
{
    HoldModel *m;
    bool lane;

    void
    operator()() const
    {
        if (++m->fired > m->hops)
            return;
        const Tick when = m->eq.now() + nsToTick(7800.0);
        if (lane)
            m->eq.scheduleLast(when, RefreshLink{m, lane});
        else
            m->eq.schedule(when, RefreshLink{m, lane});
    }
};

void
BM_EventQueueHoldRefresh(benchmark::State &state)
{
    const bool lane = state.range(0) != 0;
    constexpr std::uint64_t kHops = 100000;
    constexpr std::uint64_t kLinks = 16;
    for (auto _ : state) {
        HoldModel m;
        m.hops = kHops;
        for (std::uint64_t i = 0; i < kLinks; ++i) {
            m.eq.schedule(m.delta(), HoldEvent{&m});
            m.eq.schedule(nsToTick(7800.0) * (i + 1) / (kLinks + 1),
                          RefreshLink{&m, lane});
        }
        m.eq.runUntil();
        benchmark::DoNotOptimize(m.fired);
    }
    state.SetLabel(lane ? "scheduleLast" : "schedule");
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kHops + 2 * kLinks));
}
BENCHMARK(BM_EventQueueHoldRefresh)->Arg(0)->Arg(1);

void
BM_SweepEngine(benchmark::State &state)
{
    // Fan 24 tiny systems (12 mixes x 2 seeds) out on the pool;
    // items/sec tracks sweep scheduling overhead plus parallel scaling.
    // The engine memoises runs for its lifetime, so each iteration
    // builds a fresh one and really runs all 24.
    for (auto _ : state) {
        SweepEngine eng;
        std::vector<SweepCase> cases(24);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            cases[i].cfg.mixName = allMixes()[i % 12].name;
            cases[i].cfg.seed = i / 12;
            cases[i].cfg.instrBudget = 20000;
            cases[i].cfg.epochLen = msToTick(0.25);
            cases[i].cfg.profileLen = usToTick(25.0);
            cases[i].policy = "memscale";
        }
        auto results = compareCases(eng, cases);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_SweepEngine);

void
BM_ChannelRequests(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue eq;
        MemConfig cfg;
        MemoryController mc(eq, cfg);
        std::uint64_t done = 0;
        FnClient client([&done](Tick) { ++done; });
        for (int i = 0; i < 5000; ++i)
            mc.read(static_cast<Addr>(i) * 64 * 97, 0, &client);
        events = eq.runUntil();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 5000);
    state.counters["events_per_req"] =
        static_cast<double>(events) / 5000.0;
}
BENCHMARK(BM_ChannelRequests);

/**
 * Targeted channel schedules: all traffic to one bank of one channel
 * so the named row-buffer behavior dominates.  Requests are issued in
 * batches of 16 as predecessors complete, keeping the bank queue (and
 * the FR-FCFS scan / keep-open scan) populated without unbounded
 * queue growth.
 */
void
channelPattern(benchmark::State &state, bool same_row, bool writes,
               SchedulerPolicy sched)
{
    constexpr int kRequests = 5000;
    constexpr int kWindow = 16;
    for (auto _ : state) {
        EventQueue eq;
        MemConfig cfg;
        cfg.numChannels = 1;
        cfg.scheduler = sched;
        MemoryController mc(eq, cfg);
        int issued = 0;
        std::uint64_t done = 0;
        DecodedAddr d;
        auto addr_of = [&](int i) {
            d.row = same_row ? 7 : static_cast<std::uint64_t>(i % 64);
            d.column = static_cast<std::uint64_t>(i % 32);
            return mc.addressMap().encode(d);
        };
        // Writebacks complete silently, so every issue step posts
        // pending writes until it lands a read that can continue the
        // chain on its completion.
        auto issue_chain = [&](MemClient *cl) {
            while (issued < kRequests) {
                int i = issued++;
                if (writes && i % 2 != 0) {
                    mc.writeback(addr_of(i), 0);
                } else {
                    mc.read(addr_of(i), 0, cl);
                    break;
                }
            }
        };
        // Explicit instantiation: the lambda names `client`, so CTAD
        // can't deduce through the self-reference.  One std::function
        // per iteration, none per request.
        FnClient<std::function<void(Tick)>> client(
            [&](Tick) {
                ++done;
                issue_chain(&client);
            });
        for (int w = 0; w < kWindow; ++w)
            issue_chain(&client);
        eq.runUntil();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * kRequests);
}

void
BM_ChannelRowHit(benchmark::State &state)
{
    channelPattern(state, true, false, SchedulerPolicy::FrFcfs);
}
BENCHMARK(BM_ChannelRowHit);

void
BM_ChannelRowConflict(benchmark::State &state)
{
    channelPattern(state, false, false, SchedulerPolicy::Fcfs);
}
BENCHMARK(BM_ChannelRowConflict);

void
BM_ChannelWriteDrain(benchmark::State &state)
{
    channelPattern(state, false, true, SchedulerPolicy::FrFcfs);
}
BENCHMARK(BM_ChannelWriteDrain);

/**
 * Arrival-generator throughput over the three processes (arrivals per
 * second of wall clock).  The open-loop front end draws one of these
 * per request, so the generator must stay far off the serving hot
 * path; thinning makes diurnal the slowest of the three.
 */
void
BM_OpenLoopArrivals(benchmark::State &state)
{
    constexpr int kArrivals = 10000;
    for (auto _ : state) {
        for (ArrivalKind kind :
             {ArrivalKind::Poisson, ArrivalKind::Bursty,
              ArrivalKind::Diurnal}) {
            ArrivalConfig cfg;
            cfg.kind = kind;
            cfg.ratePerSec = 2.0e6;
            cfg.seed = 99;
            ArrivalGenerator gen(cfg);
            Tick last = 0;
            for (int i = 0; i < kArrivals; ++i)
                last = gen.next();
            benchmark::DoNotOptimize(last);
        }
    }
    state.SetItemsProcessed(state.iterations() * kArrivals * 3);
}
BENCHMARK(BM_OpenLoopArrivals);

void
BM_FullSystem(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.mixName = "MID1";
    cfg.instrBudget = 100000;
    cfg.epochLen = msToTick(0.25);
    cfg.profileLen = usToTick(25.0);
    std::uint64_t cores = 0;
    double events_per_req = 0.0;
    for (auto _ : state) {
        auto policy = makePolicy("memscale");
        System sys(cfg, *policy);
        RunResult r = sys.run();
        cores = r.coreCpi.size();
        events_per_req =
            static_cast<double>(sys.eventsRun()) /
            static_cast<double>(r.counters.reads + r.counters.writes);
        benchmark::DoNotOptimize(r.runtime);
    }
    state.counters["events_per_req"] = events_per_req;
    // Simulated instructions per second: the configured budget times
    // the actual core count of the run (not a hardcoded guess).
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(cfg.instrBudget * cores));
}
BENCHMARK(BM_FullSystem);

/**
 * Request service on one channel's worth of traffic with the protocol
 * checker attached, so every DRAM command is validated inline as it
 * issues: the per-request cost of a protocolCheck run.
 */
constexpr int kCheckedRequests = 5000;

void
BM_ChannelChecked(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue eq;
        MemConfig cfg;
        MemoryController mc(eq, cfg);
        ProtocolChecker checker(false);
        mc.setCommandObserver(&checker);
        std::uint64_t done = 0;
        FnClient client([&done](Tick) { ++done; });
        state.ResumeTiming();
        for (int i = 0; i < kCheckedRequests; ++i)
            mc.read(static_cast<Addr>(i) * 64 * 97, 0, &client);
        eq.runUntil();
        benchmark::DoNotOptimize(checker.commandsChecked());
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * kCheckedRequests);
}
BENCHMARK(BM_ChannelChecked);

} // namespace

/**
 * Standard google-benchmark main plus one convenience flag: --reps N
 * expands to --benchmark_repetitions=N with aggregates-only reporting,
 * so scripts/perf_compare.py (and the CI perf smoke step) can ask for
 * median-of-N without spelling out the benchmark library's flags.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    std::string reps_flag, aggr_flag;
    for (std::size_t i = 1; i < args.size(); ++i) {
        std::string a = args[i];
        std::string n;
        if (a.rfind("--reps=", 0) == 0) {
            n = a.substr(7);
            args.erase(args.begin() + i);
        } else if (a == "--reps" && i + 1 < args.size()) {
            n = args[i + 1];
            args.erase(args.begin() + i, args.begin() + i + 2);
        } else {
            continue;
        }
        reps_flag = "--benchmark_repetitions=" + n;
        aggr_flag = "--benchmark_report_aggregates_only=true";
        args.push_back(reps_flag.data());
        args.push_back(aggr_flag.data());
        break;
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

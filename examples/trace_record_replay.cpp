/**
 * @file
 * The paper's two-step methodology end to end: record a per-core LLC
 * miss trace from the synthetic front end, then replay the *same*
 * trace through the detailed memory simulator — identical offered
 * work, byte-for-byte reproducible.
 *
 * Demonstrates: TraceRecorder / TraceFileSource, driving cores and the
 * memory controller directly (without the System harness).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "cpu/core.hh"
#include "mem/controller.hh"
#include "sim/event_queue.hh"
#include "workload/mixes.hh"
#include "workload/trace_file.hh"
#include "workload/trace_source.hh"

using namespace memscale;

namespace
{

/** Run `cores` cores off the given sources; return last finish tick. */
Tick
runCores(std::vector<std::unique_ptr<TraceSource>> &sources,
         std::uint64_t budget, McCounters &counters_out)
{
    EventQueue eq;
    MemConfig mcfg;
    MemoryController mc(eq, mcfg);
    mc.startRefresh();

    CoreParams cp;
    cp.instrBudget = budget;
    cp.runPastBudget = false;
    std::vector<std::unique_ptr<Core>> cores;
    std::uint32_t done = 0;
    for (std::uint32_t i = 0; i < sources.size(); ++i)
        cores.push_back(std::make_unique<Core>(
            eq, i, *sources[i], mc, cp));
    for (auto &c : cores) {
        c->setOnDone([&] {
            if (++done == cores.size())
                eq.stop();
        });
        c->start();
    }
    eq.runUntil(msToTick(500.0));
    counters_out = mc.sampleCounters();
    return eq.now();
}

} // namespace

int
main(int argc, char **argv)
{
    exitOnFatal();
    Config conf;
    conf.parseArgs(argc, argv);
    const auto budget = static_cast<std::uint64_t>(
        conf.getInt("budget", 500'000));
    const std::string dir = conf.getString("tracedir", "/tmp");
    conf.refuseUnread();
    const std::uint32_t ncores = 4;

    // Step 1: record.  Each core's synthetic stream is teed to disk.
    std::printf("step 1: recording %u-core traces (%llu instr each) "
                "to %s\n", ncores,
                static_cast<unsigned long long>(budget), dir.c_str());
    std::vector<std::string> paths;
    {
        std::vector<std::unique_ptr<SyntheticTraceSource>> inner;
        std::vector<std::unique_ptr<TraceSource>> rec;
        for (std::uint32_t i = 0; i < ncores; ++i) {
            const AppProfile &app =
                appByName(i % 2 ? "gap" : "ammp");
            paths.push_back(dir + "/memscale_core" +
                            std::to_string(i) + ".trc");
            inner.push_back(std::make_unique<SyntheticTraceSource>(
                app, Addr(i) << 32, 64, 1000 + i));
            rec.push_back(std::make_unique<TraceRecorder>(
                *inner.back(), paths.back()));
        }
        McCounters c1;
        Tick t1 = runCores(rec, budget, c1);
        std::printf("  recorded run: %.3f ms, %llu reads\n",
                    tickToMs(t1),
                    static_cast<unsigned long long>(c1.reads));
    }

    // Step 2: replay twice and check reproducibility.
    Tick t_prev = 0;
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::unique_ptr<TraceSource>> replay;
        for (std::uint32_t i = 0; i < ncores; ++i)
            replay.push_back(
                std::make_unique<TraceFileSource>(paths[i]));
        McCounters c2;
        Tick t2 = runCores(replay, budget, c2);
        std::printf("step 2.%d: replay run: %.3f ms, %llu reads\n",
                    pass + 1, tickToMs(t2),
                    static_cast<unsigned long long>(c2.reads));
        if (pass == 1 && t2 != t_prev) {
            std::printf("ERROR: replays diverged!\n");
            return 1;
        }
        t_prev = t2;
    }
    std::printf("replays are tick-identical: the same trace yields "
                "the same execution.\n");
    return 0;
}

/**
 * @file
 * Cache-derived workload: instead of prescribing the miss rate, run a
 * synthetic address stream through the modelled 16 MB shared LLC
 * (Table 2) and let misses and writebacks emerge from cache behaviour,
 * then feed them to the memory system under MemScale.
 *
 * Demonstrates: AddressStream, Llc, CacheTraceSource, low-level system
 * assembly, epoch control without the System harness.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "cpu/core.hh"
#include "harness/report.hh"
#include "mem/controller.hh"
#include "memscale/epoch_controller.hh"
#include "sim/event_queue.hh"
#include "workload/llc.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    exitOnFatal();
    Config conf;
    conf.parseArgs(argc, argv);
    const auto budget = static_cast<std::uint64_t>(
        conf.getInt("budget", 1'000'000));
    conf.refuseUnread();
    const std::uint32_t ncores = 16;

    EventQueue eq;
    MemConfig mcfg;
    MemoryController mc(eq, mcfg);
    mc.startRefresh();

    // Each core runs a stream mix through its slice of a 16 MB LLC.
    std::vector<std::unique_ptr<CacheTraceSource>> sources;
    std::vector<std::unique_ptr<Core>> cores;
    std::vector<CpuSampler *> core_ptrs;
    CoreParams cp;
    cp.instrBudget = budget;
    cp.runPastBudget = false;
    std::uint32_t done = 0;
    for (std::uint32_t i = 0; i < ncores; ++i) {
        CacheTraceSource::Params p;
        p.accessesPerKiloInstr = 50.0;
        p.llcBytes = (16ull << 20) / ncores;   // shared-cache slice
        p.llcWays = 4;
        AddressStreamParams sp;
        sp.footprintBytes = 8ull << 20;
        sp.seqFrac = i % 2 ? 0.25 : 0.45;      // alternate behaviours
        sp.storeFrac = 0.3;
        sp.hotFrac = 0.08;                     // fits the LLC slice
        sp.hotProb = 0.85;
        sources.push_back(std::make_unique<CacheTraceSource>(
            p, sp, Addr(i) * (512ull << 20), 77 + i));
        cores.push_back(std::make_unique<Core>(
            eq, i, *sources.back(), mc, cp));
        core_ptrs.push_back(cores.back().get());
        cores.back()->setOnDone([&] {
            if (++done == ncores)
                eq.stop();
        });
    }

    auto policy = makePolicy("memscale");
    PolicyContext ctx;
    ctx.epochLen = msToTick(0.25);
    ctx.profileLen = usToTick(25.0);
    ctx.restWatts = 60.0;
    policy->configure(mc, ctx);
    EpochController epochs(eq, mc, core_ptrs, *policy, ctx);
    epochs.start();
    for (auto &c : cores)
        c->start();

    eq.runUntil(msToTick(500.0));

    McCounters counters = mc.sampleCounters();
    double instr = static_cast<double>(budget) * ncores;
    std::printf("cache-derived workload finished in %.3f ms\n",
                tickToMs(eq.now()));
    std::printf("emergent RPKI: %.2f, WPKI: %.2f (from LLC "
                "behaviour, not prescribed)\n",
                1000.0 * static_cast<double>(counters.reads) / instr,
                1000.0 * static_cast<double>(counters.writes) / instr);
    double mr = 0.0;
    for (auto &s : sources)
        mr += s->cache().missRate();
    std::printf("average LLC miss rate: %.1f%%\n",
                100.0 * mr / ncores);

    Table t({"t(ms)", "bus MHz", "util"});
    for (const EpochRecord &er : epochs.history())
        t.addRow({fmt(tickToMs(er.start)),
                  std::to_string(er.busMHz), pct(er.channelUtil)});
    t.print("MemScale decisions on the emergent workload");
    return 0;
}

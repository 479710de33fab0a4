/**
 * @file
 * Property-based protocol fuzzing: randomized request streams driven
 * through the real memory controller, with frequency re-locks,
 * powerdown-mode flips, and refresh injected at random points, must
 * never trigger the ProtocolChecker.  Every case prints its seed on
 * failure so a regression is reproducible with one number.  Full
 * System runs at 4 and 8 channels (closed-loop mixes and open-loop
 * serving) cover the same property end to end.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/protocol_checker.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

struct FuzzResult
{
    std::uint64_t violations = 0;
    std::uint64_t commands = 0;
    std::uint64_t relocks = 0;
    std::string firstViolation;
};

/**
 * One fuzz episode: `ops` random reads/writebacks interleaved with
 * random frequency switches, powerdown-mode changes, and idle gaps,
 * against a small memory so bank conflicts are frequent.
 */
FuzzResult
fuzz(std::uint64_t seed, int ops, bool refresh, bool powerdown)
{
    EventQueue eq;
    MemConfig cfg;
    cfg.numChannels = 1;
    MemoryController mc(eq, cfg);
    ProtocolChecker pc(false);
    mc.setCommandObserver(&pc);
    if (refresh)
        mc.startRefresh();

    Rng rng(seed);
    const Addr span = cfg.totalBytes();
    std::uint64_t outstanding_cb = 0;
    FnClient client([&](Tick) { --outstanding_cb; });

    for (int i = 0; i < ops; ++i) {
        switch (rng.next() % 16) {
          case 0: {
            // Re-lock to a random grid point (often a real change).
            mc.setFrequency(
                static_cast<FreqIndex>(rng.next() % numFreqPoints));
            break;
          }
          case 1: {
            if (powerdown) {
                static const PowerdownMode modes[] = {
                    PowerdownMode::None, PowerdownMode::FastExit,
                    PowerdownMode::SlowExit,
                    PowerdownMode::SelfRefresh};
                mc.setPowerdownMode(modes[rng.next() % 4]);
            }
            break;
          }
          case 2: {
            // Idle gap: drain everything, let ranks power down and
            // refreshes pass, then resume traffic.
            Tick gap = usToTick(1.0 + double(rng.next() % 200));
            eq.runUntil(eq.now() + gap);
            break;
          }
          default: {
            Addr a = (rng.next() % span) & ~Addr(cfg.lineBytes - 1);
            if (rng.next() % 3 == 0) {
                mc.writeback(a, 0);
            } else {
                ++outstanding_cb;
                mc.read(a, 0, &client);
            }
            // Occasionally run the queue forward a little so traffic
            // overlaps in-flight service and refresh windows.
            if (rng.next() % 4 == 0)
                eq.runUntil(eq.now() + nsToTick(
                    10.0 + double(rng.next() % 500)));
            break;
          }
        }
    }
    // Drain; cap the horizon so a refresh chain cannot spin forever.
    eq.runUntil(eq.now() + msToTick(10.0));

    FuzzResult r;
    r.violations = pc.violations();
    r.commands = pc.commandsChecked();
    r.relocks = pc.relocksSeen();
    if (!pc.samples().empty())
        r.firstViolation = pc.samples().front().str();
    EXPECT_EQ(outstanding_cb, 0u);
    return r;
}

/**
 * Run cfg under `policy` with the checker attached; the command
 * stream must be non-empty and violation-free.
 */
RunResult
checkedRun(SystemConfig cfg, const std::string &policy)
{
    cfg.protocolCheck = true;
    RunResult r = runPolicy(cfg, policy, /*rest_watts=*/150.0);
    EXPECT_GT(r.commandsChecked, 0u);
    EXPECT_EQ(r.protocolViolations, 0u);
    return r;
}

} // namespace

TEST(ProtocolProperties, RandomTrafficWithRelocksNeverViolates)
{
    const std::uint64_t base = 0xfeed5eed;
    for (std::uint64_t i = 0; i < 8; ++i) {
        std::uint64_t seed = deriveSeed(base, i);
        FuzzResult r = fuzz(seed, 400, /*refresh=*/false,
                            /*powerdown=*/false);
        EXPECT_EQ(r.violations, 0u)
            << "seed=" << seed << " first: " << r.firstViolation;
        EXPECT_GT(r.commands, 100u) << "seed=" << seed;
    }
}

TEST(ProtocolProperties, RandomTrafficWithRefreshNeverViolates)
{
    const std::uint64_t base = 0xabad1dea;
    for (std::uint64_t i = 0; i < 6; ++i) {
        std::uint64_t seed = deriveSeed(base, i);
        FuzzResult r = fuzz(seed, 300, /*refresh=*/true,
                            /*powerdown=*/false);
        EXPECT_EQ(r.violations, 0u)
            << "seed=" << seed << " first: " << r.firstViolation;
    }
}

TEST(ProtocolProperties, RandomTrafficWithPowerdownNeverViolates)
{
    const std::uint64_t base = 0x0ddba11;
    for (std::uint64_t i = 0; i < 6; ++i) {
        std::uint64_t seed = deriveSeed(base, i);
        FuzzResult r = fuzz(seed, 300, /*refresh=*/true,
                            /*powerdown=*/true);
        EXPECT_EQ(r.violations, 0u)
            << "seed=" << seed << " first: " << r.firstViolation;
    }
}

TEST(ProtocolProperties, FrequencyTransitionsActuallyExercised)
{
    // The fuzzer is only meaningful if re-locks really happen.
    FuzzResult r = fuzz(deriveSeed(0xfeed5eed, 0), 400, false, false);
    EXPECT_GT(r.relocks, 0u);
}

TEST(ProtocolProperties, EpochBoundaryChurnUnderStrictChecker)
{
    // Relocks straddling an epoch edge (memscale re-clocks), ranks in
    // (self-refresh) powerdown (fastpd) and refreshes mid-window, at
    // 4 and 8 channels; strict mode turns any violation into an abort.
    for (const char *policy : {"memscale", "fastpd"}) {
        for (std::uint64_t seed : {7ull, 99ull}) {
            for (std::uint32_t channels : {4u, 8u}) {
                SCOPED_TRACE(std::string(policy) +
                             " seed=" + std::to_string(seed) +
                             " channels=" + std::to_string(channels));
                SystemConfig cfg;
                cfg.mixName = "MID3";
                cfg.instrBudget = 250'000;
                cfg.epochLen = msToTick(0.1);
                cfg.profileLen = usToTick(10.0);
                cfg.seed = seed;
                cfg.mem.numChannels = channels;
                cfg.strictCheck = true;
                checkedRun(cfg, policy);
            }
        }
    }
}

TEST(ProtocolProperties, OpenLoopServingAtEightChannelsNeverViolates)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        SCOPED_TRACE(arrivalKindName(kind));
        SystemConfig cfg;
        cfg.mixName = "OPENLOOP";
        cfg.numCores = 8;
        cfg.epochLen = msToTick(0.1);
        cfg.profileLen = usToTick(10.0);
        cfg.seed = 12345;
        cfg.mem.numChannels = 8;
        cfg.serving.enabled = true;
        cfg.serving.arrival.kind = kind;
        cfg.serving.arrival.ratePerSec = 2.0e6;
        cfg.serving.horizon = msToTick(0.5);
        cfg.serving.sloP99Us = 3.0;
        const ServingStats s = checkedRun(cfg, "slo").serving;
        ASSERT_TRUE(s.valid);
        EXPECT_GT(s.arrived, 0u);
        // Every arrival is completed, dropped, queued or in service.
        EXPECT_EQ(s.arrived, s.completed + s.dropped + s.queuedAtEnd +
                                 s.inServiceAtEnd);
    }
}

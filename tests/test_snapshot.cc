/**
 * @file
 * Checkpoint/restore tests.
 *
 * Three layers, mirroring the subsystem:
 *
 *  - Serializer: the container format itself — typed round-trips and
 *    the rejection paths (bad magic, wrong version, truncation, CRC
 *    corruption, over-reads) that keep a damaged checkpoint from ever
 *    restoring silently.
 *  - ResumeEquivalence: the headline property.  For every Table-1 mix
 *    and every policy, a run cut at a seeded-fuzz mid-run tick and
 *    resumed from the snapshot must be bit-identical to the
 *    uninterrupted run — same state digest, same flattened result
 *    fields, same epoch-recorder CSV bytes.
 *  - Churn: checkpoints taken at deliberately awkward instants — mid
 *    frequency-relock, mid refresh, with most ranks powered down,
 *    inside a profiling window — restore exactly and replay cleanly
 *    under the strict DDR3 protocol checker.
 *
 * Everything here uses the golden-test scenario (500k instructions,
 * 0.1 ms epochs, seed 12345) so failures can be cross-checked against
 * test_golden, whose hashes must NOT change when a run writes
 * checkpoints: snapshot writers are pure readers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "dram/rank.hh"
#include "harness/cluster.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "mem/controller.hh"
#include "memscale/policies/policy.hh"
#include "sim/event_kinds.hh"
#include "snapshot/serializer.hh"
#include "workload/mixes.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

/** Same scenario as test_golden's goldenConfig(). */
SystemConfig
snapConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 500'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.seed = 12345;
    return cfg;
}

constexpr Watts kRestWatts = 150.0;

std::string
scratch(const std::string &name)
{
    return test::tempPath("snapshot_" + name);
}

void
removeShards(const std::string &prefix, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        std::remove((prefix + ".shard" + std::to_string(i)).c_str());
}

/** The FatalError message for an action, or "" if none was thrown. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.message;
    }
    return "";
}

/**
 * Swallows stderr while it lives.  Every refused resume prints its
 * "fatal:" line (and some a "warn:" line) before throwing, so the
 * loops that refuse hundreds of them would otherwise bury a real
 * failure's output in the log.  Assertions still print: they are
 * checked after the loop, outside the guard.
 */
struct QuietStderr
{
    QuietStderr() { testing::internal::CaptureStderr(); }
    ~QuietStderr() { testing::internal::GetCapturedStderr(); }
    QuietStderr(const QuietStderr &) = delete;
    QuietStderr &operator=(const QuietStderr &) = delete;
};

/**
 * Run `policy` on `base` up to `cut` and write a checkpoint there, as
 * `snapshot_tool checkpoint-at=… checkpoint-stop=1` does.  Returns
 * false, writing nothing, when the run is no longer live at the cut.
 */
bool
cutRun(const SystemConfig &base, const std::string &policy, Tick cut,
       const std::string &path)
{
    SystemConfig cfg = base;
    cfg.restWatts = kRestWatts;
    auto p = makePolicy(policy);
    System sys(cfg, *p);
    if (!sys.advance(cut))
        return false;
    sys.checkpoint(path);
    return true;
}

/**
 * Everything two runs must agree on, gathered inside a sweep task so
 * the EXPECTs can run on the main thread.
 */
struct EquivOutcome
{
    std::string label;
    Tick cut = 0;
    std::uint64_t fullHash = 0;
    std::uint64_t shardedHash = 0;
    std::uint64_t steppedHash = 0;
    bool fieldsEqual = false;
    bool csvEqual = false;
};

/**
 * Cut one (mix, policy) run at a seeded-fuzz mid-run tick, resume it
 * from the snapshot, and collect every equivalence signal.  The same
 * tick also splits a stepped run: one System advanced to the cut, read
 * through telemetry(), then advanced to the end.  `salt` varies the
 * cut per case so the matrix probes many different resume points,
 * while staying fully deterministic.
 */
EquivOutcome
checkResume(const SystemConfig &base, const std::string &policy,
            std::uint64_t salt)
{
    SystemConfig cfg = base;
    cfg.observe = true;
    RunResult full = runPolicy(cfg, policy, kRestWatts);

    // Fuzz the cut into the middle three fifths of the run: past
    // warm-up, before the finish line.
    const Tick lo = full.runtime / 5;
    const Tick cut =
        lo + deriveSeed(cfg.seed, salt) % (full.runtime * 3 / 5);

    const std::string prefix =
        scratch("equiv_" + cfg.mixName + "_" + policy);
    RunResult sharded =
        runPolicySharded(cfg, policy, kRestWatts, {cut}, prefix);
    removeShards(prefix, 1);

    SystemConfig scfg = cfg;
    scfg.restWatts = kRestWatts;
    auto p = makePolicy(policy);
    System sys(scfg, *p);
    sys.advance(cut);
    sys.telemetry();
    sys.advance(scfg.maxSimTime);
    const RunResult stepped = sys.finish();

    EquivOutcome out;
    out.label = cfg.mixName + "/" + policy;
    out.cut = cut;
    out.fullHash = hashRunResult(full);
    out.shardedHash = hashRunResult(sharded);
    out.steppedHash = hashRunResult(stepped);
    const auto fields = flattenRunResult(full);
    out.fieldsEqual = fields == flattenRunResult(sharded) &&
                      fields == flattenRunResult(stepped);
    out.csvEqual = full.obs && sharded.obs && stepped.obs &&
                   full.obs->toCsv() == sharded.obs->toCsv() &&
                   full.obs->toCsv() == stepped.obs->toCsv();
    return out;
}

void
expectEquivalent(const std::vector<EquivOutcome> &outs)
{
    for (const EquivOutcome &o : outs) {
        EXPECT_EQ(o.shardedHash, o.fullHash)
            << o.label << " cut@" << o.cut;
        EXPECT_EQ(o.steppedHash, o.fullHash)
            << o.label << " stepped@" << o.cut;
        EXPECT_TRUE(o.fieldsEqual) << o.label << " cut@" << o.cut;
        EXPECT_TRUE(o.csvEqual) << o.label << " cut@" << o.cut;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Serializer: container round-trips and rejection paths.
// ---------------------------------------------------------------------

TEST(Serializer, RoundTripTypedValues)
{
    SnapshotWriter w;
    SectionWriter &s = w.section("vals");
    s.u8(0xab);
    s.u32(0xdeadbeef);
    s.u64(0x0123456789abcdefull);
    s.i64(-42);
    s.f64(0.1);
    s.f64(-0.0);
    s.b(true);
    s.b(false);
    s.str("hello snapshot");
    s.str("");

    SnapshotReader r(w.serialize());
    ASSERT_TRUE(r.has("vals"));
    SectionReader v = r.section("vals");
    EXPECT_EQ(v.u8(), 0xab);
    EXPECT_EQ(v.u32(), 0xdeadbeefu);
    EXPECT_EQ(v.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(v.i64(), -42);
    EXPECT_EQ(v.f64(), 0.1);
    double nz = v.f64();
    EXPECT_EQ(nz, 0.0);
    EXPECT_TRUE(std::signbit(nz));   // bit-pattern exact, -0.0 != +0.0
    EXPECT_TRUE(v.b());
    EXPECT_FALSE(v.b());
    EXPECT_EQ(v.str(), "hello snapshot");
    EXPECT_EQ(v.str(), "");
    EXPECT_EQ(v.remaining(), 0u);
}

TEST(Serializer, SectionReopenAppends)
{
    SnapshotWriter w;
    w.section("a").u32(1);
    w.section("b").u32(2);
    w.section("a").u32(3);   // reopen appends, no duplicate section

    SnapshotReader r(w.serialize());
    SectionReader a = r.section("a");
    EXPECT_EQ(a.u32(), 1u);
    EXPECT_EQ(a.u32(), 3u);
    EXPECT_EQ(a.remaining(), 0u);
    SectionReader b = r.section("b");
    EXPECT_EQ(b.u32(), 2u);
}

TEST(Serializer, MissingSectionFatal)
{
    SnapshotWriter w;
    w.section("present").u8(1);
    SnapshotReader r(w.serialize());
    EXPECT_FALSE(r.has("absent"));
    EXPECT_THROW(r.section("absent"), FatalError);
}

TEST(Serializer, OverreadFatalNamesSection)
{
    SnapshotWriter w;
    w.section("tiny").u8(7);
    SnapshotReader r(w.serialize());
    SectionReader t = r.section("tiny");
    t.u8();
    std::string msg = fatalMessage([&] { t.u64(); });
    EXPECT_NE(msg.find("tiny"), std::string::npos) << msg;
}

TEST(Serializer, RejectsBadMagic)
{
    SnapshotWriter w;
    w.section("s").u64(1);
    std::vector<std::uint8_t> bytes = w.serialize();
    bytes[0] ^= 0xff;
    EXPECT_THROW(SnapshotReader r(std::move(bytes)), FatalError);
}

TEST(Serializer, RejectsUnsupportedVersion)
{
    SnapshotWriter w;
    w.section("s").u64(1);
    std::vector<std::uint8_t> bytes = w.serialize();
    bytes[8] += 1;   // version field follows the 8-byte magic
    EXPECT_THROW(SnapshotReader r(std::move(bytes)), FatalError);
}

TEST(Serializer, RejectsCorruptPayload)
{
    SnapshotWriter w;
    w.section("s").str("payload payload payload");
    std::vector<std::uint8_t> bytes = w.serialize();
    bytes[bytes.size() - 9] ^= 0x01;   // inside the payload, before CRC
    EXPECT_THROW(SnapshotReader r(std::move(bytes)), FatalError);
}

TEST(Serializer, RejectsTruncation)
{
    SnapshotWriter w;
    w.section("s").u64(0x1122334455667788ull);
    std::vector<std::uint8_t> whole = w.serialize();
    // Every proper prefix must be rejected — there is no length at
    // which a cut-off snapshot starts looking valid again.
    for (std::size_t keep : {whole.size() - 1, whole.size() / 2,
                             std::size_t(12), std::size_t(3)}) {
        std::vector<std::uint8_t> cut(whole.begin(),
                                      whole.begin() + keep);
        EXPECT_THROW(SnapshotReader r(std::move(cut)), FatalError)
            << "prefix of " << keep << " bytes accepted";
    }
}

TEST(Serializer, RngRoundTrip)
{
    Rng rng(987654321);
    for (int i = 0; i < 100; ++i)
        rng.next();

    SnapshotWriter w;
    SectionIO out(w.section("rng"));
    out(rng);
    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 32; ++i)
        expect.push_back(rng.next());

    Rng other(1);   // different seed: state must come from the snapshot
    SnapshotReader r(w.serialize());
    SectionReader s = r.section("rng");
    SectionIO in(s);
    in(other);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(other.next(), expect[i]) << "draw " << i;
}

TEST(Serializer, FileRoundTrip)
{
    const std::string path = scratch("file.snap");
    SnapshotWriter w;
    w.section("x").u64(42);
    w.writeFile(path);
    SnapshotReader r(path);
    SectionReader x = r.section("x");
    EXPECT_EQ(x.u64(), 42u);
    std::remove(path.c_str());

    EXPECT_THROW(SnapshotReader gone("/nonexistent/no.snap"),
                 FatalError);
}

// ---------------------------------------------------------------------
// Rank: the deferred-transition buffer round-trips, and a buffer the
// simulator could not have produced is refused.
// ---------------------------------------------------------------------

namespace
{

/** One deferred transition as Rank::transfer writes it. */
struct RawTransition
{
    Tick at;
    std::uint8_t kind;   // 1 = open, 0 = close
};

/**
 * Restore a Rank from a hand-built section: an idle-state-Up rank
 * with `open_banks` open as of `last_update`, no ACT history, and
 * `declared` deferred transitions of which `entries` are written.
 * Returns the FatalError message, or "" if the restore succeeded.
 */
std::string
restoreRank(Tick last_update, std::uint32_t open_banks,
            std::uint32_t declared,
            const std::vector<RawTransition> &entries)
{
    SnapshotWriter w;
    SectionWriter &sec = w.section("mc");
    SectionIO io(sec);
    RankActivity{}.transfer(io);
    sec.u64(last_update);
    sec.u32(open_banks);
    sec.u8(0);    // RankIdleState::Up
    sec.u32(0);   // no recent ACTs
    sec.u32(declared);
    for (const RawTransition &t : entries) {
        sec.u64(t.at);
        sec.u8(t.kind);
    }
    SnapshotReader r(w.serialize());
    SectionReader in = r.section("mc");
    SectionIO rd(in);
    Rank rank;
    return fatalMessage([&] { rank.transfer(rd); });
}

} // namespace

TEST(RankRestore, DeferredTransitionsRoundTrip)
{
    Rank a;
    a.openAt(100);
    a.sample(150);     // the open applies; the rest stay deferred
    a.closeAt(400);
    a.closeAt(250);    // recorded out of order, applied in tick order
    a.openAt(250);

    SnapshotWriter w;
    SectionIO out(w.section("mc"));
    a.transfer(out);
    SnapshotReader r(w.serialize());
    SectionReader in = r.section("mc");
    SectionIO rd(in);
    Rank b;
    b.transfer(rd);
    EXPECT_EQ(b.pendingCloses(), 2u);
    EXPECT_EQ(b.latestPendingClose(), std::optional<Tick>(400));

    const RankActivity &x = a.sample(500);
    const RankActivity &y = b.sample(500);
    EXPECT_EQ(y.actStandbyTime, x.actStandbyTime);
    EXPECT_EQ(y.preStandbyTime, x.preStandbyTime);
    EXPECT_EQ(y.actPreCount, x.actPreCount);
    EXPECT_EQ(y.actStandbyTime, 300u);   // [100, 400)
    EXPECT_EQ(y.preStandbyTime, 200u);
    EXPECT_EQ(y.actPreCount, 2u);
    EXPECT_EQ(b.openBanks(), 0u);
}

TEST(RankRestore, AcceptsAReplayableBuffer)
{
    EXPECT_EQ(restoreRank(100, 1, 2, {{150, 0}, {200, 1}}), "");
    // A close at exactly the last update is still pending.
    EXPECT_EQ(restoreRank(100, 1, 1, {{100, 0}}), "");
}

TEST(RankRestore, RejectsBufferOverCapacity)
{
    const std::string msg =
        restoreRank(0, 0, Rank::maxPendingTransitions + 1, {});
    EXPECT_NE(msg.find("Rank restore"), std::string::npos) << msg;
    EXPECT_NE(msg.find("section mc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("exceed"), std::string::npos) << msg;
}

TEST(RankRestore, RejectsTransitionBeforeLastUpdate)
{
    const std::string msg = restoreRank(500, 1, 1, {{499, 0}});
    EXPECT_NE(msg.find("Rank restore"), std::string::npos) << msg;
    EXPECT_NE(msg.find("section mc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("precedes"), std::string::npos) << msg;
}

TEST(RankRestore, RejectsCloseWithNoOpenBank)
{
    // One open bank, two closes: the second would underflow.
    const std::string msg =
        restoreRank(100, 1, 2, {{150, 0}, {160, 0}});
    EXPECT_NE(msg.find("Rank restore"), std::string::npos) << msg;
    EXPECT_NE(msg.find("section mc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("none open"), std::string::npos) << msg;
    // An open recorded ahead of the close makes the same pair legal.
    EXPECT_EQ(restoreRank(100, 1, 3, {{120, 1}, {150, 0}, {160, 0}}),
              "");
}

TEST(RankRestore, RejectsMalformedEntries)
{
    EXPECT_NE(restoreRank(100, 1, 1, {{150, 2}}).find("kind"),
              std::string::npos);
    EXPECT_NE(restoreRank(100, 2, 2, {{160, 0}, {150, 0}})
                  .find("out of tick order"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// ResumeEquivalence: the full mix x policy matrix.
// ---------------------------------------------------------------------

TEST(ResumeEquivalence, AllMixesMidRunCheckpoint)
{
    // Every Table-1 mix under MemScale, each cut at its own
    // seeded-fuzz tick.  Fanned out on the sweep engine; checked on
    // this thread.
    const std::vector<MixSpec> &mixes = allMixes();
    SweepEngine eng;
    std::vector<EquivOutcome> outs = eng.map<EquivOutcome>(
        mixes.size(), [&](std::size_t i) {
            return checkResume(snapConfig(mixes[i].name), "memscale",
                               i);
        });
    expectEquivalent(outs);
}

TEST(ResumeEquivalence, AllPoliciesMidRunCheckpoint)
{
    // Every registered policy on MID3, plus the coordinated-DVFS
    // research policy, each with its own fuzzed cut.  This is what
    // forces saveState/restoreState coverage of per-policy state
    // (slack trackers, per-channel decisions, CPU DVFS level).
    std::vector<std::string> policies = policyNames();
    policies.push_back("coscale");
    SweepEngine eng;
    std::vector<EquivOutcome> outs = eng.map<EquivOutcome>(
        policies.size(), [&](std::size_t i) {
            return checkResume(snapConfig("MID3"), policies[i],
                               100 + i);
        });
    expectEquivalent(outs);
}

namespace
{

/** Open-loop scenario sized like snapConfig (see test_serving). */
SystemConfig
servingConfig(ArrivalKind kind)
{
    SystemConfig cfg;
    cfg.mixName = "OPENLOOP";
    cfg.numCores = 8;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.seed = 12345;
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind = kind;
    cfg.serving.arrival.ratePerSec = 2.0e6;
    cfg.serving.horizon = msToTick(0.5);
    cfg.serving.sloP99Us = 3.0;
    return cfg;
}

} // namespace

TEST(ResumeEquivalence, ServingMidRunCheckpoint)
{
    // The open-loop path adds a whole new section's worth of state —
    // generator Rng + MMPP dwell, demand Rng, the request queue,
    // in-flight workers, both latency histograms — and ServingStats
    // fields join the flattened digest, so a cut anywhere must still
    // land bit-identical.  Every arrival process, CPI-bound and
    // SLO policies, fuzzed cuts.
    std::vector<std::pair<ArrivalKind, std::string>> cases = {
        {ArrivalKind::Poisson, "memscale"},
        {ArrivalKind::Poisson, "slo"},
        {ArrivalKind::Bursty, "slo"},
        {ArrivalKind::Diurnal, "slo"},
    };
    SweepEngine eng;
    std::vector<EquivOutcome> outs = eng.map<EquivOutcome>(
        cases.size(), [&](std::size_t i) {
            SystemConfig cfg = servingConfig(cases[i].first);
            cfg.mixName = std::string("OPENLOOP-") +
                          arrivalKindName(cases[i].first);
            return checkResume(cfg, cases[i].second, 500 + i);
        });
    expectEquivalent(outs);
}

TEST(ResumeEquivalence, ServingBurstyChainOfCuts)
{
    // Three cuts through a bursty run: with ~50 us burst dwells in a
    // 500 us horizon the cuts land inside dwell states, so the MMPP
    // position (inBurst_/stateEnd_) must round-trip exactly — a
    // drifted dwell clock shifts every later arrival and the digest.
    SystemConfig cfg = servingConfig(ArrivalKind::Bursty);
    cfg.observe = true;
    RunResult full = runPolicy(cfg, "slo", kRestWatts);
    ASSERT_GT(full.serving.completed, 0u);

    const Tick t = full.runtime;
    const std::string prefix = scratch("serving_chain");
    RunResult sharded = runPolicySharded(
        cfg, "slo", kRestWatts, {t / 4, t / 2, (3 * t) / 4}, prefix);
    removeShards(prefix, 3);

    EXPECT_EQ(hashRunResult(sharded), hashRunResult(full));
    EXPECT_TRUE(flattenRunResult(full) == flattenRunResult(sharded));
    ASSERT_TRUE(full.obs && sharded.obs);
    EXPECT_EQ(full.obs->toCsv(), sharded.obs->toCsv());
}

TEST(ResumeEquivalence, ServingResumeRejectsMismatchedArrival)
{
    // The serving options are part of the meta fingerprint: a
    // snapshot resumed under a different traffic scenario must be
    // refused loudly, not replayed into a silently-wrong tail.
    const std::string path = scratch("serving_mismatch.snap");
    SystemConfig cfg = servingConfig(ArrivalKind::Bursty);
    ASSERT_TRUE(cutRun(cfg, "slo", msToTick(0.1), path));

    auto resume = [&](SystemConfig rcfg) {
        rcfg.resumePath = path;
        return fatalMessage([&] { runPolicy(rcfg, "slo", kRestWatts); });
    };

    EXPECT_EQ(resume(servingConfig(ArrivalKind::Bursty)), "");

    SystemConfig other = servingConfig(ArrivalKind::Poisson);
    std::string msg = resume(other);
    EXPECT_NE(msg.find("snapshot serving.arrival.kind "),
              std::string::npos)
        << msg;

    other = servingConfig(ArrivalKind::Bursty);
    other.serving.arrival.ratePerSec = 1.0e6;
    msg = resume(other);
    EXPECT_NE(msg.find("snapshot serving.arrival.ratePerSec "),
              std::string::npos)
        << msg;

    other = servingConfig(ArrivalKind::Bursty);
    other.serving.missesPerRequest = 4.0;
    msg = resume(other);
    EXPECT_NE(msg.find("snapshot serving.missesPerRequest "),
              std::string::npos)
        << msg;

    std::remove(path.c_str());
}

TEST(ResumeEquivalence, ServingAndClosedLoopSnapshotsDontCross)
{
    // Closed-loop snapshots carry a "cores" section, serving ones a
    // "serving" section; resuming across modes must fail on the
    // missing section, never silently construct the wrong workload.
    const std::string cl = scratch("closedloop.snap");
    SystemConfig cfg = snapConfig("MID3");
    ASSERT_TRUE(cutRun(cfg, "slo", msToTick(0.1), cl));

    SystemConfig srv = servingConfig(ArrivalKind::Poisson);
    srv.resumePath = cl;
    EXPECT_NE(fatalMessage([&] { runPolicy(srv, "slo", kRestWatts); }),
              "");

    const std::string sv = scratch("servingmode.snap");
    SystemConfig scfg = servingConfig(ArrivalKind::Poisson);
    ASSERT_TRUE(cutRun(scfg, "slo", msToTick(0.1), sv));

    SystemConfig closed = snapConfig("MID3");
    closed.resumePath = sv;
    EXPECT_NE(
        fatalMessage([&] { runPolicy(closed, "slo", kRestWatts); }),
        "");

    std::remove(cl.c_str());
    std::remove(sv.c_str());
}

TEST(ResumeEquivalence, ChainOfThreeCuts)
{
    // Shard -> resume -> shard -> resume -> shard -> finish: state
    // must survive repeated serialization, not just one hop.
    SystemConfig cfg = snapConfig("MEM2");
    cfg.observe = true;
    RunResult full = runPolicy(cfg, "memscale", kRestWatts);
    const Tick r = full.runtime;
    const std::string prefix = scratch("chain");
    RunResult sharded = runPolicySharded(
        cfg, "memscale", kRestWatts, {r / 4, r / 2, 3 * r / 4},
        prefix);
    removeShards(prefix, 3);
    EXPECT_EQ(hashRunResult(sharded), hashRunResult(full));
    EXPECT_EQ(flattenRunResult(sharded), flattenRunResult(full));
    ASSERT_TRUE(full.obs && sharded.obs);
    EXPECT_EQ(full.obs->toCsv(), sharded.obs->toCsv());
}

TEST(ResumeEquivalence, ShardedCutPastTheEndWritesNothing)
{
    // A cut the workload never reaches ends the chain: the result is
    // the uninterrupted run's and no shard file is written.  That
    // includes a cut at the exact completion tick, where the last core
    // finishes before the Sample-class stop of the cut would run.
    SystemConfig cfg = snapConfig("MID2");
    RunResult full = runPolicy(cfg, "memscale", kRestWatts);
    const std::string prefix = scratch("past_end");
    const std::string shard0 = prefix + ".shard0";
    for (Tick cut : {full.runtime, full.runtime + usToTick(1.0)}) {
        std::remove(shard0.c_str());
        RunResult r = runPolicySharded(cfg, "memscale", kRestWatts,
                                       {cut}, prefix);
        EXPECT_EQ(hashRunResult(r), hashRunResult(full)) << cut;
        std::FILE *f = std::fopen(shard0.c_str(), "rb");
        EXPECT_EQ(f, nullptr) << "cut at " << cut << " wrote a shard";
        if (f != nullptr)
            std::fclose(f);
    }
    std::remove(shard0.c_str());
}

TEST(ResumeEquivalence, CheckpointWritersAreBehaviourFree)
{
    // A run that writes checkpoints as it goes must be bit-identical
    // to one that doesn't — the same contract observability has.
    // This is why the golden hashes survive checkpointing.
    SystemConfig cfg = snapConfig("MID1");
    RunResult off = runPolicy(cfg, "memscale", kRestWatts);

    cfg.restWatts = kRestWatts;
    auto p = makePolicy("memscale");
    System sys(cfg, *p);
    const std::string path = scratch("periodic");
    std::size_t written = 0;
    for (Tick t = usToTick(50.0); sys.advance(t); t += usToTick(50.0)) {
        sys.checkpoint(path);
        ++written;
    }
    RunResult on = sys.finish();

    EXPECT_EQ(hashRunResult(on), hashRunResult(off));
    EXPECT_GE(written, 2u);
    std::remove(path.c_str());
}

TEST(ResumeEquivalence, SnapshotFilesAreDeterministic)
{
    // Two separate processes-worth of the same run must produce
    // byte-identical snapshot files: the container holds no pointers,
    // timestamps, or other environmental junk.  golden_bisect.py and
    // the sweep thread-count test both stand on this.
    auto snapBytes = [](const std::string &path) {
        SystemConfig cfg = snapConfig("MID3");
        EXPECT_TRUE(cutRun(cfg, "memscale", msToTick(0.15), path));
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr);
        std::string bytes;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.append(buf, got);
        std::fclose(f);
        std::remove(path.c_str());
        return bytes;
    };
    std::string a = snapBytes(scratch("det_a.snap"));
    std::string b = snapBytes(scratch("det_b.snap"));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

namespace
{

/** One fingerprinted field and a change to it that still builds. */
struct FieldMismatch
{
    const char *field;
    std::function<void(SystemConfig &, std::string &policy)> mutate;
};

/**
 * A row per field of the meta fingerprint, in file order; a new config
 * field needs a row here.  dynamicPolicy has none: it follows from the
 * policy, whose row fails first.  The app.* rows edit the one custom
 * application of the cut they run against.
 */
const std::vector<FieldMismatch> &
fieldMismatches()
{
    using C = SystemConfig;
    using P = std::string;
    static const std::vector<FieldMismatch> rows = {
        {"mix", [](C &c, P &) { c.mixName = "MID2"; }},
        {"policy", [](C &, P &p) { p = "static"; }},
        {"numCores", [](C &c, P &) { c.numCores = 8; }},
        {"cpuGHz", [](C &c, P &) { c.cpuGHz = 3.0; }},
        {"instrBudget", [](C &c, P &) { c.instrBudget = 400'000; }},
        {"mem.numChannels", [](C &c, P &) { c.mem.numChannels = 2; }},
        // 4 DIMMs x 1 rank instead of 2 x 2: same ranks per channel.
        {"mem.dimmsPerChannel",
         [](C &c, P &) {
             c.mem.dimmsPerChannel = 4;
             c.mem.ranksPerDimm = 1;
         }},
        {"mem.ranksPerDimm", [](C &c, P &) { c.mem.ranksPerDimm = 1; }},
        {"mem.banksPerRank", [](C &c, P &) { c.mem.banksPerRank = 16; }},
        {"mem.lineBytes", [](C &c, P &) { c.mem.lineBytes = 128; }},
        {"mem.rowBytes", [](C &c, P &) { c.mem.rowBytes = 16384; }},
        {"mem.bytesPerRank",
         [](C &c, P &) { c.mem.bytesPerRank = 2ull << 30; }},
        {"mem.writeQueueDepth",
         [](C &c, P &) { c.mem.writeQueueDepth = 64; }},
        {"mem.pagePolicy",
         [](C &c, P &) { c.mem.pagePolicy = PagePolicy::OpenPage; }},
        {"mem.scheduler",
         [](C &c, P &) { c.mem.scheduler = SchedulerPolicy::FrFcfs; }},
        {"mem.colLowLines", [](C &c, P &) { c.mem.colLowLines = 2; }},
        {"mem.ladder.demoteSlowPd",
         [](C &c, P &) { c.mem.ladder.demoteSlowPd *= 2; }},
        {"mem.ladder.demoteSelfRefresh",
         [](C &c, P &) { c.mem.ladder.demoteSelfRefresh *= 2; }},
        {"mem.ladder.demoteSrSlow",
         [](C &c, P &) { c.mem.ladder.demoteSrSlow *= 2; }},
        {"mem.ladder.demoteDeepPd",
         [](C &c, P &) { c.mem.ladder.demoteDeepPd *= 2; }},
        {"mem.ladder.migrate",
         [](C &c, P &) { c.mem.ladder.migrate = true; }},
        {"mem.ladder.migrateInterval",
         [](C &c, P &) { c.mem.ladder.migrateInterval *= 2; }},
        {"mem.ladder.hotRanks",
         [](C &c, P &) { c.mem.ladder.hotRanks = 2; }},
        {"mem.ladder.hotThreshold",
         [](C &c, P &) { c.mem.ladder.hotThreshold = 16; }},
        {"mem.ladder.maxSwapsPerInterval",
         [](C &c, P &) { c.mem.ladder.maxSwapsPerInterval = 8; }},
        {"mem.ladder.migrationLines",
         [](C &c, P &) { c.mem.ladder.migrationLines = 16; }},
        {"mem.ladder.counterSets",
         [](C &c, P &) { c.mem.ladder.counterSets = 512; }},
        {"power.vdd", [](C &c, P &) { c.power.vdd = 1.5; }},
        {"power.iReadWrite", [](C &c, P &) { c.power.iReadWrite *= 2; }},
        {"power.iActPre", [](C &c, P &) { c.power.iActPre *= 2; }},
        {"power.iActStandby", [](C &c, P &) { c.power.iActStandby *= 2; }},
        {"power.iActPowerdown",
         [](C &c, P &) { c.power.iActPowerdown *= 2; }},
        {"power.iPreStandby", [](C &c, P &) { c.power.iPreStandby *= 2; }},
        {"power.iPrePdFast", [](C &c, P &) { c.power.iPrePdFast *= 2; }},
        {"power.iPrePdSlow", [](C &c, P &) { c.power.iPrePdSlow *= 2; }},
        {"power.iSelfRefresh",
         [](C &c, P &) { c.power.iSelfRefresh *= 2; }},
        {"power.iSrSlowClock",
         [](C &c, P &) { c.power.iSrSlowClock *= 2; }},
        {"power.iDeepPowerdown",
         [](C &c, P &) { c.power.iDeepPowerdown *= 2; }},
        {"power.iRefresh", [](C &c, P &) { c.power.iRefresh *= 2; }},
        {"power.termOtherRankW",
         [](C &c, P &) { c.power.termOtherRankW *= 2; }},
        {"power.termSelfWriteW",
         [](C &c, P &) { c.power.termSelfWriteW *= 2; }},
        {"power.pllW", [](C &c, P &) { c.power.pllW *= 2; }},
        {"power.regPeakW", [](C &c, P &) { c.power.regPeakW *= 2; }},
        {"power.mcPeakW", [](C &c, P &) { c.power.mcPeakW *= 2; }},
        {"power.mcVMin", [](C &c, P &) { c.power.mcVMin = 0.7; }},
        {"power.mcVMax", [](C &c, P &) { c.power.mcVMax = 1.1; }},
        {"power.proportionality",
         [](C &c, P &) { c.power.proportionality = 0.9; }},
        {"power.cpuCorePeakW",
         [](C &c, P &) { c.power.cpuCorePeakW *= 2; }},
        {"power.cpuStaticFrac",
         [](C &c, P &) { c.power.cpuStaticFrac = 0.4; }},
        {"power.cpuVMin", [](C &c, P &) { c.power.cpuVMin = 0.7; }},
        {"power.cpuVMax", [](C &c, P &) { c.power.cpuVMax = 1.1; }},
        {"power.cpuNominalGHz",
         [](C &c, P &) { c.power.cpuNominalGHz = 3.5; }},
        {"power.cpuMinGHz", [](C &c, P &) { c.power.cpuMinGHz = 1.5; }},
        {"power.chipsPerRank", [](C &c, P &) { c.power.chipsPerRank = 18; }},
        {"power.nominalBusMHz",
         [](C &c, P &) { c.power.nominalBusMHz = 667; }},
        {"power.minBusMHz", [](C &c, P &) { c.power.minBusMHz = 100; }},
        {"gamma", [](C &c, P &) { c.gamma = 0.05; }},
        {"epochLen", [](C &c, P &) { c.epochLen = msToTick(0.2); }},
        {"profileLen", [](C &c, P &) { c.profileLen = usToTick(20.0); }},
        {"restWatts", [](C &c, P &) { c.restWatts = 100.0; }},
        {"memPowerFraction", [](C &c, P &) { c.memPowerFraction = 0.5; }},
        {"seed", [](C &c, P &) { c.seed = 777; }},
        {"customApps",
         [](C &c, P &) {
             c.customApps.push_back(appForCore(mixByName("MID1"), 0));
         }},
        {"app.name", [](C &c, P &) { c.customApps[0].name += "x"; }},
        {"app.phases",
         [](C &c, P &) {
             c.customApps[0].phases.push_back(c.customApps[0].phases[0]);
         }},
        {"app.phase.mpki",
         [](C &c, P &) { c.customApps[0].phases[0].mpki *= 2; }},
        {"app.phase.wpki",
         [](C &c, P &) { c.customApps[0].phases[0].wpki += 1.0; }},
        {"app.phase.baseCpi",
         [](C &c, P &) { c.customApps[0].phases[0].baseCpi *= 2; }},
        {"app.phase.streamFrac",
         [](C &c, P &) { c.customApps[0].phases[0].streamFrac = 0.25; }},
        {"app.phase.instructions",
         [](C &c, P &) {
             c.customApps[0].phases[0].instructions += 1000;
         }},
        {"app.footprintBytes",
         [](C &c, P &) { c.customApps[0].footprintBytes *= 2; }},
        {"app.loopPhases",
         [](C &c, P &) {
             c.customApps[0].loopPhases = !c.customApps[0].loopPhases;
         }},
        {"modelCpuPower", [](C &c, P &) { c.modelCpuPower = true; }},
        {"maxSimTime", [](C &c, P &) { c.maxSimTime = msToTick(1000.0); }},
        {"protocolCheck", [](C &c, P &) { c.protocolCheck = true; }},
        {"observe", [](C &c, P &) { c.observe = true; }},
        {"serving.enabled", [](C &c, P &) { c.serving.enabled = true; }},
        {"serving.arrival.kind",
         [](C &c, P &) { c.serving.arrival.kind = ArrivalKind::Bursty; }},
        {"serving.arrival.ratePerSec",
         [](C &c, P &) { c.serving.arrival.ratePerSec = 2.0e6; }},
        {"serving.arrival.seed",
         [](C &c, P &) { c.serving.arrival.seed = 2; }},
        {"serving.missesPerRequest",
         [](C &c, P &) { c.serving.missesPerRequest = 4.0; }},
        {"serving.horizon",
         [](C &c, P &) { c.serving.horizon = msToTick(4.0); }},
        {"serving.maxQueue", [](C &c, P &) { c.serving.maxQueue = 8; }},
        {"serving.sloP99Us", [](C &c, P &) { c.serving.sloP99Us = 3.0; }},
    };
    return rows;
}

} // namespace

TEST(ResumeEquivalence, ResumeRejectsMismatchedConfig)
{
    // A snapshot resumed under a different scenario is a silent-wrong
    // result factory; the meta fingerprint must catch every field
    // loudly and name it.  The app.* rows resume a second cut, whose
    // cores run one custom application.
    const SystemConfig plain = snapConfig("MID1");
    SystemConfig custom = plain;
    custom.customApps = {appForCore(mixByName("MID1"), 0)};
    const std::string plain_path = scratch("mismatch.snap");
    const std::string custom_path = scratch("mismatch_app.snap");
    ASSERT_TRUE(cutRun(plain, "memscale", msToTick(0.1), plain_path));
    ASSERT_TRUE(cutRun(custom, "memscale", msToTick(0.1), custom_path));

    // The FatalError message of resuming `cfg` from `path`, or "".
    auto resume = [](SystemConfig cfg, const std::string &policy,
                     const std::string &path) {
        cfg.resumePath = path;
        return fatalMessage([&] {
            auto p = makePolicy(policy);
            System(cfg, *p).run();
        });
    };
    SystemConfig same = plain;
    same.restWatts = kRestWatts;
    EXPECT_EQ(resume(same, "memscale", plain_path), "");
    same = custom;
    same.restWatts = kRestWatts;
    EXPECT_EQ(resume(same, "memscale", custom_path), "");

    const std::vector<FieldMismatch> rows = fieldMismatches();
    std::vector<std::string> msgs;
    {
        QuietStderr quiet;
        for (const FieldMismatch &row : rows) {
            const bool app =
                std::string(row.field).rfind("app.", 0) == 0;
            SystemConfig cfg = app ? custom : plain;
            cfg.restWatts = kRestWatts;
            std::string policy = "memscale";
            row.mutate(cfg, policy);
            msgs.push_back(
                resume(cfg, policy, app ? custom_path : plain_path));
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_NE(msgs[i].find(std::string("meta resume: snapshot ") +
                               rows[i].field + " "),
                  std::string::npos)
            << rows[i].field << ": " << msgs[i];
    }
    std::remove(plain_path.c_str());
    std::remove(custom_path.c_str());
}

TEST(ResumeEquivalence, ResumeRejectsCorruptSnapshot)
{
    const std::string path = scratch("corrupt.snap");
    SystemConfig cfg = snapConfig("MID1");
    ASSERT_TRUE(cutRun(cfg, "memscale", msToTick(0.1), path));

    // Flip one byte in the middle of the file: CRC must refuse it.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);

    SystemConfig rcfg = snapConfig("MID1");
    rcfg.resumePath = path;
    EXPECT_THROW(runPolicy(rcfg, "memscale", kRestWatts), FatalError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Churn: checkpoints at deliberately awkward instants.
// ---------------------------------------------------------------------

namespace
{

/**
 * Cut a protocol-checked run at `cut`, return the snapshot's meta
 * block, and leave the snapshot at `path` for the caller to resume.
 */
SnapshotMeta
cutCheckedRun(const SystemConfig &base, const std::string &policy,
              Tick cut, const std::string &path)
{
    SystemConfig cfg = base;
    cfg.protocolCheck = true;
    EXPECT_TRUE(cutRun(cfg, policy, cut, path));
    return readSnapshotMeta(path);
}

/**
 * Resume `path` under the strict checker (first violation is fatal)
 * and require the result to be bit-identical to the uninterrupted
 * protocol-checked run.
 */
void
expectCleanResume(const SystemConfig &base, const std::string &policy,
                  const std::string &path)
{
    SystemConfig rcfg = base;
    rcfg.protocolCheck = true;
    rcfg.strictCheck = true;
    rcfg.resumePath = path;
    RunResult resumed = runPolicy(rcfg, policy, kRestWatts);
    EXPECT_EQ(resumed.protocolViolations, 0u);

    SystemConfig fcfg = base;
    fcfg.protocolCheck = true;
    RunResult full = runPolicy(fcfg, policy, kRestWatts);
    EXPECT_EQ(hashRunResult(resumed), hashRunResult(full));
    EXPECT_EQ(resumed.commandsChecked, full.commandsChecked);
}

} // namespace

TEST(SnapshotChurn, MidFrequencyRelock)
{
    // MemScale's first frequency decision lands exactly at
    // profile-end (10 us); the DLL relock stall lasts ~0.67 us, so a
    // cut 100 ns in catches all four channels mid-transition with
    // their ranks forced into powerdown.
    const std::string path = scratch("relock.snap");
    SnapshotMeta m = cutCheckedRun(snapConfig("MID3"), "memscale",
                                   usToTick(10.0) + 100'000, path);
    EXPECT_GT(m.pendingRelocks, 0u);
    EXPECT_GT(m.ranksPoweredDown, 0u);
    expectCleanResume(snapConfig("MID3"), "memscale", path);
    std::remove(path.c_str());
}

TEST(SnapshotChurn, MidRefresh)
{
    // At 0.15 ms several staggered auto-refreshes are in flight
    // (tRFC windows open, EvChanRefreshDone pending) alongside live
    // requests.
    const std::string path = scratch("refresh.snap");
    SnapshotMeta m = cutCheckedRun(snapConfig("MID3"), "memscale",
                                   msToTick(0.15), path);
    EXPECT_GT(m.pendingRefreshes, 0u);
    EXPECT_GT(m.inFlightRequests, 0u);
    expectCleanResume(snapConfig("MID3"), "memscale", path);
    std::remove(path.c_str());
}

TEST(SnapshotChurn, RanksPoweredDown)
{
    // An ILP mix under the fast-exit powerdown policy idles almost
    // every rank; the snapshot must capture and re-establish the
    // powerdown states and their exit latencies.
    const std::string path = scratch("powerdown.snap");
    SnapshotMeta m = cutCheckedRun(snapConfig("ILP1"), "fastpd",
                                   msToTick(0.07), path);
    EXPECT_GT(m.ranksPoweredDown, 0u);
    expectCleanResume(snapConfig("ILP1"), "fastpd", path);
    std::remove(path.c_str());
}

TEST(SnapshotChurn, DeferredClosePending)
{
    // Without powerdown, a trailing precharge is only recorded in its
    // rank and applied on the rank's next sync.  A busy MID3 run under
    // MemScale has some pending at almost any tick; the cut must carry
    // them and the resumed run must apply them on the same ticks.
    const std::string path = scratch("deferred.snap");
    SnapshotMeta m = cutCheckedRun(snapConfig("MID3"), "memscale",
                                   msToTick(0.13) + 7'777, path);
    EXPECT_GT(m.pendingRankCloses, 0u);
    EXPECT_GT(m.inFlightRequests, 0u);
    expectCleanResume(snapConfig("MID3"), "memscale", path);
    std::remove(path.c_str());
}

TEST(SnapshotChurn, OlderVersionsRejected)
{
    // Version 1 kept rank open/close transitions as pending events;
    // version 2 had a hand-picked fingerprint with a retired
    // kernel-mode byte and a serving-section fingerprint; version 3
    // kept idle-ladder demotion timers as pending events and stored no
    // demotion plans; version 4 stored each plan's next timer
    // sequence; version 5 stored request sequence numbers, other state
    // nothing read, and the serving knobs that are now constants.  None
    // may resume.
    const std::string path = scratch("old_version.snap");
    for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u}) {
        cutCheckedRun(snapConfig("MID3"), "memscale", msToTick(0.13),
                      path);
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 8, SEEK_SET);   // version follows the 8-byte magic
        std::fwrite(&version, sizeof(version), 1, f);
        std::fclose(f);

        SystemConfig rcfg = snapConfig("MID3");
        rcfg.resumePath = path;
        const std::string msg = fatalMessage(
            [&] { runPolicy(rcfg, "memscale", kRestWatts); });
        EXPECT_NE(msg.find("unsupported version " +
                           std::to_string(version)),
                  std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
}

TEST(SnapshotChurn, SelfRefreshPowerdown)
{
    // Same, for the self-refresh idle state (srpd) whose exit path
    // interacts with the refresh schedule.
    const std::string path = scratch("srpd.snap");
    cutCheckedRun(snapConfig("MID3"), "srpd", msToTick(0.15), path);
    expectCleanResume(snapConfig("MID3"), "srpd", path);
    std::remove(path.c_str());
}

TEST(SnapshotChurn, InsideProfileWindow)
{
    // Cut inside the second epoch's profiling window (profile runs
    // for the first 10 us of each 100 us epoch).  The profiling
    // counter deltas the policy will read at profile-end must restore
    // exactly, or the first post-resume frequency decision — and
    // everything after it — diverges.
    SystemConfig cfg = snapConfig("MID3");
    cfg.observe = true;
    RunResult full = runPolicy(cfg, "memscale", kRestWatts);
    const Tick cut = msToTick(0.1) + usToTick(5.0);
    ASSERT_LT(cut, full.runtime);
    const std::string prefix = scratch("profile");
    RunResult sharded =
        runPolicySharded(cfg, "memscale", kRestWatts, {cut}, prefix);
    removeShards(prefix, 1);
    EXPECT_EQ(hashRunResult(sharded), hashRunResult(full));
    ASSERT_TRUE(full.obs && sharded.obs);
    EXPECT_EQ(full.obs->toCsv(), sharded.obs->toCsv());
}

TEST(SnapshotChurn, MetaMatchesRun)
{
    const std::string path = scratch("meta.snap");
    ASSERT_TRUE(cutRun(snapConfig("MEM4"), "memscale", msToTick(0.12),
                       path));

    SnapshotMeta m = readSnapshotMeta(path);
    EXPECT_EQ(m.mixName, "MEM4");
    EXPECT_EQ(m.policyName, "memscale");
    EXPECT_EQ(m.now, msToTick(0.12));
    EXPECT_EQ(m.doneCores, 0u);
    EXPECT_GT(m.pendingEvents, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Idle ladder: deep-state cuts, mid-migration cuts, fingerprinting.
// ---------------------------------------------------------------------

TEST(SnapshotChurn, RanksInEachDeepIdleState)
{
    // Cuts taken while ranks sit in each deep rung.  The static
    // policies hold every idle rank in one target state (slow-clock
    // self-refresh, deep powerdown); the adaptive ladder catches
    // ranks mid-demotion with their walk-down timers pending.  An
    // ILP mix idles almost everything, so the cut is guaranteed to
    // find residents.
    for (const char *policy : {"srslowpd", "deeppd", "ladder"}) {
        const std::string path =
            scratch(std::string("deep-") + policy + ".snap");
        SnapshotMeta m = cutCheckedRun(snapConfig("ILP1"), policy,
                                       msToTick(0.07), path);
        EXPECT_GT(m.ranksPoweredDown, 0u) << policy;
        expectCleanResume(snapConfig("ILP1"), policy, path);
        std::remove(path.c_str());
    }
}

TEST(SnapshotChurn, MidMigration)
{
    // Consolidation on: the snapshot must capture the hot-frame
    // counter cache, the remap permutation, the round-robin cursors,
    // and the pending EvMemMigrate pass — and the resumed run must
    // keep migrating bit-identically.
    SystemConfig base = snapConfig("MEM4");
    base.mem.ladder.migrate = true;
    base.mem.ladder.hotThreshold = 2;
    base.mem.ladder.migrateInterval = usToTick(20.0);

    SystemConfig fcfg = base;
    fcfg.protocolCheck = true;
    RunResult full = runPolicy(fcfg, "memscale-ladder", kRestWatts);
    // The scenario actually migrates; otherwise this test is hollow.
    ASSERT_GT(full.counters.migrations, 0u);

    const std::string path = scratch("migration.snap");
    cutCheckedRun(base, "memscale-ladder", msToTick(0.15), path);

    SystemConfig rcfg = base;
    rcfg.protocolCheck = true;
    rcfg.strictCheck = true;
    rcfg.resumePath = path;
    RunResult resumed =
        runPolicy(rcfg, "memscale-ladder", kRestWatts);
    EXPECT_EQ(resumed.protocolViolations, 0u);
    EXPECT_EQ(hashRunResult(resumed), hashRunResult(full));
    EXPECT_EQ(resumed.counters.migrations, full.counters.migrations);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// RestoreChecks: bytes a restore cannot trust.  A section must be
// consumed exactly, and every index, count and enum byte read from it
// is checked before use; each rejection is a FatalError naming the
// section.  The damaged sections are CRC-valid, so only these checks
// stand between them and a silently wrong (or crashing) resume.
// ---------------------------------------------------------------------

namespace
{

/** Every section a System or fleet snapshot may carry. */
const char *const kSectionNames[] = {
    "meta",   "sim",      "mc",     "cores",   "serving", "power",
    "epoch",  "recorder", "policy", "checker", "cluster",
};

/** Section `name` of `in`, as raw payload bytes. */
std::vector<std::uint8_t>
sectionBytes(const SnapshotReader &in, const std::string &name)
{
    SectionReader r = in.section(name);
    std::vector<std::uint8_t> bytes;
    while (r.remaining() > 0)
        bytes.push_back(r.u8());
    return bytes;
}

/**
 * Rewrite snapshot `path` with section `name`'s payload passed through
 * `edit`.  SnapshotWriter recomputes every CRC, so only the edit
 * itself can make the file unrestorable.
 */
void
rewrap(const std::string &path, const std::string &name,
       const std::function<void(std::vector<std::uint8_t> &)> &edit)
{
    SnapshotReader in(path);
    SnapshotWriter out;
    for (const char *n : kSectionNames) {
        if (!in.has(n))
            continue;
        std::vector<std::uint8_t> bytes = sectionBytes(in, n);
        if (name == n)
            edit(bytes);
        out.section(n).bytes(bytes.data(), bytes.size());
    }
    out.writeFile(path);
}

/** The FatalError message of resuming `cfg` from `path`, or "". */
std::string
resumeMessage(SystemConfig cfg, const std::string &policy,
              const std::string &path)
{
    cfg.restWatts = kRestWatts;
    cfg.resumePath = path;
    return fatalMessage([&] {
        auto p = makePolicy(policy);
        System sys(cfg, *p);
    });
}

bool
contains(const std::string &msg, const std::string &what)
{
    return msg.find(what) != std::string::npos;
}

/** A "sim" section: the clock at `now` and one pending event. */
std::vector<std::uint8_t>
simSection(Tick now, Tick when, std::uint8_t cls,
           std::uint32_t kind = EvCoreIssueMiss)
{
    SectionWriter w;
    w.u64(now);
    w.u32(1);
    w.u64(when);
    w.u8(cls);
    w.u32(kind);
    w.u32(0);
    w.u64(0);
    w.u64(0);
    return w.data();
}

/**
 * Restore a one-channel controller from an "mc" section built by
 * `write`; returns the FatalError message, or "" if none was thrown.
 */
std::string
restoreMc(const std::function<void(SectionIO &, const MemConfig &)> &write)
{
    MemConfig mem;
    mem.numChannels = 1;
    SnapshotWriter w;
    SectionIO out(w.section("mc"));
    write(out, mem);
    SnapshotReader r(w.serialize());
    SectionReader in = r.section("mc");
    SectionIO rd(in);
    EventQueue eq;
    MemoryController mc(eq, mem);
    return fatalMessage([&] { mc.transfer(rd, {}); });
}

/** A request pool of `cap` slots whose free list is `free`. */
void
writePool(SectionIO &io, std::uint64_t cap,
          std::vector<std::size_t> free)
{
    io(cap);
    io.list<std::uint64_t>(free);
}

/**
 * Controller header, then one channel up to its first bank queue, with
 * rank 0 in `state` holding the demotion plan `plan` (rung ticks).
 */
void
writeChannelPrefix(SectionIO &io, const MemConfig &mem,
                   RankIdleState state = RankIdleState::Up,
                   std::vector<Tick> plan = {})
{
    std::uint32_t nchan = 1;
    std::uint32_t freq = nominalFreqIndex;
    std::uint64_t zero = 0;
    std::uint32_t decoupled = 0;
    io(nchan);
    io(freq);
    io(zero);   // frequency transitions
    io(decoupled);
    McCounters counters;
    counters.transfer(io);
    std::uint64_t nranks = mem.ranksPerChannel();
    io(nranks);
    for (std::uint64_t i = 0; i < nranks; ++i) {
        Rank rk;
        std::vector<Tick> rungs;
        if (i == 0) {
            rk.setIdleState(0, state);
            rungs = plan;
        }
        rk.transfer(io);
        io.list<std::uint8_t>(rungs);
    }
    std::uint64_t nbanks = nranks * mem.banksPerRank;
    io(nbanks);
}

} // namespace

TEST(RestoreChecks, LeftoverBytesInMcAreFatal)
{
    const std::string path = scratch("leftover_mc.snap");
    const SystemConfig cfg = snapConfig("MID3");
    ASSERT_TRUE(cutRun(cfg, "memscale", msToTick(0.1), path));

    rewrap(path, "mc", [](std::vector<std::uint8_t> &) {});
    EXPECT_EQ(resumeMessage(cfg, "memscale", path), "");

    rewrap(path, "mc",
           [](std::vector<std::uint8_t> &b) { b.push_back(0); });
    const std::string msg = resumeMessage(cfg, "memscale", path);
    EXPECT_TRUE(contains(msg, "section mc")) << msg;
    EXPECT_TRUE(contains(msg, "1 bytes left unread")) << msg;
    std::remove(path.c_str());
}

TEST(RestoreChecks, LeftoverBytesInClusterAreFatal)
{
    ClusterConfig cfg;
    cfg.numServers = 2;
    cfg.server = servingConfig(ArrivalKind::Poisson);
    cfg.server.modelCpuPower = true;
    cfg.server.restWatts = kRestWatts;
    cfg.policy = "fastcap";
    cfg.capW = 320.0;
    cfg.coordEpoch = msToTick(0.1);

    const std::string path = scratch("leftover_fleet");
    ClusterHarness cut(cfg);
    cut.advance(1);
    cut.checkpoint(path);

    ClusterConfig resume = cfg;
    resume.resumePath = path;
    rewrap(path, "cluster", [](std::vector<std::uint8_t> &) {});
    EXPECT_EQ(fatalMessage([&] { ClusterHarness(resume).run(); }), "");

    rewrap(path, "cluster",
           [](std::vector<std::uint8_t> &b) { b.push_back(0); });
    const std::string msg =
        fatalMessage([&] { ClusterHarness(resume).run(); });
    EXPECT_TRUE(contains(msg, "section cluster")) << msg;
    EXPECT_TRUE(contains(msg, "unread")) << msg;
    std::remove(path.c_str());
    std::remove((path + ".server0").c_str());
    std::remove((path + ".server1").c_str());
}

TEST(RestoreChecks, EventClassOutOfRangeIsFatal)
{
    const std::string path = scratch("bad_class.snap");
    const SystemConfig cfg = snapConfig("MID3");
    ASSERT_TRUE(cutRun(cfg, "memscale", msToTick(0.1), path));
    rewrap(path, "sim", [](std::vector<std::uint8_t> &b) {
        b = simSection(1000, 2000, 7);
    });
    const std::string msg = resumeMessage(cfg, "memscale", path);
    EXPECT_TRUE(contains(msg, "event class 7 out of range")) << msg;
    EXPECT_TRUE(contains(msg, "section sim")) << msg;
    std::remove(path.c_str());
}

TEST(RestoreChecks, PendingEventBeforeNowIsFatal)
{
    const std::string path = scratch("bad_tick.snap");
    const SystemConfig cfg = snapConfig("MID3");
    ASSERT_TRUE(cutRun(cfg, "memscale", msToTick(0.1), path));
    rewrap(path, "sim", [](std::vector<std::uint8_t> &b) {
        b = simSection(1000, 999, 0);
    });
    const std::string msg = resumeMessage(cfg, "memscale", path);
    EXPECT_TRUE(contains(msg, "precedes")) << msg;
    EXPECT_TRUE(contains(msg, "section sim")) << msg;
    std::remove(path.c_str());
}

TEST(RestoreChecks, UnassignedEventKindIsFatal)
{
    // Kinds 2, 3 and 14 named events the simulator no longer
    // schedules; the numbers stay unassigned, so a pending event
    // carrying any of them is refused as an unknown kind.
    const std::string path = scratch("bad_kind.snap");
    const SystemConfig cfg = snapConfig("MID3");
    for (const std::uint32_t kind : {2u, 3u, 14u}) {
        ASSERT_TRUE(cutRun(cfg, "memscale", msToTick(0.1), path));
        rewrap(path, "sim", [kind](std::vector<std::uint8_t> &b) {
            const Tick now = SectionReader("sim", b.data(), b.size()).u64();
            b = simSection(now, now + 1000, 0, kind);
        });
        const std::string msg = resumeMessage(cfg, "memscale", path);
        EXPECT_TRUE(contains(msg, "unknown event kind " +
                                      std::to_string(kind)))
            << msg;
        EXPECT_TRUE(contains(msg, "section sim")) << msg;
    }
    std::remove(path.c_str());
}

TEST(RestoreChecks, BadPoolLayoutIsFatal)
{
    // Not a whole number of slab chunks.
    std::string msg = restoreMc([](SectionIO &io, const MemConfig &) {
        writePool(io, RequestPool::ChunkSize + 1, {});
    });
    EXPECT_TRUE(contains(msg, "bad request pool layout")) << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;

    // More in-flight requests than the section has bytes for.
    msg = restoreMc([](SectionIO &io, const MemConfig &) {
        writePool(io, RequestPool::ChunkSize << 30, {});
    });
    EXPECT_TRUE(contains(msg, "bad request pool layout")) << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;

    // A free list naming a slot outside the pool (and none in flight).
    msg = restoreMc([](SectionIO &io, const MemConfig &) {
        std::vector<std::size_t> free;
        for (std::size_t i = 1; i <= RequestPool::ChunkSize; ++i)
            free.push_back(i);
        writePool(io, RequestPool::ChunkSize, free);
    });
    EXPECT_TRUE(contains(msg, "free request slot")) << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;
}

TEST(RestoreChecks, FreeListCountPastTheSectionIsFatal)
{
    const std::string msg =
        restoreMc([](SectionIO &io, const MemConfig &) {
            std::uint64_t cap = RequestPool::ChunkSize;
            std::uint64_t nfree = 1ull << 40;
            io(cap);
            io(nfree);
        });
    EXPECT_TRUE(contains(msg, "exceeds")) << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;
}

TEST(RestoreChecks, RowOutcomeOutOfRangeIsFatal)
{
    const std::string msg =
        restoreMc([](SectionIO &io, const MemConfig &) {
            // Slot 0 is the one in-flight request.
            std::vector<std::size_t> free;
            for (std::size_t i = 1; i < RequestPool::ChunkSize; ++i)
                free.push_back(i);
            writePool(io, RequestPool::ChunkSize, free);
            MemRequest q;
            io(q.addr);
            io(q.isWrite);
            io(q.core);
            io(q.arrival);
            io(q.loc.channel);
            io(q.loc.rank);
            io(q.loc.bank);
            io(q.loc.row);
            io(q.loc.column);
            io(q.serviceStart);
            io(q.dataReady);
            io(q.burstStart);
            io(q.burstEnd);
            std::uint8_t outcome = 7;
            io(outcome);
        });
    EXPECT_TRUE(contains(msg, "request row outcome 7 out of range"))
        << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;
}

TEST(RestoreChecks, QueuedRequestOutsideThePoolIsFatal)
{
    const std::string msg =
        restoreMc([](SectionIO &io, const MemConfig &mem) {
            writePool(io, 0, {});
            writeChannelPrefix(io, mem);
            Bank bank;
            bank.transfer(io);
            std::vector<std::size_t> queue = {5};
            io.list<std::uint64_t>(queue);
        });
    EXPECT_TRUE(contains(msg, "queued request 5")) << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;
}

TEST(RestoreChecks, PowerdownModeOutOfRangeIsFatal)
{
    const std::string msg =
        restoreMc([](SectionIO &io, const MemConfig &mem) {
            writePool(io, 0, {});
            writeChannelPrefix(io, mem);
            std::vector<std::size_t> empty;
            for (std::uint32_t b = 0;
                 b < mem.ranksPerChannel() * mem.banksPerRank; ++b) {
                Bank bank;
                bank.transfer(io);
                io.list<std::uint64_t>(empty);
            }
            Tick zero = 0;
            for (std::uint32_t r = 0; r < mem.ranksPerChannel(); ++r)
                io(zero);   // powerdown exit ready-at
            io.list<std::uint64_t>(empty);   // write queue
            bool drain = false;
            io(drain);
            for (int i = 0; i < 4; ++i)
                io(zero);   // bus/suspend time, pending counts
            std::uint8_t mode = 9;
            io(mode);
        });
    EXPECT_TRUE(contains(msg, "powerdown mode 9 out of range")) << msg;
    EXPECT_TRUE(contains(msg, "section mc")) << msg;
}

TEST(RestoreChecks, BadDemotionPlanIsFatal)
{
    // A restored idle-ladder plan must be one the channel could have
    // recorded: on a powered-down rank, one rung per state below it,
    // ticks ascending and after the snapshot's.  The fresh queue
    // restores at tick 0.
    struct Case
    {
        RankIdleState state;
        std::vector<Tick> plan;
        const char *message;
    };
    const Case cases[] = {
        {RankIdleState::Up, {100},
         "rank 0 has a demotion plan but is not powered down"},
        {RankIdleState::DeepPd, {100},
         "rank 0 in deep-pd plans 1 rungs, but only 0 lie below it"},
        {RankIdleState::FastPd, {100, 300, 200},
         "rank 0 demotion plan ticks out of order (rung 2 at tick 200"},
        {RankIdleState::FastPd, {0, 100},
         "rank 0 demotion rung at tick 0 is not after the snapshot's"},
    };
    for (const Case &c : cases) {
        const std::string msg =
            restoreMc([&c](SectionIO &io, const MemConfig &mem) {
                writePool(io, 0, {});
                writeChannelPrefix(io, mem, c.state, c.plan);
            });
        EXPECT_TRUE(contains(msg, c.message)) << msg;
        EXPECT_TRUE(contains(msg, "section mc")) << msg;
    }
}

TEST(SnapshotChurn, BrokenRefreshChainIsRefused)
{
    // Every rank of a running refresh engine keeps exactly one
    // refresh tick pending.  Dropping one would resume a rank that is
    // never refreshed again; duplicating one would refresh it twice
    // per tREFI.  Both are refused, naming the channel and the rank.
    const std::string path = scratch("refresh_chain.snap");
    const SystemConfig cfg = snapConfig("MID3");
    // One "sim" event record: when, class, kind, owner, a, b.
    constexpr std::size_t kHeader = 8 + 4;
    constexpr std::size_t kRecord = 8 + 1 + 4 + 4 + 8 + 8;
    for (const bool duplicate : {false, true}) {
        ASSERT_TRUE(cutRun(cfg, "memscale", msToTick(0.15), path));
        std::uint32_t chan = 0;
        std::uint64_t rank = 0;
        rewrap(path, "sim", [&](std::vector<std::uint8_t> &b) {
            std::uint32_t n = 0;
            std::memcpy(&n, b.data() + 8, 4);
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::size_t at = kHeader + i * kRecord;
                std::uint32_t kind = 0;
                std::memcpy(&kind, b.data() + at + 9, 4);
                if (kind != EvChanRefreshTick)
                    continue;
                std::memcpy(&chan, b.data() + at + 13, 4);
                std::memcpy(&rank, b.data() + at + 17, 8);
                const std::vector<std::uint8_t> rec(
                    b.begin() + at, b.begin() + at + kRecord);
                if (duplicate)
                    b.insert(b.begin() + at, rec.begin(), rec.end());
                else
                    b.erase(b.begin() + at, b.begin() + at + kRecord);
                n = duplicate ? n + 1 : n - 1;
                std::memcpy(b.data() + 8, &n, 4);
                return;
            }
            FAIL() << "no refresh tick pending at the cut";
        });
        const std::string msg = resumeMessage(cfg, "memscale", path);
        const std::string want =
            "channel " + std::to_string(chan) + " rank " +
            std::to_string(rank) + " has " + (duplicate ? "2" : "0") +
            " pending refresh ticks, but its refresh engine is on";
        EXPECT_TRUE(contains(msg, want)) << msg;
        EXPECT_TRUE(contains(msg, "snapshot sections mc, sim")) << msg;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// SnapshotFuzz: seeded byte mutations of every section of three real
// cuts.  Each section is truncated, bit-flipped and extended.  With its
// CRC left stale, every mutation must be refused by the container,
// naming the section.  Re-wrapped with a valid CRC (rewrap()), every
// mutation must be refused naming the section, or resume and run to
// its end; the CI sanitizer job runs this suite under ASan/UBSan.
// ---------------------------------------------------------------------

namespace
{

/** A cut to mutate. */
struct FuzzCase
{
    SystemConfig cfg;
    std::string policy;
    Tick cut = 0;
};

/** The first three cuts test_golden's SnapshotBytesMatch pins. */
std::vector<FuzzCase>
fuzzCases()
{
    SystemConfig ladder = snapConfig("MID1");
    ladder.mem.ladder.migrate = true;
    ladder.protocolCheck = true;
    ladder.observe = true;
    std::vector<FuzzCase> cases = {
        {snapConfig("MID3"), "memscale", msToTick(0.15)},
        {ladder, "memscale-ladder", msToTick(0.15)},
        {servingConfig(ArrivalKind::Poisson), "slo", msToTick(0.25)},
    };
    // A flipped counter can keep a core from ever finishing; a short
    // time limit keeps such a resume quick.  The uninterrupted runs
    // end well inside it.
    for (FuzzCase &c : cases)
        c.cfg.maxSimTime = msToTick(1.0);
    return cases;
}

enum class Mutation
{
    Truncate,
    Flip,
    Extend,
};

/** Mutate `b` in place, drawing every position from `rng`. */
void
mutateBytes(std::vector<std::uint8_t> &b, Mutation m, Rng &rng)
{
    switch (m) {
      case Mutation::Truncate:
        b.resize(rng.below(b.size()));
        break;
      case Mutation::Flip:
        b[rng.below(b.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case Mutation::Extend:
        for (std::uint64_t n = 1 + rng.below(8); n > 0; --n)
            b.push_back(static_cast<std::uint8_t>(rng.below(256)));
        break;
    }
}

/**
 * Write `in` to `path` with section `name`'s payload replaced by
 * `payload` under the CRC of the original payload (valid only when
 * the two are equal).
 */
void
writeStale(const std::string &path, const SnapshotReader &in,
           const std::string &name,
           const std::vector<std::uint8_t> &payload)
{
    SectionWriter out;
    std::uint32_t count = 0;
    for (const char *n : kSectionNames)
        count += in.has(n) ? 1 : 0;
    out.u64(snapshotMagic);
    out.u32(snapshotVersion);
    out.u32(count);
    for (const char *n : kSectionNames) {
        if (!in.has(n))
            continue;
        const std::vector<std::uint8_t> orig = sectionBytes(in, n);
        const std::vector<std::uint8_t> &bytes =
            name == n ? payload : orig;
        out.str(n);
        out.u64(bytes.size());
        out.bytes(bytes.data(), bytes.size());
        out.u32(crc32(orig.data(), orig.size()));
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(out.data().data(), 1, out.data().size(), f);
    std::fclose(f);
}

/**
 * Whether a FatalError message names snapshot section `name`, alone
 * or in a "(snapshot sections a, b)" list of sections that disagree.
 */
bool
namesSection(const std::string &msg, const std::string &name)
{
    if (contains(msg, "section '" + name + "'") ||
        contains(msg, "section " + name + ")") ||
        msg.rfind(name + " resume:", 0) == 0)
        return true;
    const std::string head = "(snapshot sections ";
    const std::string::size_type at = msg.find(head);
    if (at == std::string::npos)
        return false;
    const std::string::size_type from = at + head.size();
    const std::string list = msg.substr(from, msg.find(')', from) - from);
    return contains(", " + list + ",", ", " + name + ",");
}

/** One mutation of one section, and what resuming it did. */
struct FuzzOutcome
{
    std::string label;
    std::string section;
    std::string staleMsg;   ///< resume with the CRC left stale
    std::string validMsg;   ///< resume and run, re-wrapped
};

} // namespace

TEST(SnapshotFuzz, EveryMutationIsRefusedOrResumes)
{
    // Per section: one extension, and for a non-empty payload
    // kTruncations truncations and kFlips single-bit flips.
    constexpr int kTruncations = 3;
    constexpr int kFlips = 24;
    const std::vector<FuzzCase> cases = fuzzCases();

    struct Task
    {
        std::size_t fuzzCase;
        std::string section;
        Mutation mutation;
    };
    std::vector<std::string> cuts;
    std::vector<Task> tasks;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        cuts.push_back(scratch("fuzz_cut" + std::to_string(c)));
        ASSERT_TRUE(cutRun(cases[c].cfg, cases[c].policy, cases[c].cut,
                           cuts[c]));
        SnapshotReader in(cuts[c]);
        for (const char *n : kSectionNames) {
            if (!in.has(n))
                continue;
            tasks.push_back({c, n, Mutation::Extend});
            if (sectionBytes(in, n).empty())
                continue;
            for (int k = 0; k < kTruncations; ++k)
                tasks.push_back({c, n, Mutation::Truncate});
            for (int k = 0; k < kFlips; ++k)
                tasks.push_back({c, n, Mutation::Flip});
        }
    }

    SweepEngine eng;
    std::vector<FuzzOutcome> outs;
    {
        QuietStderr quiet;
        outs = eng.map<FuzzOutcome>(
            tasks.size(), [&](std::size_t t) {
                const Task &task = tasks[t];
                const FuzzCase &fc = cases[task.fuzzCase];
                const SnapshotReader in(cuts[task.fuzzCase]);
                const std::vector<std::uint8_t> orig =
                    sectionBytes(in, task.section);
                std::vector<std::uint8_t> payload = orig;
                Rng rng(deriveSeed(0xF022ull, t));
                mutateBytes(payload, task.mutation, rng);

                FuzzOutcome out;
                out.label = fc.cfg.mixName + "/" + fc.policy + " " +
                            task.section + " mutation #" + std::to_string(t);
                out.section = task.section;
                const std::string path =
                    scratch("fuzz_" + std::to_string(t));
                writeStale(path, in, task.section, orig);
                rewrap(path, task.section,
                       [&](std::vector<std::uint8_t> &b) { b = payload; });
                SystemConfig cfg = fc.cfg;
                cfg.restWatts = kRestWatts;
                cfg.resumePath = path;
                out.validMsg = fatalMessage([&] {
                    auto p = makePolicy(fc.policy);
                    System sys(cfg, *p);
                    sys.run();
                });
                writeStale(path, in, task.section, payload);
                out.staleMsg = resumeMessage(fc.cfg, fc.policy, path);
                std::remove(path.c_str());
                return out;
            });
    }
    for (const std::string &cut : cuts)
        std::remove(cut.c_str());

    for (const FuzzOutcome &o : outs) {
        EXPECT_TRUE(namesSection(o.staleMsg, o.section))
            << o.label << ": " << o.staleMsg;
        EXPECT_TRUE(o.validMsg.empty() ||
                    namesSection(o.validMsg, o.section))
            << o.label << ": " << o.validMsg;
    }
}

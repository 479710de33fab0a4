/**
 * @file
 * Observability-layer tests: StatRegistry registration semantics,
 * EpochRecorder schema/columns/exports, registry wiring against a
 * hand-computed memory-controller scenario, end-to-end epoch capture
 * on a tiny 2-core run, and Chrome-trace well-formedness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "obs/epoch_recorder.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_writer.hh"
#include "sim/event_queue.hh"

using namespace memscale;

// ---------------------------------------------------------------------------
// StatRegistry
// ---------------------------------------------------------------------------

TEST(StatRegistry, RegistersAndReadsAllKinds)
{
    StatRegistry reg;
    std::uint64_t ctr = 7;
    double gauge = 2.5;
    EXPECT_TRUE(reg.addCounter("a.ctr", &ctr));
    EXPECT_TRUE(reg.addGauge("a.gauge", &gauge));
    EXPECT_TRUE(reg.addGauge("a.fn", [] { return 42.0; }));

    EXPECT_EQ(reg.size(), 3u);
    EXPECT_TRUE(reg.has("a.ctr"));
    EXPECT_FALSE(reg.has("a.nope"));
    EXPECT_DOUBLE_EQ(reg.read("a.ctr"), 7.0);
    EXPECT_DOUBLE_EQ(reg.read("a.gauge"), 2.5);
    EXPECT_DOUBLE_EQ(reg.read("a.fn"), 42.0);

    // The registry is a view: mutations show up on the next read.
    ctr = 9;
    gauge = -1.0;
    EXPECT_DOUBLE_EQ(reg.read("a.ctr"), 9.0);
    EXPECT_DOUBLE_EQ(reg.read("a.gauge"), -1.0);
}

TEST(StatRegistry, NameCollisionKeepsFirstRegistration)
{
    StatRegistry reg;
    std::uint64_t first = 1, second = 2;
    EXPECT_TRUE(reg.addCounter("x", &first));
    EXPECT_FALSE(reg.addCounter("x", &second));
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.read("x"), 1.0);

    // Collisions across kinds are rejected the same way.
    double g = 5.0;
    EXPECT_FALSE(reg.addGauge("x", &g));
    EXPECT_FALSE(reg.addGauge("x", [] { return 9.0; }));
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.read("x"), 1.0);
}

TEST(StatRegistry, EmptyNameRejected)
{
    StatRegistry reg;
    std::uint64_t v = 0;
    EXPECT_FALSE(reg.addCounter("", &v));
    EXPECT_EQ(reg.size(), 0u);
}

TEST(StatRegistry, AccumulatorExpandsToDerivedColumns)
{
    StatRegistry reg;
    Accumulator acc;
    acc.add(1.0);
    acc.add(3.0);
    EXPECT_TRUE(reg.addAccumulator("lat", &acc));
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_DOUBLE_EQ(reg.read("lat.count"), 2.0);
    EXPECT_DOUBLE_EQ(reg.read("lat.mean"), 2.0);
    EXPECT_DOUBLE_EQ(reg.read("lat.min"), 1.0);
    EXPECT_DOUBLE_EQ(reg.read("lat.max"), 3.0);
    // Live view: another sample shifts every derived column.
    acc.add(8.0);
    EXPECT_DOUBLE_EQ(reg.read("lat.count"), 3.0);
    EXPECT_DOUBLE_EQ(reg.read("lat.max"), 8.0);
}

TEST(StatRegistry, AccumulatorCollisionRejectedWholesale)
{
    StatRegistry reg;
    double g = 0.0;
    EXPECT_TRUE(reg.addGauge("lat.mean", &g));
    Accumulator acc;
    EXPECT_FALSE(reg.addAccumulator("lat", &acc));
    // None of the derived columns may appear on partial failure.
    EXPECT_FALSE(reg.has("lat.count"));
    EXPECT_FALSE(reg.has("lat.min"));
    EXPECT_FALSE(reg.has("lat.max"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, HistogramExpandsToDerivedColumns)
{
    StatRegistry reg;
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_TRUE(reg.addHistogram("cpi", &h));
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_DOUBLE_EQ(reg.read("cpi.count"), 10.0);
    EXPECT_DOUBLE_EQ(reg.read("cpi.p50"), h.percentile(0.50));
    EXPECT_DOUBLE_EQ(reg.read("cpi.p95"), h.percentile(0.95));
    EXPECT_DOUBLE_EQ(reg.read("cpi.p99"), h.percentile(0.99));

    Histogram other(0.0, 1.0, 2);
    EXPECT_FALSE(reg.addHistogram("cpi", &other));
    EXPECT_EQ(reg.size(), 4u);
}

TEST(StatRegistry, PrefixQueryMatchesDotBoundaries)
{
    StatRegistry reg;
    std::uint64_t v = 0;
    reg.addCounter("mc0.chan1.rowHits", &v);
    reg.addCounter("mc0.chan1.reads", &v);
    reg.addCounter("mc0.chan10.reads", &v);   // not a chan1 child
    reg.addCounter("mc0.chan1", &v);          // the node itself

    std::vector<std::string> got = reg.namesWithPrefix("mc0.chan1");
    std::vector<std::string> want = {"mc0.chan1.rowHits",
                                     "mc0.chan1.reads", "mc0.chan1"};
    EXPECT_EQ(got, want);
    EXPECT_EQ(reg.namesWithPrefix("mc0").size(), 4u);
    EXPECT_TRUE(reg.namesWithPrefix("bogus").empty());
}

TEST(StatRegistry, UnknownReadIsFatal)
{
    StatRegistry reg;
    EXPECT_THROW(reg.read("missing"), FatalError);
}

TEST(StatRegistry, SnapshotFollowsRegistrationOrder)
{
    StatRegistry reg;
    std::uint64_t a = 1, b = 2;
    double c = 3.0;
    reg.addCounter("b.second", &b);
    reg.addCounter("a.first", &a);
    reg.addGauge("c.third", &c);

    std::vector<std::string> want = {"b.second", "a.first", "c.third"};
    EXPECT_EQ(reg.names(), want);
    std::vector<double> snap;
    reg.snapshot(snap);
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_DOUBLE_EQ(snap[0], 2.0);
    EXPECT_DOUBLE_EQ(snap[1], 1.0);
    EXPECT_DOUBLE_EQ(snap[2], 3.0);
}

// ---------------------------------------------------------------------------
// EpochRecorder
// ---------------------------------------------------------------------------

namespace
{

EpochRecord
sampleAt(double start_ms, double end_ms, std::uint32_t mhz,
         std::vector<double> cpi)
{
    EpochRecord s;
    s.start = msToTick(start_ms);
    s.end = msToTick(end_ms);
    s.busMHz = mhz;
    s.cpuGHz = 4.0;
    s.channelUtil = 0.5;
    s.coreCpi = std::move(cpi);
    return s;
}

} // namespace

TEST(EpochRecorder, SchemaAndValues)
{
    EpochRecorder rec;
    rec.record(sampleAt(0.0, 0.1, 800, {1.0, 3.0}));
    rec.record(sampleAt(0.1, 0.2, 400, {2.0, 4.0}));

    // 12 fixed columns + one CPI column per core.
    EXPECT_EQ(rec.columns(), 14u);
    EXPECT_EQ(rec.epochs(), 2u);
    EXPECT_EQ(rec.columnNames()[0], "epoch");
    EXPECT_NE(rec.columnIndex("core1.cpi"), EpochRecorder::npos);
    EXPECT_EQ(rec.columnIndex("nope"), EpochRecorder::npos);

    std::vector<double> mhz = rec.column("bus_mhz");
    ASSERT_EQ(mhz.size(), 2u);
    EXPECT_DOUBLE_EQ(mhz[0], 800.0);
    EXPECT_DOUBLE_EQ(mhz[1], 400.0);
    EXPECT_DOUBLE_EQ(rec.column("epoch")[1], 1.0);
    EXPECT_DOUBLE_EQ(rec.column("start_ms")[1], 0.1);
    EXPECT_DOUBLE_EQ(rec.column("end_ms")[1], 0.2);
    // actual_cpi is the mean over cores.
    EXPECT_DOUBLE_EQ(rec.column("actual_cpi")[0], 2.0);
    EXPECT_DOUBLE_EQ(rec.column("actual_cpi")[1], 3.0);
    EXPECT_DOUBLE_EQ(rec.column("core0.cpi")[1], 2.0);
    EXPECT_DOUBLE_EQ(rec.column("core1.cpi")[1], 4.0);
    // No decision recorded: SER defaults to 1, the rest to 0.
    EXPECT_DOUBLE_EQ(rec.column("ser")[0], 1.0);
    EXPECT_DOUBLE_EQ(rec.column("pred_cpi")[0], 0.0);

    EXPECT_THROW(rec.column("nope"), FatalError);
    EXPECT_THROW(rec.at(2, 0), FatalError);
    EXPECT_THROW(rec.at(0, 14), FatalError);
}

TEST(EpochRecorder, DecisionTrailIsRecorded)
{
    EpochRecorder rec;
    DecisionTrail d;
    d.valid = true;
    d.predictedCpi = 1.45;
    d.predictedMemJ = 0.01;
    d.predictedSysJ = 0.05;
    d.ser = 0.93;
    d.minSlack = 2e-5;
    rec.record(sampleAt(0.0, 0.1, 600, {1.5}), d);
    EXPECT_DOUBLE_EQ(rec.column("pred_cpi")[0], 1.45);
    EXPECT_DOUBLE_EQ(rec.column("pred_mem_j")[0], 0.01);
    EXPECT_DOUBLE_EQ(rec.column("pred_sys_j")[0], 0.05);
    EXPECT_DOUBLE_EQ(rec.column("ser")[0], 0.93);
    EXPECT_DOUBLE_EQ(rec.column("min_slack")[0], 2e-5);
}

TEST(EpochRecorder, SchemaChangeMidRunIsFatal)
{
    EpochRecorder rec;
    rec.record(sampleAt(0.0, 0.1, 800, {1.0, 2.0}));
    EXPECT_THROW(rec.record(sampleAt(0.1, 0.2, 800, {1.0})),
                 FatalError);
}

TEST(EpochRecorder, SnapshotsRegistryPerEpoch)
{
    StatRegistry reg;
    std::uint64_t ctr = 10;
    reg.addCounter("mc0.reads", &ctr);
    EpochRecorder rec(&reg);
    rec.record(sampleAt(0.0, 0.1, 800, {1.0}));
    ctr = 25;
    rec.record(sampleAt(0.1, 0.2, 800, {1.0}));
    rec.detach();   // exports must not touch the registry

    std::vector<double> reads = rec.column("mc0.reads");
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_DOUBLE_EQ(reads[0], 10.0);
    EXPECT_DOUBLE_EQ(reads[1], 25.0);
}

TEST(EpochRecorder, CsvAndJsonExports)
{
    EpochRecorder rec;
    ObsMeta meta;
    meta.label = "MID3/memscale";
    rec.setMeta(meta);
    rec.record(sampleAt(0.0, 0.1, 800, {1.0}));
    rec.record(sampleAt(0.1, 0.2, 400, {2.0}));

    std::string csv = rec.toCsv();
    // Header + one line per epoch, trailing newline.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_EQ(csv.compare(0, 6, "epoch,"), 0);
    EXPECT_NE(csv.find("core0.cpi"), std::string::npos);
    EXPECT_NE(csv.find("800"), std::string::npos);

    std::string json = rec.toJson();
    EXPECT_NE(json.find("\"label\": \"MID3/memscale\""),
              std::string::npos);
    EXPECT_NE(json.find("\"columns\": [\"epoch\""), std::string::npos);
    EXPECT_NE(json.find("\"rows\": ["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Registry wiring vs. hand-computed controller counters
// ---------------------------------------------------------------------------

namespace
{

/** Minimal controller harness (mirrors test_channel.cc). */
struct McHarness
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc;
    LambdaClients clients;
    StatRegistry reg;

    explicit McHarness(MemConfig c = MemConfig())
        : cfg(c), mc(eq, cfg)
    {
        mc.registerStats(reg, "mc0");
    }

    Addr
    at(std::uint32_t ch, std::uint32_t rank, std::uint32_t bank,
       std::uint64_t row, std::uint64_t col = 0)
    {
        DecodedAddr d;
        d.channel = ch;
        d.rank = rank;
        d.bank = bank;
        d.row = row;
        d.column = col;
        return mc.addressMap().encode(d);
    }

    /** Queue several reads at once, then drain the event queue. */
    void
    readTogether(const std::vector<Addr> &addrs)
    {
        for (Addr a : addrs)
            mc.read(a, 0, clients.add([](Tick) {}));
        eq.runUntil();
    }
};

} // namespace

TEST(ObsWiring, ControllerCountersMatchHandComputedScenario)
{
    McHarness h;

    // Registered hierarchy: controller root, per-channel subtree,
    // per-rank subtree all present.
    EXPECT_TRUE(h.reg.has("mc0.freqTransitions"));
    EXPECT_TRUE(h.reg.has("mc0.busMHz"));
    EXPECT_TRUE(h.reg.has("mc0.chan0.rowHits"));
    EXPECT_TRUE(h.reg.has("mc0.chan0.rank0.actTime"));
    EXPECT_FALSE(
        h.reg.namesWithPrefix("mc0.chan0.rank0").empty());

    // Nominal frequency before any transition.
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.busMHz"), 800.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.busMHz"), 800.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.freqTransitions"), 0.0);

    // Three reads queued together under the default closed-page
    // policy: a closed-bank miss activates row 5, the second access
    // is a row-buffer hit, and the trailing precharge (no more
    // pending row-5 work — the third request targets row 9) makes
    // the last access a closed-bank miss again.
    h.readTogether({h.at(0, 0, 0, 5, 0), h.at(0, 0, 0, 5, 8),
                    h.at(0, 0, 0, 9, 0)});
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.reads"), 3.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.closedMisses"), 2.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.rowHits"), 1.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.openMisses"), 0.0);

    // Other channels stayed idle.
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan1.reads"), 0.0);

    // The registry view agrees with the sampled counter struct.
    McCounters c = h.mc.sampleCounters();
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.rowHits") +
                         h.reg.read("mc0.chan1.rowHits") +
                         h.reg.read("mc0.chan2.rowHits") +
                         h.reg.read("mc0.chan3.rowHits"),
                     static_cast<double>(c.rbhc));

    // A frequency change shows up in both gauges.
    h.mc.setFrequency(2);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.freqTransitions"), 1.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.busMHz"),
                     static_cast<double>(TimingParams::at(2).busMHz));
}

TEST(ObsWiring, OpenPagePolicyCountsOpenMisses)
{
    MemConfig mem;
    mem.pagePolicy = PagePolicy::OpenPage;
    McHarness h(mem);

    // Open-page leaves row 5 latched after the queue drains, so a
    // later access to row 9 of the same bank pays the open-bank miss.
    h.readTogether({h.at(0, 0, 0, 5, 0)});
    h.readTogether({h.at(0, 0, 0, 9, 0)});
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.closedMisses"), 1.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.openMisses"), 1.0);
    EXPECT_DOUBLE_EQ(h.reg.read("mc0.chan0.rowHits"), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end: tiny 2-core observe run
// ---------------------------------------------------------------------------

namespace
{

SystemConfig
tinyObserveConfig()
{
    SystemConfig cfg;
    cfg.mixName = "MID1";
    cfg.numCores = 2;
    cfg.instrBudget = 1'000'000;
    cfg.epochLen = msToTick(0.05);
    cfg.profileLen = usToTick(10.0);
    cfg.seed = 12345;
    cfg.observe = true;
    return cfg;
}

RunResult
tinyObserveRun()
{
    return runPolicy(tinyObserveConfig(), "memscale", 150.0);
}

} // namespace

TEST(ObsEndToEnd, EpochRowsMatchTheTimeline)
{
    RunResult r = tinyObserveRun();
    ASSERT_TRUE(r.obs);
    ASSERT_GT(r.timeline.size(), 0u);
    ASSERT_EQ(r.obs->epochs(), r.timeline.size());

    // Every envelope column must agree exactly with the epoch
    // controller's own history.
    std::vector<double> start = r.obs->column("start_ms");
    std::vector<double> mhz = r.obs->column("bus_mhz");
    std::vector<double> util = r.obs->column("channel_util");
    std::vector<double> cpi0 = r.obs->column("core0.cpi");
    std::vector<double> cpi1 = r.obs->column("core1.cpi");
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
        const EpochRecord &e = r.timeline[i];
        EXPECT_DOUBLE_EQ(start[i], tickToMs(e.start));
        EXPECT_DOUBLE_EQ(mhz[i], static_cast<double>(e.busMHz));
        EXPECT_DOUBLE_EQ(util[i], e.channelUtil);
        ASSERT_EQ(e.coreCpi.size(), 2u);
        EXPECT_DOUBLE_EQ(cpi0[i], e.coreCpi[0]);
        EXPECT_DOUBLE_EQ(cpi1[i], e.coreCpi[1]);
    }

    // Meta describes the run.
    EXPECT_EQ(r.obs->meta().numCores, 2u);
    EXPECT_EQ(r.obs->meta().label, "MID1/memscale");
}

TEST(ObsEndToEnd, RegistryColumnsAreCumulativeAndConsistent)
{
    RunResult r = tinyObserveRun();
    ASSERT_TRUE(r.obs);
    ASSERT_GT(r.obs->epochs(), 1u);

    // Per-channel read counters are cumulative: monotone, and their
    // epoch-over-epoch sum across channels stays below the run total.
    double last_sum = 0.0;
    for (std::size_t i = 0; i < r.obs->epochs(); ++i) {
        double sum = 0.0;
        for (std::uint32_t c = 0; c < r.obs->meta().numChannels; ++c) {
            std::vector<double> reads = r.obs->column(
                "mc0.chan" + std::to_string(c) + ".reads");
            EXPECT_GE(reads[i], i ? reads[i - 1] : 0.0);
            sum += reads[i];
        }
        EXPECT_GE(sum, last_sum);
        last_sum = sum;
    }
    EXPECT_LE(last_sum, static_cast<double>(r.counters.reads));

    // The policy decision trail rides along: the slack target is the
    // configured bound minus the policy's guard band — positive, no
    // larger than gamma, and constant across epochs; SER stays
    // positive.
    std::vector<double> gamma = r.obs->column("policy.gamma");
    std::vector<double> ser = r.obs->column("ser");
    for (std::size_t i = 0; i < r.obs->epochs(); ++i) {
        EXPECT_GT(gamma[i], 0.0);
        EXPECT_LE(gamma[i], tinyObserveConfig().gamma);
        EXPECT_DOUBLE_EQ(gamma[i], gamma[0]);
        EXPECT_GT(ser[i], 0.0);
    }
}

// ---------------------------------------------------------------------------
// Chrome-trace output
// ---------------------------------------------------------------------------

namespace
{

/**
 * Minimal JSON syntax checker (recursive descent over one value).
 * Returns true when the whole input is a single well-formed value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_;   // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;   // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;   // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::string(word).size();
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** One "X" (duration) event pulled out of the trace body. */
struct XEvent
{
    int pid = 0;
    int tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    std::string name;
};

double
numField(const std::string &line, const std::string &key)
{
    auto pos = line.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << line;
    return std::stod(line.substr(pos + key.size() + 3));
}

/** The sink emits one event per line; scan them without a full DOM. */
std::vector<XEvent>
extractDurationEvents(const std::string &trace)
{
    std::vector<XEvent> out;
    std::size_t pos = 0;
    while (pos < trace.size()) {
        std::size_t eol = trace.find('\n', pos);
        if (eol == std::string::npos)
            eol = trace.size();
        std::string line = trace.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        XEvent e;
        e.pid = static_cast<int>(numField(line, "pid"));
        e.tid = static_cast<int>(numField(line, "tid"));
        e.ts = numField(line, "ts");
        e.dur = numField(line, "dur");
        auto npos = line.find("\"name\":\"");
        if (npos != std::string::npos) {
            npos += 8;
            e.name = line.substr(npos, line.find('"', npos) - npos);
        }
        out.push_back(e);
    }
    return out;
}

} // namespace

TEST(ChromeTrace, EmptyRecorderProducesValidJson)
{
    EpochRecorder rec;
    std::string trace = chromeTraceJson(rec);
    EXPECT_TRUE(JsonChecker(trace).valid()) << trace;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("process_name"), std::string::npos);
    EXPECT_TRUE(extractDurationEvents(trace).empty());
}

TEST(ChromeTrace, WellFormedWithMonotoneTimestampsPerTrack)
{
    RunResult r = tinyObserveRun();
    ASSERT_TRUE(r.obs);
    std::string trace = chromeTraceJson(*r.obs);

    EXPECT_TRUE(JsonChecker(trace).valid());
    EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);

    std::vector<XEvent> events = extractDurationEvents(trace);
    ASSERT_FALSE(events.empty());

    // Each (pid, tid) track must be internally ordered with
    // non-negative durations.
    std::map<std::pair<int, int>, double> last_ts;
    bool saw_mhz = false, saw_cpi = false, saw_residency = false;
    for (const XEvent &e : events) {
        EXPECT_GE(e.dur, 0.0) << e.name;
        auto key = std::make_pair(e.pid, e.tid);
        auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_GE(e.ts, it->second)
                << "track (" << e.pid << "," << e.tid
                << ") went backwards at " << e.name;
        }
        last_ts[key] = e.ts;
        saw_mhz |= e.name.find("MHz") != std::string::npos;
        saw_cpi |= e.name.find("cpi~") != std::string::npos;
        saw_residency |= e.name.find("standby") != std::string::npos ||
                         e.name.find("powerdown") != std::string::npos;
    }
    // All three track families must be present: frequency
    // transitions, per-core CPI phases, power-state residency.
    EXPECT_TRUE(saw_mhz);
    EXPECT_TRUE(saw_cpi);
    EXPECT_TRUE(saw_residency);
}

TEST(ChromeTrace, FrequencyTrackCoversEveryEpochOnce)
{
    RunResult r = tinyObserveRun();
    ASSERT_TRUE(r.obs);
    std::string trace = chromeTraceJson(*r.obs);
    std::vector<XEvent> events = extractDurationEvents(trace);

    // Per-channel frequency events (pid 2) merge equal-frequency runs,
    // so their per-track count is bounded by the epoch count and they
    // must tile the timeline without overlap.
    std::map<int, std::vector<const XEvent *>> freq_tracks;
    for (const XEvent &e : events)
        if (e.pid == 2)
            freq_tracks[e.tid].push_back(&e);
    ASSERT_EQ(freq_tracks.size(),
              static_cast<std::size_t>(r.obs->meta().numChannels));
    for (const auto &[tid, evs] : freq_tracks) {
        EXPECT_LE(evs.size(), r.obs->epochs());
        for (std::size_t i = 1; i < evs.size(); ++i) {
            EXPECT_GE(evs[i]->ts,
                      evs[i - 1]->ts + evs[i - 1]->dur - 1e-6);
        }
    }
}

/**
 * @file
 * Trace record/replay tests: round-trip fidelity, looping replay,
 * format validation, and recorder pass-through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <string>

#include "common/log.hh"
#include "workload/trace_file.hh"
#include "workload/trace_source.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

class VectorSource : public TraceSource
{
  public:
    std::deque<TraceChunk> chunks;

    bool
    next(TraceChunk &chunk) override
    {
        if (chunks.empty())
            return false;
        chunk = chunks.front();
        chunks.pop_front();
        return true;
    }
};

TraceChunk
mk(std::uint64_t instr, Addr miss, bool wb = false, Addr wba = 0)
{
    TraceChunk c;
    c.instructions = instr;
    c.cpi = 1.25;
    c.missAddr = miss;
    c.hasWriteback = wb;
    c.writebackAddr = wba;
    return c;
}

std::string
tempPath(const char *name)
{
    return test::tempPath(std::string(name) + ".trc");
}

} // namespace

TEST(TraceFile, RoundTrip)
{
    std::string path = tempPath("roundtrip");
    VectorSource src;
    src.chunks.push_back(mk(100, 0x1000));
    src.chunks.push_back(mk(0, 0x2040, true, 0x9fc0));
    src.chunks.push_back(mk(7, 0x30c0));

    {
        TraceRecorder rec(src, path);
        TraceChunk c;
        while (rec.next(c)) {
        }
        EXPECT_EQ(rec.recorded(), 3u);
    }

    TraceFileSource replay(path);
    TraceChunk c;
    ASSERT_TRUE(replay.next(c));
    EXPECT_EQ(c.instructions, 100u);
    EXPECT_EQ(c.missAddr, 0x1000u);
    EXPECT_FALSE(c.hasWriteback);
    EXPECT_DOUBLE_EQ(c.cpi, 1.25);
    ASSERT_TRUE(replay.next(c));
    EXPECT_EQ(c.instructions, 0u);
    EXPECT_TRUE(c.hasWriteback);
    EXPECT_EQ(c.writebackAddr, 0x9fc0u);
    ASSERT_TRUE(replay.next(c));
    EXPECT_EQ(c.missAddr, 0x30c0u);
    EXPECT_FALSE(replay.next(c));
    EXPECT_EQ(replay.replayed(), 3u);
    std::remove(path.c_str());
}

TEST(TraceFile, LoopingReplay)
{
    std::string path = tempPath("loop");
    VectorSource src;
    src.chunks.push_back(mk(1, 0x40));
    src.chunks.push_back(mk(2, 0x80));
    {
        TraceRecorder rec(src, path);
        TraceChunk c;
        while (rec.next(c)) {
        }
    }
    TraceFileSource replay(path, true);
    TraceChunk c;
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(replay.next(c));
    EXPECT_EQ(c.instructions, 1u);   // 7th chunk wraps to the first
    std::remove(path.c_str());
}

TEST(TraceFile, RecorderPassesThroughSyntheticStream)
{
    std::string path = tempPath("synth");
    AppProfile p;
    p.name = "t";
    p.phases.push_back(AppPhase{5.0, 1.0, 1.0, 0.5, 0});
    p.footprintBytes = 1 << 20;
    SyntheticTraceSource a(p, 0, 64, 3), b(p, 0, 64, 3);
    TraceRecorder rec(a, path);
    TraceChunk ca, cb;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(rec.next(ca));
        ASSERT_TRUE(b.next(cb));
        EXPECT_EQ(ca.missAddr, cb.missAddr);
        EXPECT_EQ(ca.instructions, cb.instructions);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsGarbage)
{
    std::string path = tempPath("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_THROW(TraceFileSource src(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileFatal)
{
    EXPECT_THROW(TraceFileSource src("/nonexistent/nope.trc"),
                 FatalError);
}

namespace
{

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

/** Record a two-chunk trace, then chop the file to `keep` bytes. */
std::string
truncatedTrace(const char *name, long keep)
{
    std::string path = tempPath(name);
    VectorSource src;
    src.chunks.push_back(mk(1, 0x40));
    src.chunks.push_back(mk(2, 0x80));
    {
        TraceRecorder rec(src, path);
        TraceChunk c;
        while (rec.next(c)) {
        }
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::string data(static_cast<std::size_t>(keep), '\0');
    EXPECT_EQ(std::fread(data.data(), 1, data.size(), f),
              data.size());
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    return path;
}

} // namespace

TEST(TraceFile, TruncatedHeaderFatal)
{
    // A valid magic that stops mid-header must be reported as
    // truncation, not as "not a trace".
    std::string path = truncatedTrace("shorthdr", 10);
    std::string msg =
        fatalMessage([&] { TraceFileSource src(path); });
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    std::remove(path.c_str());
}

TEST(TraceFile, BadMagicNamedInError)
{
    std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("0123456789abcdefpadpadpad", f);   // 16+ bytes
    std::fclose(f);
    std::string msg =
        fatalMessage([&] { TraceFileSource src(path); });
    EXPECT_NE(msg.find("bad magic"), std::string::npos) << msg;
    std::remove(path.c_str());
}

TEST(TraceFile, UnsupportedVersionFatal)
{
    std::string path = tempPath("version");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::uint64_t magic = traceFileMagic;
    std::uint32_t version = traceFileVersion + 7, reserved = 0;
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&reserved, sizeof(reserved), 1, f);
    std::fclose(f);
    std::string msg =
        fatalMessage([&] { TraceFileSource src(path); });
    EXPECT_NE(msg.find("unsupported version"), std::string::npos)
        << msg;
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedMidRecordFatal)
{
    // Header + first record + half the second record: the good record
    // replays, then the partial one is a diagnosed error — never a
    // silent early end of the workload.
    const long keep = 16 + static_cast<long>(sizeof(TraceFileRecord)) +
                      static_cast<long>(sizeof(TraceFileRecord)) / 2;
    std::string path = truncatedTrace("midrec", keep);
    TraceFileSource replay(path);
    TraceChunk c;
    ASSERT_TRUE(replay.next(c));
    EXPECT_EQ(c.instructions, 1u);
    std::string msg = fatalMessage([&] { replay.next(c); });
    EXPECT_NE(msg.find("truncated mid-record"), std::string::npos)
        << msg;
    std::remove(path.c_str());
}

TEST(TraceFile, TruncationFatalInLoopModeToo)
{
    const long keep = 16 + static_cast<long>(sizeof(TraceFileRecord)) +
                      4;
    std::string path = truncatedTrace("midrecloop", keep);
    TraceFileSource replay(path, true);
    TraceChunk c;
    ASSERT_TRUE(replay.next(c));
    EXPECT_THROW(replay.next(c), FatalError);
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceEndsCleanly)
{
    // A header-only file is a valid, zero-length trace: next() is
    // false in both modes, with no error.
    std::string path = truncatedTrace("empty", 16);
    TraceChunk c;
    TraceFileSource once(path);
    EXPECT_FALSE(once.next(c));
    TraceFileSource looped(path, true);
    EXPECT_FALSE(looped.next(c));
    std::remove(path.c_str());
}

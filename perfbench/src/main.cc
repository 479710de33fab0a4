/**
 * @file
 * One benchmark pass in a fresh process.
 *
 *   memscale_perfbench --workload NAME [--seed N] [--mode timed|traced]
 *                      [--out DIR] [--scratch DIR]
 *
 * `timed` runs the workload through the library's public entry points
 * with no tracing.  `traced` issues the same work one level down with
 * spans around every layer call, writes the spans to
 * DIR/spans-NAME-SEED.json, then runs the workload's probes.  Either
 * way the last line of standard output is one JSON object with the
 * pass's timings, result hashes, output checks and metrics; run.py
 * aggregates passes into the benchmark result.
 *
 * Set-up time runs from the spawn of this process to its first
 * simulation call, so run.py computes it from `first_call_ns` (steady
 * clock, i.e. CLOCK_MONOTONIC) and adds `ctor_s`, the time spent in
 * System and ClusterHarness constructors.
 *
 * Any MEMSCALE_* variable in the environment is an error: those
 * variables change thread counts or behaviour without showing up in
 * the inputs.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common/log.hh"
#include "tracer.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 12345;
    std::string mode = "timed";
    std::string out = ".";
    std::string scratch = ".";
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "memscale_perfbench: %s\nusage: memscale_perfbench "
                 "--workload NAME [--seed N] [--mode timed|traced] "
                 "[--out DIR] [--scratch DIR]\n",
                 msg);
    return 2;
}

bool
parseSeed(const char *s, std::uint64_t &out)
{
    if (*s == '\0' || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Removes the per-process scratch directory on every exit path. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &base)
        : path_(base + "/pid" + std::to_string(::getpid()))
    {
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
jsonString(std::string &o, const std::string &s)
{
    o += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    o += '"';
}

void
jsonNumber(std::string &o, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    o += buf;
}

void
jsonMap(std::string &o, const std::map<std::string, double> &m)
{
    o += '{';
    bool first = true;
    for (const auto &[k, v] : m) {
        if (!first)
            o += ',';
        first = false;
        jsonString(o, k);
        o += ':';
        jsonNumber(o, v);
    }
    o += '}';
}

std::string
toJson(const Args &a, const perfbench::Workload &wl,
       const perfbench::PassReport &rep, double wall_s, double rss_mb,
       const std::string &trace_file)
{
    std::string o = "{\"workload\":";
    jsonString(o, a.workload);
    o += ",\"mode\":";
    jsonString(o, a.mode);
    o += ",\"seed\":" + std::to_string(a.seed);
    o += ",\"jobs\":" + std::to_string(wl.jobs());
    o += ",\"build\":{\"compiler\":";
    jsonString(o, PERFBENCH_COMPILER);
    o += ",\"build_type\":";
    jsonString(o, PERFBENCH_BUILD_TYPE);
    o += "},\"params\":[";
    bool first = true;
    for (const auto &[k, v] : wl.params()) {
        o += first ? "[" : ",[";
        first = false;
        jsonString(o, k);
        o += ',';
        jsonString(o, v);
        o += ']';
    }
    o += "],\"first_call_ns\":" + std::to_string(rep.firstCallNs);
    o += ",\"ctor_s\":";
    jsonNumber(o, rep.ctorS);
    o += ",\"wall_s\":";
    jsonNumber(o, wall_s);
    o += ",\"cpu_s\":";
    jsonNumber(o, rep.endCpuS - rep.firstCallCpuS);
    o += ",\"dram_reqs\":" + std::to_string(rep.dramReqs);
    o += ",\"peak_rss_mb\":";
    jsonNumber(o, rss_mb);
    o += ",\"ops\":[";
    for (std::size_t i = 0; i < rep.ops.size(); ++i) {
        const perfbench::Op &op = rep.ops[i];
        char hash[32];
        std::snprintf(hash, sizeof hash, "0x%016llx",
                      static_cast<unsigned long long>(op.hash));
        o += i ? ",{\"name\":" : "{\"name\":";
        jsonString(o, op.name);
        o += ",\"hash\":";
        jsonString(o, hash);
        o += ",\"problems\":[";
        for (std::size_t j = 0; j < op.problems.size(); ++j) {
            if (j)
                o += ',';
            jsonString(o, op.problems[j]);
        }
        o += "]}";
    }
    o += "],\"model\":";
    jsonMap(o, rep.model);
    o += ",\"layers\":";
    jsonMap(o, rep.layers);
    o += ",\"trace_file\":";
    jsonString(o, trace_file);
    o += '}';
    return o;
}

int
runPass(const Args &a)
{
    using namespace perfbench;
    ScratchDir scratch(a.scratch);
    std::unique_ptr<Workload> wl =
        makeWorkload(a.workload, a.seed, scratch.path());
    if (!wl)
        return usage(("unknown workload '" + a.workload + "'").c_str());

    PassReport rep;
    std::string trace_file;
    if (a.mode == "timed") {
        wl->timed(rep);
    } else {
        tracer().clear();
        {
            SpanScope pass("pass", "bench");
            wl->traced(rep);
        }
        const std::vector<Span> spans = tracer().spans();
        for (const auto &[k, v] : layerMetrics(spans, wl->jobs()))
            rep.layers.emplace(k, v);
        for (const Span &s : spans) {
            const std::string_view n(s.name);
            if (n == "system.ctor" || n == "cluster.ctor")
                rep.ctorS += s.ms() / 1e3;
        }
        trace_file = a.out + "/spans-" + a.workload + "-" +
                     std::to_string(a.seed) + ".json";
        if (!tracer().writeChromeTrace(trace_file)) {
            std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
            return 1;
        }
        wl->probes(rep);
    }
    if (rep.firstCallNs == 0 || rep.endNs < rep.firstCallNs) {
        std::fprintf(stderr, "pass made no simulation call\n");
        return 1;
    }
    const double wall_s =
        static_cast<double>(rep.endNs - rep.firstCallNs) / 1e9;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::printf("%s\n", toJson(a, *wl, rep, wall_s, rss_mb, trace_file)
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "MEMSCALE_", 9) == 0) {
            std::fprintf(stderr,
                         "memscale_perfbench: refusing to run with %s in "
                         "the environment (MEMSCALE_* variables change "
                         "threads or behaviour silently)\n",
                         *e);
            return 2;
        }
    }

    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const char *val = argv[i + 1];
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            if (!parseSeed(val, a.seed))
                return usage("--seed needs a non-negative integer");
        } else if (key == "--mode") {
            a.mode = val;
            if (a.mode != "timed" && a.mode != "traced")
                return usage("--mode must be timed or traced");
        } else if (key == "--out") {
            a.out = val;
        } else if (key == "--scratch") {
            a.scratch = val;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (a.workload.empty())
        return usage("--workload is required");

    try {
        return runPass(a);
    } catch (const memscale::FatalError &e) {
        std::fprintf(stderr, "memscale_perfbench: fatal: %s\n",
                     e.message.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memscale_perfbench: %s\n", e.what());
    }
    return 1;
}

#include "tracer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace perfbench
{

namespace
{

struct ThreadState
{
    std::vector<std::uint32_t> stack;  ///< open span ids, innermost last
    std::uint32_t run = 0;
    std::uint32_t tid = 0;
};

std::atomic<std::uint32_t> nextTid{0};
std::atomic<std::uint32_t> nextRun{1};

ThreadState &
threadState()
{
    thread_local ThreadState ts{{}, 0, nextTid.fetch_add(1)};
    return ts;
}

/** Length of the union of [start, end) intervals, in ns. */
std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_s = 0, cur_e = 0;
    bool have = false;
    for (const auto &[s, e] : iv) {
        if (!have || s > cur_e) {
            if (have)
                total += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
            have = true;
        } else {
            cur_e = std::max(cur_e, e);
        }
    }
    if (have)
        total += cur_e - cur_s;
    return total;
}

bool
is(const Span &s, const char *name)
{
    return std::string_view(s.name) == name;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> g(m_);
    spans_.clear();
}

std::vector<Span>
Tracer::spans() const
{
    std::vector<Span> out;
    {
        std::lock_guard<std::mutex> g(m_);
        out = spans_;
    }
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return out;
}

std::uint32_t
Tracer::open()
{
    std::lock_guard<std::mutex> g(m_);
    return nextId_++;
}

void
Tracer::close(const Span &s)
{
    std::lock_guard<std::mutex> g(m_);
    spans_.push_back(s);
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t t0 = all.empty() ? 0 : all.front().start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u,\"run\":%u,"
                     "\"work\":%llu}}",
                     i ? "," : "", s.name, s.layer, s.tid,
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, s.id,
                     s.parent, s.run,
                     static_cast<unsigned long long>(s.work));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char *name, const char *layer,
                     std::uint32_t parent)
{
    ThreadState &ts = threadState();
    s_.name = name;
    s_.layer = layer;
    s_.id = tracer().open();
    s_.parent = ts.stack.empty() ? parent : ts.stack.back();
    s_.run = ts.run;
    s_.tid = ts.tid;
    ts.stack.push_back(s_.id);
    s_.start = nowNs();
}

SpanScope::~SpanScope()
{
    s_.end = nowNs();
    threadState().stack.pop_back();
    tracer().close(s_);
}

void
SpanScope::setWork(std::uint64_t work, double sim_us)
{
    s_.work = work;
    s_.simUs = sim_us;
}

RunScope::RunScope(std::uint32_t run) : prev_(threadState().run)
{
    threadState().run = run;
}

RunScope::~RunScope()
{
    threadState().run = prev_;
}

std::uint32_t
newRunId()
{
    return nextRun.fetch_add(1);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::map<std::string, double>
layerMetrics(const std::vector<Span> &spans, unsigned jobs)
{
    std::unordered_map<std::uint32_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    std::unordered_map<std::uint32_t, std::vector<const Span *>> tasks_of;
    for (const Span &s : spans) {
        children[s.parent].emplace_back(s.start, s.end);
        if (is(s, "sweep.task"))
            tasks_of[s.parent].push_back(&s);
    }
    auto self_ns = [&](const Span &s) {
        auto it = children.find(s.id);
        const std::int64_t cov =
            it == children.end() ? 0 : coveredNs(it->second);
        return (s.end - s.start) - cov;
    };

    std::map<std::string, double> m;
    // Every layer reports its self time, even when the workload never
    // entered it, so each pass prints the same metric set.
    for (const char *layer :
         {"bench", "sweep", "experiment", "system", "memscale", "cluster"})
        m[std::string(layer) + ".self_ms"] = 0.0;
    for (const Span &s : spans)
        m[std::string(s.layer) + ".self_ms"] +=
            static_cast<double>(self_ns(s)) / 1e6;

    // harness/sweep
    std::vector<double> task_ms;
    double task_total = 0.0, capacity = 0.0, tail = 0.0;
    for (const Span &s : spans) {
        if (is(s, "sweep.task")) {
            task_ms.push_back(s.ms());
            task_total += s.ms();
        }
        if (!is(s, "sweep.map"))
            continue;
        capacity += static_cast<double>(jobs) * s.ms();
        // The first worker to find the queue empty is the one whose
        // last task ended earliest; a worker that ran nothing found
        // it empty at once.
        std::map<std::uint32_t, std::int64_t> last_end;
        for (const Span *t : tasks_of[s.id])
            last_end[t->tid] = std::max(last_end[t->tid], t->end);
        std::int64_t first_empty = s.start;
        if (last_end.size() >= jobs) {
            first_empty = s.end;
            for (const auto &[tid, e] : last_end)
                first_empty = std::min(first_empty, e);
        }
        tail += static_cast<double>(s.end - first_empty) / 1e6;
    }
    m["sweep.tasks"] = static_cast<double>(task_ms.size());
    m["sweep.task_ms.p50"] = percentile(task_ms, 0.5);
    m["sweep.task_ms.max"] = percentile(task_ms, 1.0);
    m["sweep.busy_frac"] = capacity > 0.0 ? task_total / capacity : 0.0;
    m["sweep.tail_ms"] = tail;

    // harness/experiment
    double base_ms = 0.0, pol_ms = 0.0, base_runs = 0.0;
    for (const Span &s : spans) {
        if (is(s, "experiment.baseline")) {
            base_ms += s.ms();
            base_runs += 1.0;
        } else if (is(s, "experiment.policy")) {
            pol_ms += s.ms();
        }
    }
    m["experiment.baseline_ms"] = base_ms;
    m["experiment.policy_ms"] = pol_ms;
    m["experiment.baseline_runs"] = base_runs;

    // harness/system and the memscale decorator
    std::vector<double> run_ms, select_us, end_epoch_us;
    double ctor_ms = 0.0, run_total = 0.0, engine_ns = 0.0, reqs = 0.0,
           sim_us = 0.0, policy_ms = 0.0;
    for (const Span &s : spans) {
        if (is(s, "system.ctor")) {
            ctor_ms += s.ms();
        } else if (is(s, "system.run")) {
            run_ms.push_back(s.ms());
            run_total += s.ms();
            engine_ns += static_cast<double>(self_ns(s));
            reqs += static_cast<double>(s.work);
            sim_us += s.simUs;
        } else if (std::string_view(s.layer) == "memscale") {
            policy_ms += s.ms();
            if (is(s, "memscale.select"))
                select_us.push_back(s.ms() * 1e3);
            else if (is(s, "memscale.end_epoch"))
                end_epoch_us.push_back(s.ms() * 1e3);
        }
    }
    m["system.runs"] = static_cast<double>(run_ms.size());
    m["system.ctor_ms"] = ctor_ms;
    m["system.run_ms.p50"] = percentile(run_ms, 0.5);
    m["system.run_ms.max"] = percentile(run_ms, 1.0);
    m["system.host_ns_per_req"] = reqs > 0.0 ? engine_ns / reqs : 0.0;
    m["system.sim_us_per_s"] =
        run_total > 0.0 ? sim_us / (run_total / 1e3) : 0.0;
    m["memscale.decisions"] = static_cast<double>(select_us.size());
    m["memscale.select_us.p50"] = percentile(select_us, 0.5);
    m["memscale.select_us.p90"] = percentile(select_us, 0.9);
    m["memscale.end_epoch_us.p50"] = percentile(end_epoch_us, 0.5);
    m["memscale.share"] = run_total > 0.0 ? policy_ms / run_total : 0.0;

    // harness/cluster
    double cl_runs = 0.0, cl_ms = 0.0, shards = 0.0;
    for (const Span &s : spans) {
        if (!is(s, "cluster.run"))
            continue;
        cl_runs += 1.0;
        cl_ms += s.ms();
        shards += static_cast<double>(s.work);
    }
    m["cluster.runs"] = cl_runs;
    m["cluster.shards"] = shards;
    m["cluster.ms_per_shard"] = shards > 0.0 ? cl_ms / shards : 0.0;
    return m;
}

} // namespace perfbench

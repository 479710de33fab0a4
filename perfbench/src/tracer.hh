/**
 * @file
 * In-memory span recorder for the benchmark's traced pass.
 *
 * Spans are recorded from the benchmark's own code around each call
 * it makes into a library layer (sweep task, baseline/policy run,
 * System construction and run, policy callbacks, fleet run).  Each
 * span carries a name, a layer, start and end times, its parent span
 * and the id of the simulation run it belongs to.  Spans stay in
 * memory until the pass ends; they are then summarised into per-layer
 * metrics and dumped as Chrome-trace JSON.
 *
 * Nothing here is used by the timed pass, so timed numbers carry no
 * tracing cost.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock (shared epoch with every span). */
std::int64_t nowNs();

struct Span
{
    const char *name = "";
    /** Metric prefix of the layer: bench, sweep, experiment, ... */
    const char *layer = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;   ///< 0 = top level
    std::uint32_t run = 0;      ///< simulation run id (0 = none)
    std::uint32_t tid = 0;      ///< small per-thread index
    /**
     * Work the span did, attached by the caller: DRAM requests for a
     * system.run span, server shards for a cluster.run span.
     */
    std::uint64_t work = 0;
    double simUs = 0.0;         ///< simulated time covered (system.run)

    double ms() const { return static_cast<double>(end - start) / 1e6; }
};

class Tracer
{
  public:
    /** Drop every recorded span. */
    void clear();

    /** A copy of every closed span, ordered by id. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome-trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    friend class SpanScope;

    std::uint32_t open();
    void close(const Span &s);

    mutable std::mutex m_;
    std::vector<Span> spans_;  // guarded by m_
    std::uint32_t nextId_ = 1; // guarded by m_
};

/** The process-wide tracer. */
Tracer &tracer();

/**
 * RAII span: opens on construction, closes on destruction.  Nested
 * scopes on one thread become parent and child; a span opened on a
 * thread with no open span takes `parent` instead (sweep tasks name
 * the map call that issued them).  `name` and `layer` must be string
 * literals.
 */
class SpanScope
{
  public:
    SpanScope(const char *name, const char *layer,
              std::uint32_t parent = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint32_t id() const { return s_.id; }

    /** Attach work to this span (see Span::work). */
    void setWork(std::uint64_t work, double sim_us = 0.0);

  private:
    Span s_;
};

/**
 * Mark the calling thread as working on simulation run `run` until
 * the scope ends; spans opened meanwhile carry that id.
 */
class RunScope
{
  public:
    explicit RunScope(std::uint32_t run);
    ~RunScope();

    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

  private:
    std::uint32_t prev_;
};

/** A fresh simulation run id (thread-safe). */
std::uint32_t newRunId();

/**
 * Per-layer metrics derived from a pass's spans: counts, times and
 * ratios of the sweep, experiment, system, memscale and cluster
 * layers, plus every layer's self time.  `jobs` is the sweep engine's
 * worker count.
 */
std::map<std::string, double> layerMetrics(const std::vector<Span> &spans,
                                           unsigned jobs);

/** Nearest-rank percentile of `v` (q in [0,1]); 0 when empty. */
double percentile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH

/**
 * @file
 * The benchmark's four workloads.  Each one can run a timed pass
 * (through the library's public entry points, no tracing), a traced
 * pass (the same work issued one level down, with spans around every
 * call into a layer) and, after the traced pass, its probes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tracer.hh"

namespace perfbench
{

/**
 * User + system CPU seconds of this process, all threads.  Time the
 * hypervisor steals from the VM is not charged to the process, so
 * this is steadier than wall time on a shared host.
 */
double processCpuS();

/** One comparison or one fleet run the benchmark requested. */
struct Op
{
    std::string name;
    std::uint64_t hash = 0;
    /** Why the op failed; empty when it passed every output check. */
    std::vector<std::string> problems;
};

/** What one pass reports back to run.py. */
struct PassReport
{
    /** Steady-clock time of the first simulation call (0 = none). */
    std::int64_t firstCallNs = 0;
    /** Steady-clock time the last result came back. */
    std::int64_t endNs = 0;
    /** Process CPU seconds (all threads) at those two points. */
    double firstCallCpuS = 0.0;
    double endCpuS = 0.0;
    /** Seconds spent inside System and ClusterHarness constructors. */
    double ctorS = 0.0;
    /** DRAM reads + writes over every result returned. */
    std::uint64_t dramReqs = 0;
    std::vector<Op> ops;
    /** Simulated end-to-end outputs (model.*). */
    std::map<std::string, double> model;
    /** Per-layer metrics (traced pass and probes only). */
    std::map<std::string, double> layers;

    /** Call right before every call into the simulator. */
    void
    beginSim()
    {
        if (firstCallNs == 0) {
            firstCallNs = nowNs();
            firstCallCpuS = processCpuS();
        }
    }

    /** Call right after the last result came back. */
    void
    endSim()
    {
        endNs = nowNs();
        endCpuS = processCpuS();
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Sweep-engine worker count (passed explicitly, never "auto"). */
    virtual unsigned jobs() const = 0;

    /** Every input parameter, in print order (provenance header). */
    virtual std::vector<std::pair<std::string, std::string>>
    params() const = 0;

    /** One pass through the library's public entry points. */
    virtual void timed(PassReport &rep) = 0;

    /** The same work one level down, recording spans. */
    virtual void traced(PassReport &rep) = 0;

    /** Probes run after the traced pass, outside its timing. */
    virtual void probes(PassReport &rep) { (void)rep; }
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/**
 * Build a workload; nullptr for an unknown name.  `scratch` is a
 * directory this process owns for checkpoint files.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &scratch);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

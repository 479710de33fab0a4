/**
 * @file
 * Open-loop serving front end: datacenter-style request traffic over
 * the simulated memory system.
 *
 * An ArrivalGenerator (workload/openloop) supplies the request clock;
 * the front end fans requests out across per-core ServingWorkers.  A
 * request is a service demand of N LLC misses, drawn geometrically
 * around `missesPerRequest`, with a fixed compute segment between
 * them (`servingInstrPerMiss` instructions at `servingComputeCpi`);
 * a worker serves one request at a time through
 * the ordinary MemClient completion interface, so every DRAM-level
 * mechanism — FR-FCFS, frequency relocks, refresh, powerdown — shapes
 * the end-to-end latency exactly as it would a trace core's stalls.
 * Completed requests feed two obs Histograms of `latencyHistBuckets`
 * buckets over [0, `latencyHistMaxUs`) (cumulative for the run's
 * p50/p99/p99.9, windowed for the SLO policy's probe).
 *
 * Workers implement CpuSampler, so the unchanged epoch controller
 * profiles them and dynamic policies (memscale, slo) re-clock the bus
 * under open-loop load.  All state checkpoints through a dedicated
 * "serving" snapshot section.
 */

#ifndef MEMSCALE_HARNESS_SERVING_HH
#define MEMSCALE_HARNESS_SERVING_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/sampler.hh"
#include "mem/client.hh"
#include "memscale/tail_window.hh"
#include "sim/event_queue.hh"
#include "workload/openloop.hh"

namespace memscale
{

class MemoryController;
class SectionIO;
class StatRegistry;

/** @name Fixed request shape and latency-histogram geometry. */
/// @{
/** Instructions retired in the compute segment before each miss. */
inline constexpr std::uint32_t servingInstrPerMiss = 200;
/** CPI of those compute segments at the core clock. */
inline constexpr double servingComputeCpi = 1.0;
/** Upper edge of the latency histograms, µs (beyond it: overflow). */
inline constexpr double latencyHistMaxUs = 2000.0;
/** Equal-width buckets below that edge (0.5 µs each). */
inline constexpr std::uint32_t latencyHistBuckets = 4000;
/// @}

/** Open-loop serving configuration (SystemConfig::serving). */
struct ServingOptions
{
    /** Off by default: System::run keeps the closed-loop workload. */
    bool enabled = false;

    ArrivalConfig arrival;

    /**
     * Service demand: the mean number of LLC misses a request must
     * resolve.  Each request draws its demand geometrically around it.
     */
    double missesPerRequest = 8.0;

    /** Accept arrivals and simulate until this tick, then stop. */
    Tick horizon = msToTick(2.0);

    /** Queue bound; arrivals beyond it are dropped (0 = unbounded). */
    std::uint64_t maxQueue = 0;

    /** p99 target handed to SLO-aware policies, µs (0 = none). */
    double sloP99Us = 0.0;

    /**
     * Snapshot fingerprint: every field, as `serving.<field>`, the
     * arrival process included.  Part of the meta section, so it is
     * checked for closed-loop runs too.
     */
    void fingerprint(SectionIO &io);
};

/** Derived serving metrics (RunResult::serving). */
struct ServingStats
{
    bool valid = false;
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t queuedAtEnd = 0;
    std::uint64_t inServiceAtEnd = 0;
    std::uint64_t queuePeak = 0;
    double offeredQps = 0.0;       ///< arrivals / simulated seconds
    double completedQps = 0.0;
    double meanUs = 0.0;
    double maxUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    /** Samples outside the histogram range (tail credibility check). */
    std::uint64_t histOverflow = 0;
};

class ServingFrontEnd;

/**
 * One core's worth of serving capacity: pulls requests from the front
 * end, alternates compute segments (EvServeIssue events) with memory
 * misses (MemClient completions), and exposes the CpuSampler counter
 * surface so the epoch loop can profile it.
 */
class ServingWorker final : public MemClient, public CpuSampler
{
  public:
    ServingWorker(ServingFrontEnd &fe, CoreId id, Addr base,
                  std::uint64_t footprint_lines,
                  std::uint64_t rng_seed);

    void onMemComplete(Tick when, const MemRequest &req) override;

    /** @name CpuSampler surface. */
    /// @{
    std::uint64_t tic(Tick) const override { return retired_; }
    std::uint64_t tlm() const override { return tlm_; }
    double frequencyGHz() const override { return ghz_; }
    void setFrequencyGHz(double ghz) override;
    /// @}

    CoreId id() const { return id_; }
    bool busy() const { return busy_; }
    Tick busyTime() const { return busyTime_; }

    /**
     * Busy time including the in-flight request's partial service up
     * to `now` (busyTime() only accrues at completion).  The CPU
     * power model integrates this across intervals, so a worker busy
     * through an epoch boundary is charged in the right interval.
     */
    Tick
    busyAsOf(Tick now) const
    {
        Tick t = busyTime_;
        if (busy_ && now > busyStart_)
            t += now - busyStart_;
        return t;
    }

    /** Start serving a request that arrived at `arrival`. */
    void beginRequest(Tick arrival, std::uint64_t misses);

    /** End of a compute segment: issue the next miss. */
    void issueMiss();

    void transfer(SectionIO &io);

  private:
    void scheduleCompute();
    Addr nextLineAddr();

    ServingFrontEnd &fe_;
    CoreId id_;
    Addr base_;                     ///< this worker's memory region
    std::uint64_t footprintLines_;
    Rng rng_;                       ///< address stream
    double ghz_ = 0.0;              ///< set by the front end at build
    Tick cpuPeriod_ = 0;

    bool busy_ = false;
    Tick reqArrival_ = 0;
    std::uint64_t missesLeft_ = 0;
    std::uint64_t streamLine_ = 0;  ///< sequential-access cursor

    std::uint64_t retired_ = 0;     ///< instructions (TIC)
    std::uint64_t tlm_ = 0;         ///< misses issued (TLM)
    Tick busyTime_ = 0;             ///< busy ticks (request service)
    Tick busyStart_ = 0;
};

class ServingFrontEnd
{
  public:
    ServingFrontEnd(EventQueue &eq, MemoryController &mc,
                    const ServingOptions &opts,
                    std::uint32_t num_workers, double cpu_ghz,
                    std::uint64_t run_seed);
    ~ServingFrontEnd();

    /** Arm the first arrival (fresh runs only; resume rebuilds it). */
    void start();

    /** The workers, viewed as MemClients (request-pool re-linking). */
    std::vector<MemClient *> clients();

    /** The workers, viewed as CpuSamplers (epoch controller). */
    std::vector<CpuSampler *> samplers();

    /**
     * SLO-policy probe: latency stats since the previous call.
     * Consumes the window (resets the windowed histogram).
     */
    TailWindow tailWindow();

    /** Derived end-of-run metrics; `end` is the final tick. */
    ServingStats stats(Tick end) const;

    std::uint64_t queueDepth() const { return queue_.size(); }
    const ServingOptions &options() const { return opts_; }

    /** Worker `i` (per-core rows in RunResult). */
    const ServingWorker &worker(std::size_t i) const
    {
        return *workers_[i];
    }
    std::size_t numWorkers() const { return workers_.size(); }

    /** Publish counters/gauges/latency histogram under `prefix`. */
    void registerStats(StatRegistry &reg, const std::string &prefix);

    /** @name Checkpoint/restore ("serving" snapshot section). */
    /// @{
    /** The front end's state, then its workers'. */
    void transfer(SectionIO &io);

    /** Rebuild a tagged pending event (EvServeArrival/EvServeIssue). */
    EventCallback rebuildEvent(std::uint32_t kind,
                               std::uint32_t owner);
    /// @}

    /** A worker finished a request at `when`. */
    void onRequestDone(ServingWorker &w, Tick when, Tick arrival);

  private:
    friend class ServingWorker;

    struct QueuedRequest
    {
        Tick arrival = 0;
        std::uint64_t misses = 0;
    };

    void onArrival();
    void scheduleNextArrival();
    void noteQueuePeak();

    EventQueue &eq_;
    MemoryController &mc_;
    ServingOptions opts_;
    ArrivalGenerator gen_;
    Rng demandRng_;
    std::vector<std::unique_ptr<ServingWorker>> workers_;

    std::deque<QueuedRequest> queue_;

    std::uint64_t arrived_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t queuePeak_ = 0;
    double latSumUs_ = 0.0;
    double latMaxUs_ = 0.0;
    Histogram latUs_;              ///< cumulative, whole run
    Histogram winUs_;              ///< since the last tailWindow()
};

} // namespace memscale

#endif // MEMSCALE_HARNESS_SERVING_HH

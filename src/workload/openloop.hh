/**
 * @file
 * Deterministic open-loop arrival processes for datacenter-style
 * serving workloads.
 *
 * A closed-loop trace core only issues its next miss once the
 * previous one returns, so memory slowdowns self-throttle the load.
 * Datacenter traffic does not wait: requests arrive on their own
 * clock, queues build when service lags, and what a frequency policy
 * trades away is *tail latency*, not CPI.  This module supplies the
 * arrival clock — three seeded processes behind one generator:
 *
 *  - Poisson: i.i.d. exponential gaps at a fixed rate λ.
 *  - Bursty: a 2-state Markov-modulated Poisson process (MMPP-2),
 *    alternating exponential dwells in a low-rate and a high-rate
 *    state.  The burst state's share of time f (`burstyTimeShare`),
 *    the burst/calm rate ratio b (`burstyRateRatio`) and the mean
 *    burst dwell (`burstyMeanDwell`) are fixed; the state rates are
 *    solved so the long-run mean rate is exactly the configured λ.
 *  - Diurnal: a sinusoidal rate curve λ(t) = λ(1 + d·sin(2πt/T)),
 *    with d = `diurnalSwing` and T = `diurnalDay`, sampled exactly by
 *    Lewis–Shedler thinning against λ(1 + d).
 *
 * The kind, the rate and the seed are the only knobs.
 *
 * Every generator owns its Rng (seeded from the experiment seed), is
 * bit-reproducible, and checkpoints its full state — the arrival
 * stream after a restore continues exactly where it left off.
 */

#ifndef MEMSCALE_WORKLOAD_OPENLOOP_HH
#define MEMSCALE_WORKLOAD_OPENLOOP_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace memscale
{

class SectionIO;

enum class ArrivalKind : std::uint8_t
{
    Poisson = 0,
    Bursty = 1,
    Diurnal = 2,
};

/** Parse "poisson" / "bursty" / "diurnal" (fatal otherwise). */
ArrivalKind parseArrivalKind(const std::string &name);

/** Inverse of parseArrivalKind. */
const char *arrivalKindName(ArrivalKind kind);

/** @name Fixed arrival-process shapes. */
/// @{
/** Bursty: burst-state rate over calm-state rate (>= 1). */
inline constexpr double burstyRateRatio = 8.0;
/** Bursty: long-run fraction of time spent bursting, in (0, 1). */
inline constexpr double burstyTimeShare = 0.1;
/** Bursty: mean dwell in the burst state. */
inline constexpr Tick burstyMeanDwell = usToTick(50.0);
/** Diurnal: one "day" of the compressed rate curve. */
inline constexpr Tick diurnalDay = msToTick(2.0);
/** Diurnal: peak-to-mean rate swing, in [0, 1). */
inline constexpr double diurnalSwing = 0.75;
/// @}

struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Long-run mean arrival rate, requests per second. */
    double ratePerSec = 1.0e6;

    /** Generator seed (an experiment derives it from the run seed). */
    std::uint64_t seed = 1;

    /** Snapshot fingerprint: every field, as `serving.arrival.<field>`. */
    void fingerprint(SectionIO &io);
};

class ArrivalGenerator
{
  public:
    /** Validates the config (fatal on a non-positive rate). */
    explicit ArrivalGenerator(const ArrivalConfig &cfg);

    /**
     * Absolute tick of the next arrival.  Nondecreasing; same-tick
     * arrivals are possible at high rates (sub-tick gaps round to 0).
     */
    Tick next();

    std::uint64_t generated() const { return generated_; }
    const ArrivalConfig &config() const { return cfg_; }

    /** Checkpoint/restore (Rng + process state + cursor). */
    void transfer(SectionIO &io);

  private:
    Tick gapTicks(double rate_per_sec);
    Tick nextPoisson();
    Tick nextBursty();
    Tick nextDiurnal();

    ArrivalConfig cfg_;
    Rng rng_;
    Tick last_ = 0;                ///< previous arrival tick
    std::uint64_t generated_ = 0;

    /** @name MMPP-2 state (bursty only). */
    /// @{
    bool inBurst_ = false;
    Tick stateEnd_ = 0;            ///< current dwell expires here
    double rateCalm_ = 0.0;
    double rateBurst_ = 0.0;
    /// @}
};

} // namespace memscale

#endif // MEMSCALE_WORKLOAD_OPENLOOP_HH

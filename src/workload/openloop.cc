#include "workload/openloop.hh"

#include <cmath>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

ArrivalKind
parseArrivalKind(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "bursty")
        return ArrivalKind::Bursty;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    fatal("unknown arrival process '%s' (poisson, bursty, diurnal)",
          name.c_str());
}

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty: return "bursty";
      case ArrivalKind::Diurnal: return "diurnal";
    }
    return "unknown";
}

namespace
{

/** Seconds -> ticks, rounded to nearest (sub-tick gaps become 0). */
Tick
secondsToTicks(double sec)
{
    const double t = sec * static_cast<double>(tickPerSec);
    if (t >= static_cast<double>(MaxTick))
        fatal("ArrivalGenerator: %g s gap overflows the tick clock",
              sec);
    return static_cast<Tick>(std::llround(t));
}

/** @name MMPP-2 dwell means, seconds: time in burst over time in calm
 * is f / (1-f). */
/// @{
constexpr double meanBurstSec = tickToSec(burstyMeanDwell);
constexpr double meanCalmSec =
    meanBurstSec * (1.0 - burstyTimeShare) / burstyTimeShare;
/// @}

} // namespace

ArrivalGenerator::ArrivalGenerator(const ArrivalConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    if (!(cfg_.ratePerSec > 0.0))
        fatal("ArrivalGenerator: rate %g must be positive",
              cfg_.ratePerSec);
    if (cfg_.kind == ArrivalKind::Bursty) {
        // Solve the state rates so the time-weighted mean is exactly
        // the configured λ:  (1-f)·r_calm + f·b·r_calm = λ.
        const double f = burstyTimeShare;
        const double b = burstyRateRatio;
        rateCalm_ = cfg_.ratePerSec / ((1.0 - f) + f * b);
        rateBurst_ = b * rateCalm_;
        // Start calm, with a full exponential dwell ahead.
        inBurst_ = false;
        stateEnd_ = secondsToTicks(rng_.exponential(meanCalmSec));
    }
}

Tick
ArrivalGenerator::gapTicks(double rate_per_sec)
{
    return secondsToTicks(rng_.exponential(1.0 / rate_per_sec));
}

Tick
ArrivalGenerator::nextPoisson()
{
    return last_ + gapTicks(cfg_.ratePerSec);
}

Tick
ArrivalGenerator::nextBursty()
{
    // Walk a cursor forward; whenever a candidate gap crosses the end
    // of the current dwell, jump to the boundary, flip state, and
    // redraw — exact by the memorylessness of the exponential.
    Tick t = last_;
    for (;;) {
        const double rate = inBurst_ ? rateBurst_ : rateCalm_;
        const Tick gap = gapTicks(rate);
        if (t + gap <= stateEnd_)
            return t + gap;
        t = stateEnd_;
        inBurst_ = !inBurst_;
        const double dwell_mean = inBurst_ ? meanBurstSec : meanCalmSec;
        Tick dwell = secondsToTicks(rng_.exponential(dwell_mean));
        if (dwell == 0)
            dwell = 1;
        stateEnd_ = t + dwell;
    }
}

Tick
ArrivalGenerator::nextDiurnal()
{
    // Lewis–Shedler thinning against the peak rate: candidate gaps at
    // λ_max = λ(1 + d), each accepted with probability λ(t)/λ_max.
    const double d = diurnalSwing;
    const double rate_max = cfg_.ratePerSec * (1.0 + d);
    const double period_sec = tickToSec(diurnalDay);
    Tick t = last_;
    for (;;) {
        t += gapTicks(rate_max);
        const double phase =
            2.0 * M_PI * tickToSec(t) / period_sec;
        const double rate_t =
            cfg_.ratePerSec * (1.0 + d * std::sin(phase));
        if (rng_.uniform() * rate_max <= rate_t)
            return t;
    }
}

Tick
ArrivalGenerator::next()
{
    Tick t;
    switch (cfg_.kind) {
      case ArrivalKind::Poisson: t = nextPoisson(); break;
      case ArrivalKind::Bursty: t = nextBursty(); break;
      case ArrivalKind::Diurnal: t = nextDiurnal(); break;
      default:
        fatal("ArrivalGenerator: bad kind %u",
              static_cast<unsigned>(cfg_.kind));
    }
    last_ = t;
    ++generated_;
    return t;
}

void
ArrivalGenerator::transfer(SectionIO &io)
{
    io(rng_);
    io(last_);
    io(generated_);
    io(inBurst_);
    io(stateEnd_);
}

void
ArrivalConfig::fingerprint(SectionIO &io)
{
    io.expect("serving.arrival.kind", kind);
    io.expect("serving.arrival.ratePerSec", ratePerSec);
    io.expect("serving.arrival.seed", seed);
}

} // namespace memscale

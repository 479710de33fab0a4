/**
 * @file
 * Tail-target frequency policy for open-loop serving runs.
 *
 * MemScale's CPI-slack bound protects throughput, not latency tails:
 * under an open-loop arrival process, a frequency that costs "only"
 * gamma in CPI can stretch queueing delay enough to blow a p99 target
 * many times over.  This policy closes the loop on the tail itself:
 * at each profiling boundary it reads the serving front end's
 * windowed latency statistics (Policy::attachTailProbe), and picks
 * the lowest bus frequency whose predicted p99 — the measured window
 * p99 scaled by the perf model's mean service-time ratio — still
 * clears the target with a fixed headroom.  The headroom absorbs what
 * the linear scaling misses: queueing delay amplifies service-time
 * stretch nonlinearly as utilisation rises.
 *
 * Degradation is deliberately blunt: a window whose measured p99
 * already exceeds the target, or that shows a standing queue, jumps
 * straight to nominal frequency.  Under overload there is no energy
 * to save — every joule spent below full speed makes the backlog, and
 * therefore every future percentile, worse.
 *
 * Without a probe (closed-loop runs) or without completions in the
 * window, the policy holds the current frequency, which makes it a
 * well-behaved no-op in every non-serving harness path.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_SLO_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_SLO_POLICY_HH

#include <functional>

#include "memscale/perf_model.hh"
#include "memscale/policies/policy.hh"
#include "memscale/tail_window.hh"

namespace memscale
{

class SloPolicy final : public NamedPolicy
{
  public:
    struct Options
    {
        /**
         * Fraction of the p99 target the predicted tail must clear;
         * the margin absorbs queueing amplification beyond the linear
         * service-time model.
         */
        double headroom = 0.85;
    };

    using NamedPolicy::NamedPolicy;

    bool dynamic() const override { return true; }

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

    void attachTailProbe(std::function<TailWindow()> probe) override
    {
        probe_ = std::move(probe);
    }

    FreqIndex selectFrequency(const ProfileData &profile,
                              const PolicyContext &ctx,
                              FreqIndex current) override;

    PolicyDecision lastDecision() const override { return decision_; }

    void registerStats(StatRegistry &reg,
                       const std::string &prefix) override;

  private:
    void transfer(SectionIO &io) override;

    Options opts_;
    std::function<TailWindow()> probe_;
    PerfModel perf_;
    PolicyDecision decision_;

    double lastP99Us_ = 0.0;       ///< most recent window p99
    std::uint64_t overloadEpochs_ = 0;  ///< windows forced to nominal
    std::uint64_t idleEpochs_ = 0;      ///< windows with no completions
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_SLO_POLICY_HH

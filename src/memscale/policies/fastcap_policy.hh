/**
 * @file
 * FastCap: coordinated CPU + memory DVFS under a power budget
 * (PAPERS.md, "FastCap: An efficient and fair algorithm for power
 * capping in many-core systems", adapted to the MemScale substrate).
 *
 * Where CoScale minimizes energy subject to a performance bound,
 * FastCap inverts the objective: maximize performance subject to a
 * power bound.  Each epoch the policy searches the memory-grid x
 * CPU-clock cross product, predicts per-pair average power (memory
 * model + V^2 f CPU model + rest-of-system draw) and picks the
 * fastest pair whose predicted power fits the budget
 * (`PolicyContext::powerCapW`, scaled by a safety headroom).  With no
 * budget it runs flat out at the nominal pair; with an impossible one
 * it degrades to the minimum-power pair and counts the epoch as
 * infeasible.
 *
 * The policy also exports the telemetry a fleet coordinator needs to
 * divide a rack budget: predicted uncapped demand, the power floor,
 * and the predicted slowdown at the chosen operating point.  Budgets
 * arrive through the config/context, never through serialized state,
 * so a resumed shard always obeys the coordinator's *current*
 * allocation.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_FASTCAP_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_FASTCAP_POLICY_HH

#include <cstdint>

#include "memscale/policies/policy.hh"

namespace memscale
{

/** Per-epoch telemetry a power-cap coordinator consumes. */
struct FastCapTelemetry
{
    bool valid = false;
    /** Predicted power of the fastest (nominal) pair, W. */
    Watts demandW = 0.0;
    /** Predicted power of the slowest (min-power) pair, W. */
    Watts minW = 0.0;
    /** Predicted power at the chosen pair, W. */
    Watts chosenW = 0.0;
    /** Predicted time at chosen / predicted time at nominal. */
    double slowdown = 1.0;
    /** Budget in effect during the last decision, W (0 = uncapped). */
    Watts budgetW = 0.0;
    std::uint64_t epochs = 0;
    /** Epochs where even the min-power pair exceeded the budget. */
    std::uint64_t infeasibleEpochs = 0;
    /** Max over epochs of the chosen pair's predicted power, W. */
    Watts maxChosenW = 0.0;
};

class FastCapPolicy : public NamedPolicy
{
  public:
    struct Options
    {
        /**
         * Feasibility margin: a pair fits when predicted power <=
         * headroom * budget.  The model is calibrated per profiling
         * window, so the margin absorbs profile-to-epoch drift.
         */
        double headroom = 0.95;
    };

    using NamedPolicy::NamedPolicy;

    bool dynamic() const override { return true; }

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

    FreqIndex selectFrequency(const ProfileData &profile,
                              const PolicyContext &ctx,
                              FreqIndex current) override;

    double selectedCpuGHz() const override { return chosenGHz_; }

    PolicyDecision lastDecision() const override { return decision_; }

    void registerStats(StatRegistry &reg,
                       const std::string &prefix) override;

    const FastCapTelemetry &telemetry() const { return tele_; }
    const Options &options() const { return opts_; }

  private:
    void transfer(SectionIO &io) override;

    Options opts_;
    PerfModel perf_;
    double chosenGHz_ = 0.0;
    double currentGHz_ = 0.0;
    FastCapTelemetry tele_;
    PolicyDecision decision_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_FASTCAP_POLICY_HH

/**
 * @file
 * Energy-management policy interface and registry.
 *
 * Policies come in two flavours: fixed settings (StaticPolicy: the
 * baseline, Static, the powerdown modes, Decoupled, Throttle) that
 * only set up the memory controller once, and dynamic policies (the
 * MemScale variants, CoScale, FastCap, SLO) that the epoch controller
 * consults at every profiling boundary.  Every name is spelled once,
 * in makePolicy()'s table (policy.cc).
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_POLICY_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dram/timing.hh"
#include "mem/controller.hh"
#include "memscale/energy_model.hh"
#include "memscale/perf_model.hh"
#include "memscale/tail_window.hh"
#include "obs/epoch_recorder.hh"

namespace memscale
{

class SectionIO;
class SectionReader;
class SectionWriter;
class StatRegistry;

/**
 * Decision trail of a dynamic policy's most recent epoch, captured
 * for observability (the EpochRecorder stores one per epoch).  All
 * values are pure by-products of computations the policy already
 * performs; filling the struct must never change policy behaviour.
 */
struct PolicyDecision : DecisionTrail
{
    FreqIndex chosen = nominalFreqIndex;
};

class Policy
{
  public:
    virtual ~Policy() = default;

    /** Human-readable policy name. */
    virtual std::string name() const = 0;

    /** One-time memory-controller setup (frequency, PD mode, ...). */
    virtual void configure(MemoryController &mc,
                           const PolicyContext &ctx);

    /** Whether the epoch controller should drive this policy. */
    virtual bool dynamic() const { return false; }

    /**
     * Dynamic policies: pick the frequency for the rest of the epoch
     * from the profiling window.  Default: keep the current one.
     */
    virtual FreqIndex
    selectFrequency(const ProfileData &profile,
                    const PolicyContext &ctx, FreqIndex current)
    {
        (void)profile;
        (void)ctx;
        return current;
    }

    /** Dynamic policies: end-of-epoch accounting (slack update). */
    virtual void
    endEpoch(const ProfileData &epoch, const PolicyContext &ctx)
    {
        (void)epoch;
        (void)ctx;
    }

    /**
     * Coordinated-scaling policies: CPU clock chosen by the last
     * selectFrequency call, in GHz; 0 means "leave the cores alone".
     * The epoch controller applies it to every core.
     */
    virtual double selectedCpuGHz() const { return 0.0; }

    /**
     * Observability: the decision trail of the most recent epoch.
     * Static policies (and dynamic ones that don't implement it)
     * report an invalid/empty decision.
     */
    virtual PolicyDecision lastDecision() const { return {}; }

    /**
     * Observability: publish policy-internal gauges (slack balance,
     * last SER, ...) under `prefix`.  Default: nothing.
     */
    virtual void
    registerStats(StatRegistry &reg, const std::string &prefix)
    {
        (void)reg;
        (void)prefix;
    }

    /**
     * Serving runs: give the policy a probe into the front end's
     * windowed tail-latency statistics.  Calling the probe consumes
     * the window, so a policy should read it exactly once per
     * selectFrequency.  Default: ignore it — CPI-slack policies work
     * unchanged under open-loop load.
     */
    virtual void
    attachTailProbe(std::function<TailWindow()> probe)
    {
        (void)probe;
    }

    /**
     * @name Checkpoint/restore of policy-internal state (slack
     * accounts, decision trails), both through transfer().  Restore
     * runs after configure() on the resumed run.  They stay virtual
     * so a decorator can wrap a policy's state section.
     */
    /// @{
    virtual void saveState(SectionWriter &w) const;
    virtual void restoreState(SectionReader &r);
    /// @}

  protected:
    /**
     * The policy's state as one field list for both directions.
     * Static policies are stateless after configure(); the default
     * transfers nothing.
     */
    virtual void transfer(SectionIO &io) { (void)io; }
};

/**
 * A policy that answers name() with the name makePolicy() made it
 * under, so no class spells its own name.
 */
class NamedPolicy : public Policy
{
  public:
    explicit NamedPolicy(std::string name) : name_(std::move(name)) {}

    std::string name() const override { return name_; }

  private:
    std::string name_;
};

/** Policy factory: any name in allPolicyNames(). */
std::unique_ptr<Policy> makePolicy(const std::string &name);

/** Every name makePolicy() accepts, in table order. */
std::vector<std::string> allPolicyNames();

/**
 * allPolicyNames() minus coscale and fastcap, left out on
 * purpose: coscale re-clocks the cores and fastcap obeys a power
 * budget, so the tests and sweeps that walk policyNames() stay
 * memory-only and uncapped.
 */
std::vector<std::string> policyNames();

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_POLICY_HH

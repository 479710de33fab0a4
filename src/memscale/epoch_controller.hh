/**
 * @file
 * The OS-level epoch loop (paper Section 3.2): profile at the start of
 * each quantum, invoke the policy, re-lock the bus frequency, and
 * settle slack accounts at the end of the quantum.  Also records a
 * per-epoch timeline (frequency, per-core CPI, channel utilization)
 * used by the Fig. 7/8 reproductions.
 */

#ifndef MEMSCALE_MEMSCALE_EPOCH_CONTROLLER_HH
#define MEMSCALE_MEMSCALE_EPOCH_CONTROLLER_HH

#include <vector>

#include "cpu/core.hh"
#include "mem/controller.hh"
#include "memscale/perf_model.hh"
#include "memscale/policies/policy.hh"
#include "obs/epoch_recorder.hh"
#include "sim/event_queue.hh"

namespace memscale
{

class SectionIO;

class EpochController
{
  public:
    /**
     * The epoch loop samples cores only through the CpuSampler
     * surface (TIC/TLM counters + clock), so any instruction-retiring
     * agent can sit behind it — trace-replay Cores or open-loop
     * serving workers.
     */
    EpochController(EventQueue &eq, MemoryController &mc,
                    const std::vector<CpuSampler *> &cores,
                    Policy &policy, const PolicyContext &ctx);

    /** Arm the first epoch at the current tick. */
    void start();

    const std::vector<EpochRecord> &history() const { return history_; }

    /** Epochs completed so far. */
    std::size_t epochs() const { return history_.size(); }

    /** Re-assign the budget passed to cap-aware policies' decisions. */
    void setPowerCap(Watts w) { ctx_.powerCapW = w; }

    /**
     * Hook fired just before the policy's CPU-clock choice is applied
     * to the cores, so energy accounting can close the interval.
     */
    void
    setBeforeCpuFreqChangeHook(std::function<void()> fn)
    {
        beforeCpuFreqChange_ = std::move(fn);
    }

    /**
     * Attach an observability recorder; every endEpoch() appends one
     * row (epoch envelope + the policy's decision trail + a registry
     * snapshot).  nullptr (the default) keeps recording fully off.
     */
    void setRecorder(EpochRecorder *rec) { recorder_ = rec; }

    /** @name Checkpoint/restore.  A resumed run constructs the
     * controller but does NOT call start(); the saved in-flight
     * Policy event (endProfile or endEpoch) is rebuilt instead. */
    /// @{
    void transfer(SectionIO &io);
    EventCallback rebuildEvent(std::uint32_t kind);
    /// @}

  private:
    struct Snapshot
    {
        McCounters mc;
        std::vector<CoreSample> cores;
        Tick at = 0;
        FreqIndex freq = nominalFreqIndex;
    };

    Snapshot takeSnapshot();
    static ProfileData delta(const Snapshot &s0, const Snapshot &s1);

    void beginEpoch();
    void endProfile();
    void endEpoch();

    EventQueue &eq_;
    MemoryController &mc_;
    std::vector<CpuSampler *> cores_;
    Policy &policy_;
    PolicyContext ctx_;

    Snapshot epochStart_;
    Tick epochStartTick_ = 0;
    std::vector<EpochRecord> history_;
    std::function<void()> beforeCpuFreqChange_;
    EpochRecorder *recorder_ = nullptr;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_EPOCH_CONTROLLER_HH

/**
 * @file
 * In-order core model (paper Section 3.3): fixed-rate execution
 * between LLC misses, exactly one outstanding miss, full stall until
 * the miss returns.  Memory slowdowns therefore translate directly
 * into execution-time increases, the property the paper's performance
 * model relies on.
 *
 * Exposes the per-core TIC (total instructions committed) and TLM
 * (total LLC misses) counters; TIC is interpolated within the current
 * compute segment so epoch-boundary sampling is exact.
 */

#ifndef MEMSCALE_CPU_CORE_HH
#define MEMSCALE_CPU_CORE_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "cpu/sampler.hh"
#include "cpu/trace.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "sim/event_queue.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

struct CoreParams
{
    double cpuGHz = 4.0;
    /** Instruction budget after which the core reports done. */
    std::uint64_t instrBudget = 100'000'000;
    /** Keep generating traffic after the budget is reached. */
    bool runPastBudget = true;
};

class Core final : public MemClient, public CpuSampler
{
  public:
    Core(EventQueue &eq, CoreId id, TraceSource &source,
         MemoryController &mc, const CoreParams &params);

    /** MemClient: the outstanding miss returned (typed completion —
     * no per-miss std::function on the steady-state path). */
    void onMemComplete(Tick when, const MemRequest &req) override;

    /** Begin execution at the current tick. */
    void start();

    /** @name Performance counters (the CpuSampler surface). */
    /// @{
    /** Instructions committed by `now` (interpolated mid-segment). */
    std::uint64_t tic(Tick now) const override;
    /** LLC misses issued so far. */
    std::uint64_t tlm() const override { return tlm_; }
    /// @}

    CoreId id() const { return id_; }
    bool done() const { return doneAt_ != MaxTick; }
    Tick doneAt() const { return doneAt_; }

    /** CPI over the whole budget (valid once done). */
    double budgetCpi() const;

    /**
     * CPU DVFS (coordinated-scaling extension): re-clock the core.
     * Takes effect from the next compute segment; reported CPI stays
     * normalized to the nominal clock (i.e. it measures time).
     */
    void setFrequencyGHz(double ghz) override;

    /** Current core clock. */
    double frequencyGHz() const override { return ghz_; }

    /** Total ticks spent stalled on memory so far. */
    Tick stallTime() const { return stallTime_; }

    /** Callback fired when the instruction budget is reached. */
    void setOnDone(std::function<void()> fn) { onDone_ = std::move(fn); }

    /** @name Checkpoint/restore */
    /// @{
    void transfer(SectionIO &io);

    /** Reconstruct the closure of a tagged pending event (restore). */
    EventCallback rebuildEvent(std::uint32_t kind);
    /// @}

  private:
    void beginChunk();
    void issueMiss();

    EventQueue &eq_;
    CoreId id_;
    TraceSource &source_;
    MemoryController &mc_;
    CoreParams params_;
    Tick cpuPeriod_;          ///< current clock period
    Tick nominalPeriod_;      ///< nominal clock (CPI accounting)
    double ghz_;

    TraceChunk chunk_;
    bool computing_ = false;
    Tick chunkStart_ = 0;
    Tick chunkLen_ = 0;

    std::uint64_t retired_ = 0;
    std::uint64_t tlm_ = 0;
    Tick stallTime_ = 0;
    Tick stallStart_ = 0;
    Tick startedAt_ = 0;
    Tick doneAt_ = MaxTick;
    std::function<void()> onDone_;
};

} // namespace memscale

#endif // MEMSCALE_CPU_CORE_HH

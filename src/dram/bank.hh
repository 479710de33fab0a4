/**
 * @file
 * Per-bank DRAM state.
 *
 * A bank is the unit of row-buffer state and service serialization.
 * The channel scheduler (mem/channel) owns command planning; Bank just
 * records row state and availability in wall-clock ticks.
 */

#ifndef MEMSCALE_DRAM_BANK_HH
#define MEMSCALE_DRAM_BANK_HH

#include <cstdint>

#include "common/types.hh"

namespace memscale
{

class SectionIO;

class Bank
{
  public:
    /** Row-buffer status at the next service opportunity. */
    enum class RowState : std::uint8_t
    {
        Closed,    ///< all rows precharged
        Open,      ///< openRow() is latched in the row buffer
    };

    RowState rowState() const { return rowState_; }
    std::uint64_t openRow() const { return openRow_; }

    /** Earliest tick the next request's first command may issue. */
    Tick readyAt() const { return readyAt_; }

    /** Tick of the most recent ACT (for the tRAS constraint). */
    Tick lastActAt() const { return lastActAt_; }

    /** True while a request is being serviced by this bank. */
    bool inService() const { return inService_; }

    void setInService(bool v) { inService_ = v; }

    void
    recordAct(Tick when)
    {
        lastActAt_ = when;
    }

    void
    openRowAt(std::uint64_t row)
    {
        rowState_ = RowState::Open;
        openRow_ = row;
    }

    void
    close()
    {
        rowState_ = RowState::Closed;
    }

    void
    setReadyAt(Tick t)
    {
        readyAt_ = t;
    }

    /** Checkpoint/restore: every field, in file order. */
    void transfer(SectionIO &io);

  private:
    RowState rowState_ = RowState::Closed;
    std::uint64_t openRow_ = 0;
    Tick readyAt_ = 0;
    Tick lastActAt_ = 0;
    bool inService_ = false;
};

} // namespace memscale

#endif // MEMSCALE_DRAM_BANK_HH

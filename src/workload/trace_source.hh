/**
 * @file
 * Synthetic LLC miss/writeback trace generator driven by AppProfiles.
 *
 * Inter-miss instruction gaps are exponentially distributed around the
 * phase MPKI; miss addresses are a mixture of sequential streaming
 * through the instance footprint and uniform random lines; writebacks
 * accompany misses with probability WPKI/MPKI and target recently
 * touched lines.
 */

#ifndef MEMSCALE_WORKLOAD_TRACE_SOURCE_HH
#define MEMSCALE_WORKLOAD_TRACE_SOURCE_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/trace.hh"
#include "snapshot/serializer.hh"
#include "workload/app_profile.hh"

namespace memscale
{

class SyntheticTraceSource : public TraceSource
{
  public:
    /**
     * @param profile    application behaviour description
     * @param base       start of this instance's physical region
     * @param line_bytes cache line size
     * @param seed       deterministic stream seed
     */
    SyntheticTraceSource(const AppProfile &profile, Addr base,
                         std::uint32_t line_bytes, std::uint64_t seed);

    bool next(TraceChunk &chunk) override;

    /** Instructions generated so far. */
    std::uint64_t generated() const { return generated_; }

    /** Checkpoint/restore (PRNG position + phase cursor). */
    void transfer(SectionIO &io);

  private:
    const AppPhase &currentPhase();
    Addr pickMissAddr(const AppPhase &ph);

    const AppProfile &profile_;
    Rng rng_;
    Addr base_;
    std::uint64_t lineBytes_;
    std::uint64_t footprintLines_;

    std::size_t phaseIdx_ = 0;
    std::uint64_t phaseInstr_ = 0;   ///< instructions into the phase
    std::uint64_t generated_ = 0;
    std::uint64_t streamLine_ = 0;   ///< streaming cursor
    bool exhausted_ = false;
};

} // namespace memscale

#endif // MEMSCALE_WORKLOAD_TRACE_SOURCE_HH

/**
 * @file
 * Synthetic load/store address-stream generator for the cache-based
 * trace path (the alternative to direct miss-stream synthesis; see
 * DESIGN.md).  Models a set of sequential streams plus uniform random
 * accesses over a footprint, the classic blend that covers SPEC-like
 * behaviour from mgrid-style streaming to mcf-style pointer chasing.
 */

#ifndef MEMSCALE_WORKLOAD_ADDRESS_STREAM_HH
#define MEMSCALE_WORKLOAD_ADDRESS_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

struct AddressStreamParams
{
    std::uint64_t footprintBytes = 64ull << 20;
    std::uint32_t numStreams = 4;      ///< concurrent sequential walks
    std::uint64_t strideBytes = 64;    ///< stream step
    double seqFrac = 0.7;              ///< P(next access is streaming)
    double storeFrac = 0.3;            ///< P(access is a store)
    /** Hot-set fraction receiving random accesses (temporal reuse). */
    double hotFrac = 0.1;
    double hotProb = 0.6;              ///< P(random access hits hot set)
};

class AddressStream
{
  public:
    AddressStream(const AddressStreamParams &params, Addr base,
                  std::uint64_t seed);

    /** Produce the next access. @param is_store set per storeFrac. */
    Addr next(bool &is_store);

    /** Checkpoint/restore (PRNG + stream cursors). */
    void
    transfer(SectionIO &io)
    {
        io(rng_);
        io.list<std::uint64_t>(cursors_);
    }

  private:
    AddressStreamParams params_;
    Addr base_;
    Rng rng_;
    std::vector<std::uint64_t> cursors_;  ///< per-stream byte offsets
};

} // namespace memscale

#endif // MEMSCALE_WORKLOAD_ADDRESS_STREAM_HH

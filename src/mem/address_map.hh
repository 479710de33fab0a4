/**
 * @file
 * Physical address to channel/rank/bank/row/column mapping.
 *
 * The default scheme interleaves consecutive cache lines across
 * channels first (maximizing channel parallelism, the paper's
 * configuration), keeps a small run of lines within a row (so
 * streaming accesses can merge into row hits when they queue up
 * back-to-back), then interleaves across banks and ranks.
 *
 * The mapping is defined by division/modulo so that non-power-of-two
 * channel counts (the 3-channel point of Fig. 13) work unchanged.
 * When every geometry factor is a power of two (the default
 * configuration), decode() computes the same fields by shift/mask.
 */

#ifndef MEMSCALE_MEM_ADDRESS_MAP_HH
#define MEMSCALE_MEM_ADDRESS_MAP_HH

#include "common/types.hh"
#include "mem/config.hh"
#include "mem/request.hh"

namespace memscale
{

class AddressMap
{
  public:
    explicit AddressMap(const MemConfig &cfg);

    /** Decode a byte address into its physical location. */
    DecodedAddr decode(Addr addr) const;

    /** Inverse of decode (line-aligned); used by tests. */
    Addr encode(const DecodedAddr &loc) const;

    /** Total addressable bytes. */
    std::uint64_t capacity() const { return capacity_; }

  private:
    /** Shift/mask decode; valid only when pow2_ is set. */
    DecodedAddr decodePow2(Addr addr) const;

    std::uint64_t lineBytes_;
    std::uint64_t channels_;
    std::uint64_t colLow_;
    std::uint64_t banks_;
    std::uint64_t ranks_;
    std::uint64_t colHigh_;
    std::uint64_t rows_;
    std::uint64_t capacity_;

    /**
     * Set by the constructor when capacity and every factor above is
     * a power of two; shifts_ then holds log2 of lineBytes_,
     * channels_, colLow_, banks_, ranks_ and colHigh_, in that order.
     */
    bool pow2_ = false;
    unsigned shifts_[6] = {};
};

} // namespace memscale

#endif // MEMSCALE_MEM_ADDRESS_MAP_HH

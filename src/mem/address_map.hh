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
 * channel counts (the 3-channel point of Fig. 13) work unchanged;
 * decode() is that division chain.  decodeInto() is the per-request
 * path: when every geometry factor is a power of two (the default
 * configuration) it computes the same fields inline by shift/mask,
 * straight into the request, and otherwise it calls decode().
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

    /**
     * decode(addr) written into `loc`.  Inline, so the location goes
     * into the request without a 32-byte return through memory.
     */
    void
    decodeInto(Addr addr, DecodedAddr &loc) const
    {
        if (!pow2_) {
            loc = decode(addr);
            return;
        }
        // Field for field the division chain, with x % 2^k ==
        // x & (2^k - 1) and x / 2^k == x >> k.
        std::uint64_t line = (addr & (capacity_ - 1)) >> shifts_[0];
        auto take = [&line](unsigned bits) {
            const std::uint64_t v =
                line & ((std::uint64_t(1) << bits) - 1);
            line >>= bits;
            return v;
        };
        loc.channel = static_cast<std::uint32_t>(take(shifts_[1]));
        const std::uint64_t col_low = take(shifts_[2]);
        loc.bank = static_cast<std::uint32_t>(take(shifts_[3]));
        loc.rank = static_cast<std::uint32_t>(take(shifts_[4]));
        const std::uint64_t col_high = take(shifts_[5]);
        loc.row = line & (rows_ - 1);
        loc.column = (col_high << shifts_[2]) | col_low;
    }

    /** Inverse of decode (line-aligned); used by tests. */
    Addr encode(const DecodedAddr &loc) const;

    /** Total addressable bytes. */
    std::uint64_t capacity() const { return capacity_; }

  private:
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

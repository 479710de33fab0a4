/**
 * @file
 * Set-associative last-level cache model (paper Table 2: 16 MB,
 * 4-way, 64 B lines, shared) and a trace source that derives the LLC
 * miss/writeback stream from a synthetic address stream through it —
 * the validation alternative to SyntheticTraceSource.
 */

#ifndef MEMSCALE_WORKLOAD_LLC_HH
#define MEMSCALE_WORKLOAD_LLC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/trace.hh"
#include "snapshot/serializer.hh"
#include "workload/address_stream.hh"

namespace memscale
{

class Llc
{
  public:
    struct AccessResult
    {
        bool hit = false;
        bool writeback = false;   ///< dirty victim evicted
        Addr victimAddr = 0;
    };

    Llc(std::uint64_t size_bytes, std::uint32_t ways,
        std::uint32_t line_bytes);

    /** Access a line; allocates on miss (write-allocate, writeback). */
    AccessResult access(Addr addr, bool is_store);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    double
    missRate() const
    {
        std::uint64_t n = hits_ + misses_;
        return n ? static_cast<double>(misses_) /
                       static_cast<double>(n)
                 : 0.0;
    }

    /** Checkpoint/restore (full line array + LRU clock). */
    void
    transfer(SectionIO &io)
    {
        std::uint64_t n = lines_.size();
        io.expect("Llc lines", n);
        for (Line &l : lines_) {
            io(l.tag);
            io(l.valid);
            io(l.dirty);
            io(l.lastUse);
        }
        io(clock_);
        io(hits_);
        io(misses_);
        io(writebacks_);
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;   ///< set-major
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/**
 * TraceSource producing chunks by filtering an address stream through
 * a (typically private slice of the) LLC.  Miss rates and writebacks
 * emerge from cache behaviour instead of being prescribed.
 */
class CacheTraceSource : public TraceSource
{
  public:
    struct Params
    {
        double accessesPerKiloInstr = 300.0;  ///< LLC lookups per 1k
        double baseCpi = 1.0;
        std::uint64_t llcBytes = 1ull << 20;  ///< this core's share
        std::uint32_t llcWays = 4;
        std::uint32_t lineBytes = 64;
    };

    CacheTraceSource(const Params &params,
                     const AddressStreamParams &stream, Addr base,
                     std::uint64_t seed);

    bool next(TraceChunk &chunk) override;

    const Llc &cache() const { return llc_; }

    /** Observed misses per kilo-instruction so far. */
    double observedMpki() const;

    /** Checkpoint/restore (stream + cache + PRNG + counters). */
    void
    transfer(SectionIO &io)
    {
        stream_.transfer(io);
        llc_.transfer(io);
        io(rng_);
        io(instructions_);
        io(missesEmitted_);
    }

  private:
    Params params_;
    AddressStream stream_;
    Llc llc_;
    Rng rng_;
    std::uint64_t instructions_ = 0;
    std::uint64_t missesEmitted_ = 0;
};

} // namespace memscale

#endif // MEMSCALE_WORKLOAD_LLC_HH

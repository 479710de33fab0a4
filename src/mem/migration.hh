/**
 * @file
 * Rank-aware page migration for idle-state consolidation.
 *
 * MemScale's deep idle states only pay off when whole ranks go quiet.
 * The migrator tracks hot row-frames with a small direct-mapped
 * counter cache (source-address space, sampled on every controller
 * access) and periodically remaps frames that got hot on a "cold"
 * rank onto the configured hot-rank set, swapping them with the
 * co-resident frame so the mapping stays a bijection.  Remapping only
 * ever changes the rank field of a decoded address — channel, bank,
 * row and column are preserved — so bank-level timing behaviour is
 * untouched and the inverse map is a per-frame rank permutation.
 *
 * The migrator is pure bookkeeping: the controller asks runPass() for
 * a bounded batch of swaps and models the copy traffic itself (reads
 * from both frames, writes to both, bypassing the remap).
 */

#ifndef MEMSCALE_MEM_MIGRATION_HH
#define MEMSCALE_MEM_MIGRATION_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/config.hh"
#include "mem/request.hh"

namespace memscale
{

class SectionIO;
class StatRegistry;

/** One frame swap decided by a consolidation pass. */
struct MigrationSwap
{
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint32_t rankFrom = 0;  ///< cold physical rank vacated
    std::uint32_t rankTo = 0;    ///< hot physical rank filled
};

class PageMigrator
{
  public:
    explicit PageMigrator(const MemConfig &cfg);

    /** Account one access (source-space location, pre-remap). */
    void noteAccess(const DecodedAddr &loc);

    /** Physical rank the frame currently lives on. */
    std::uint32_t remap(const DecodedAddr &loc) const;

    /**
     * Run one consolidation pass: up to maxSwapsPerInterval hot
     * frames resident on cold ranks are swapped onto the hot-rank
     * set.  Appends the decided swaps (already applied to the remap
     * table) to `out`.
     */
    void runPass(std::vector<MigrationSwap> &out);

    /** Total frame swaps performed since construction/restore. */
    std::uint64_t swapsPerformed() const { return swaps_; }

    /** Frames currently remapped away from their source rank. */
    std::uint64_t remappedFrames() const;

    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint/restore (deterministic: map keys sorted). */
    void transfer(SectionIO &io);

  private:
    /** Direct-mapped hot-frame tracker entry (tag 0 = empty). */
    struct HotSlot
    {
        std::uint64_t tag = 0;   ///< frame key + 1
        std::uint32_t count = 0;
    };

    /** Source frame key including rank (counter-cache tag space). */
    std::uint64_t frameKey(const DecodedAddr &loc) const;
    /** Frame-position key without the rank (remap table index). */
    std::uint64_t posKey(std::uint32_t ch, std::uint32_t bank,
                         std::uint64_t row) const;

    /** Counter-cache count for a source frame, 0 when untracked. */
    std::uint32_t hotness(std::uint64_t key) const;

    std::uint64_t ranks_;
    std::uint64_t channels_;
    std::uint64_t banks_;
    IdleLadderConfig cfg_;

    std::vector<HotSlot> slots_;
    /**
     * Sparse per-frame rank permutation: posKey -> perm where
     * perm[sourceRank] = physicalRank.  Identity entries are erased,
     * so the table only holds frames that actually moved.
     */
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> perm_;
    /** Per-channel round-robin cursor over the hot-rank set. */
    std::vector<std::uint32_t> nextHot_;
    std::uint64_t swaps_ = 0;
};

} // namespace memscale

#endif // MEMSCALE_MEM_MIGRATION_HH

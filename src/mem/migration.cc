#include "mem/migration.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

namespace
{

/** splitmix64: deterministic, well-mixed slot index for a frame key. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::uint32_t MaxHotCount = 1u << 20;

} // namespace

PageMigrator::PageMigrator(const MemConfig &cfg)
    : ranks_(cfg.ranksPerChannel()), channels_(cfg.numChannels),
      banks_(cfg.banksPerRank), cfg_(cfg.ladder),
      slots_(static_cast<std::size_t>(cfg.ladder.counterSets) *
             cfg.numChannels),
      nextHot_(cfg.numChannels, 0)
{
    if (cfg_.counterSets == 0)
        fatal("PageMigrator: counterSets must be > 0");
    // A zero period would re-arm the pass at the same tick forever.
    if (cfg_.migrateInterval == 0)
        fatal("PageMigrator: migrateInterval must be > 0");
    if (cfg_.hotRanks == 0 || cfg_.hotRanks >= ranks_) {
        fatal("PageMigrator: hotRanks %u must be in [1, %llu)",
              cfg_.hotRanks,
              static_cast<unsigned long long>(ranks_));
    }
    if (ranks_ > 255)
        fatal("PageMigrator: rank permutation stored as u8");
}

std::uint64_t
PageMigrator::frameKey(const DecodedAddr &loc) const
{
    return posKey(loc.channel, loc.bank, loc.row) * ranks_ + loc.rank;
}

std::uint64_t
PageMigrator::posKey(std::uint32_t ch, std::uint32_t bank,
                     std::uint64_t row) const
{
    return (row * banks_ + bank) * channels_ + ch;
}

void
PageMigrator::noteAccess(const DecodedAddr &loc)
{
    const std::uint64_t key = frameKey(loc);
    const std::uint64_t idx = mix64(key) % slots_.size();
    HotSlot &s = slots_[idx];
    if (s.tag == key + 1) {
        s.count = std::min(s.count + 1, MaxHotCount);
    } else if (s.count > 0) {
        // Occupied by another frame: decay toward eviction so a
        // genuinely hotter frame eventually claims the slot.
        s.count -= 1;
    } else {
        s.tag = key + 1;
        s.count = 1;
    }
}

std::uint32_t
PageMigrator::remap(const DecodedAddr &loc) const
{
    auto it = perm_.find(posKey(loc.channel, loc.bank, loc.row));
    if (it == perm_.end())
        return loc.rank;
    return it->second[loc.rank];
}

std::uint32_t
PageMigrator::hotness(std::uint64_t key) const
{
    const HotSlot &s = slots_[mix64(key) % slots_.size()];
    return s.tag == key + 1 ? s.count : 0;
}

void
PageMigrator::runPass(std::vector<MigrationSwap> &out)
{
    // Slot scan order is the vector index: deterministic and
    // independent of unordered_map iteration order.
    std::vector<std::uint32_t> budget(channels_,
                                      cfg_.maxSwapsPerInterval);
    for (HotSlot &s : slots_) {
        if (s.tag == 0 || s.count < cfg_.hotThreshold)
            continue;
        const std::uint64_t key = s.tag - 1;
        const std::uint32_t src_rank =
            static_cast<std::uint32_t>(key % ranks_);
        std::uint64_t rest = key / ranks_;
        const std::uint32_t ch =
            static_cast<std::uint32_t>(rest % channels_);
        rest /= channels_;
        const std::uint32_t bank =
            static_cast<std::uint32_t>(rest % banks_);
        const std::uint64_t row = rest / banks_;
        if (budget[ch] == 0)
            continue;

        const std::uint64_t pk = posKey(ch, bank, row);
        auto it = perm_.find(pk);
        std::vector<std::uint8_t> ident;
        if (it == perm_.end()) {
            ident.resize(ranks_);
            for (std::uint64_t r = 0; r < ranks_; ++r)
                ident[r] = static_cast<std::uint8_t>(r);
        }
        std::vector<std::uint8_t> &p =
            it == perm_.end() ? ident : it->second;
        const std::uint32_t phys = p[src_rank];
        if (phys < cfg_.hotRanks) {
            // Already consolidated; done tracking this episode.
            s.count = 0;
            continue;
        }

        // Pick a hot physical rank round-robin and swap with the
        // source frame currently occupying it, unless that frame is
        // itself hot (then try the remaining hot ranks this pass).
        bool swapped = false;
        for (std::uint32_t t = 0; t < cfg_.hotRanks && !swapped;
             ++t) {
            const std::uint32_t hot =
                (nextHot_[ch] + t) % cfg_.hotRanks;
            std::uint32_t cohab = 0;
            for (std::uint64_t r = 0; r < ranks_; ++r) {
                if (p[r] == hot) {
                    cohab = static_cast<std::uint32_t>(r);
                    break;
                }
            }
            if (hotness(pk * ranks_ + cohab) >= cfg_.hotThreshold)
                continue;
            std::swap(p[src_rank], p[cohab]);
            nextHot_[ch] = (hot + 1) % cfg_.hotRanks;
            MigrationSwap sw;
            sw.channel = ch;
            sw.bank = bank;
            sw.row = row;
            sw.rankFrom = phys;
            sw.rankTo = hot;
            out.push_back(sw);
            swaps_ += 1;
            budget[ch] -= 1;
            swapped = true;
        }
        if (!swapped)
            continue;
        s.count = 0;

        bool identity = true;
        for (std::uint64_t r = 0; r < ranks_ && identity; ++r)
            identity = p[r] == r;
        if (it == perm_.end()) {
            if (!identity)
                perm_.emplace(pk, std::move(p));
        } else if (identity) {
            perm_.erase(it);
        }
    }
}

std::uint64_t
PageMigrator::remappedFrames() const
{
    std::uint64_t n = 0;
    for (const auto &kv : perm_) {
        for (std::uint64_t r = 0; r < ranks_; ++r)
            n += kv.second[r] != r;
    }
    return n;
}

void
PageMigrator::registerStats(StatRegistry &reg,
                            const std::string &prefix) const
{
    reg.addCounter(prefix + ".swaps", &swaps_);
    reg.addGauge(prefix + ".remappedFrames", [this] {
        return static_cast<double>(remappedFrames());
    });
}

void
PageMigrator::transfer(SectionIO &io)
{
    std::uint64_t nslots = slots_.size();
    io.expect("migrator counter slots", nslots);
    for (HotSlot &s : slots_) {
        io(s.tag);
        io(s.count);
    }
    // The remap table in key order: restore rebuilds the map, save
    // walks it sorted so the bytes never depend on hash order.
    std::vector<std::uint64_t> keys;
    for (const auto &kv : perm_)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    if (io.loading())
        perm_.clear();
    io.list<std::uint64_t>(keys, [&](std::uint64_t &k) {
        io(k);
        std::vector<std::uint8_t> &p = perm_[k];
        p.resize(ranks_);
        for (std::uint8_t &r : p)
            io(r);
    });
    for (std::uint32_t &c : nextHot_)
        io(c);
    io(swaps_);
}

} // namespace memscale

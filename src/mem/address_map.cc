#include "mem/address_map.hh"

#include <bit>

#include "common/log.hh"

namespace memscale
{

AddressMap::AddressMap(const MemConfig &cfg)
    : lineBytes_(cfg.lineBytes),
      channels_(cfg.numChannels),
      colLow_(cfg.colLowLines),
      banks_(cfg.banksPerRank),
      ranks_(cfg.ranksPerChannel()),
      colHigh_(cfg.linesPerRow() / cfg.colLowLines),
      rows_(cfg.rowsPerBank()),
      capacity_(cfg.totalBytes())
{
    if (channels_ == 0 || banks_ == 0 || ranks_ == 0 || rows_ == 0)
        fatal("AddressMap: degenerate memory configuration");
    if (cfg.linesPerRow() % colLow_ != 0)
        fatal("AddressMap: colLowLines must divide lines per row");
    const std::uint64_t factors[] = {lineBytes_, channels_, colLow_,
                                     banks_,     ranks_,    colHigh_};
    pow2_ = std::has_single_bit(capacity_) &&
            std::has_single_bit(rows_);
    for (unsigned i = 0; i < 6; ++i) {
        pow2_ = pow2_ && std::has_single_bit(factors[i]);
        shifts_[i] = static_cast<unsigned>(std::countr_zero(factors[i]));
    }
}

DecodedAddr
AddressMap::decode(Addr addr) const
{
    std::uint64_t line = (addr % capacity_) / lineBytes_;
    DecodedAddr loc;
    loc.channel = static_cast<std::uint32_t>(line % channels_);
    line /= channels_;
    std::uint64_t col_low = line % colLow_;
    line /= colLow_;
    loc.bank = static_cast<std::uint32_t>(line % banks_);
    line /= banks_;
    loc.rank = static_cast<std::uint32_t>(line % ranks_);
    line /= ranks_;
    std::uint64_t col_high = line % colHigh_;
    line /= colHigh_;
    loc.row = line % rows_;
    loc.column = col_high * colLow_ + col_low;
    return loc;
}

Addr
AddressMap::encode(const DecodedAddr &loc) const
{
    std::uint64_t col_high = loc.column / colLow_;
    std::uint64_t col_low = loc.column % colLow_;
    std::uint64_t line = loc.row;
    line = line * colHigh_ + col_high;
    line = line * ranks_ + loc.rank;
    line = line * banks_ + loc.bank;
    line = line * colLow_ + col_low;
    line = line * channels_ + loc.channel;
    return line * lineBytes_;
}

} // namespace memscale

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
AddressMap::decodePow2(Addr addr) const
{
    // Field for field the division chain below, with x % 2^k == x &
    // (2^k - 1) and x / 2^k == x >> k.
    auto take = [](std::uint64_t &line, unsigned bits) {
        std::uint64_t v = line & ((std::uint64_t(1) << bits) - 1);
        line >>= bits;
        return v;
    };
    std::uint64_t line = (addr & (capacity_ - 1)) >> shifts_[0];
    DecodedAddr loc;
    loc.channel = static_cast<std::uint32_t>(take(line, shifts_[1]));
    std::uint64_t col_low = take(line, shifts_[2]);
    loc.bank = static_cast<std::uint32_t>(take(line, shifts_[3]));
    loc.rank = static_cast<std::uint32_t>(take(line, shifts_[4]));
    std::uint64_t col_high = take(line, shifts_[5]);
    loc.row = line & (rows_ - 1);
    loc.column = (col_high << shifts_[2]) | col_low;
    return loc;
}

DecodedAddr
AddressMap::decode(Addr addr) const
{
    if (pow2_)
        return decodePow2(addr);
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

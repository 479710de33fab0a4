// Bank is header-only state; this translation unit anchors the class
// for the ms_dram library and hosts its checkpoint round-trip.
#include "dram/bank.hh"

#include "snapshot/serializer.hh"

namespace memscale
{

void
Bank::transfer(SectionIO &io)
{
    io.enumByte("bank row state", rowState_, RowState::Open);
    io(openRow_);
    io(readyAt_);
    io(lastActAt_);
    io(inService_);
}

} // namespace memscale

#include "mem/config.hh"

#include "snapshot/serializer.hh"

namespace memscale
{

void
IdleLadderConfig::fingerprint(SectionIO &io)
{
    io.expect("mem.ladder.demoteSlowPd", demoteSlowPd);
    io.expect("mem.ladder.demoteSelfRefresh", demoteSelfRefresh);
    io.expect("mem.ladder.demoteSrSlow", demoteSrSlow);
    io.expect("mem.ladder.demoteDeepPd", demoteDeepPd);
    io.expect("mem.ladder.migrate", migrate);
    io.expect("mem.ladder.migrateInterval", migrateInterval);
    io.expect("mem.ladder.hotRanks", hotRanks);
    io.expect("mem.ladder.hotThreshold", hotThreshold);
    io.expect("mem.ladder.maxSwapsPerInterval", maxSwapsPerInterval);
    io.expect("mem.ladder.migrationLines", migrationLines);
    io.expect("mem.ladder.counterSets", counterSets);
}

void
MemConfig::fingerprint(SectionIO &io)
{
    io.expect("mem.numChannels", numChannels);
    io.expect("mem.dimmsPerChannel", dimmsPerChannel);
    io.expect("mem.ranksPerDimm", ranksPerDimm);
    io.expect("mem.banksPerRank", banksPerRank);
    io.expect("mem.lineBytes", lineBytes);
    io.expect("mem.rowBytes", rowBytes);
    io.expect("mem.bytesPerRank", bytesPerRank);
    io.expect("mem.writeQueueDepth", writeQueueDepth);
    io.expect("mem.pagePolicy", pagePolicy);
    io.expect("mem.scheduler", scheduler);
    io.expect("mem.colLowLines", colLowLines);
    ladder.fingerprint(io);
}

} // namespace memscale

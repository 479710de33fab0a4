#include "workload/app_profile.hh"

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

namespace
{

double
averageRate(const AppProfile &p, std::uint64_t horizon, bool writes)
{
    if (p.phases.empty() || horizon == 0)
        return 0.0;
    double weighted = 0.0;
    std::uint64_t covered = 0;
    std::size_t i = 0;
    while (covered < horizon) {
        const AppPhase &ph = p.phases[i];
        std::uint64_t len = ph.instructions == 0
                                ? horizon - covered
                                : std::min<std::uint64_t>(
                                      ph.instructions,
                                      horizon - covered);
        weighted += (writes ? ph.wpki : ph.mpki) *
                    static_cast<double>(len);
        covered += len;
        if (ph.instructions == 0)
            break;
        ++i;
        if (i == p.phases.size()) {
            if (!p.loopPhases)
                break;
            i = 0;
        }
    }
    if (covered == 0)
        return 0.0;
    return weighted / static_cast<double>(covered);
}

} // namespace

double
AppProfile::averageMpki(std::uint64_t horizon) const
{
    return averageRate(*this, horizon, false);
}

double
AppProfile::averageWpki(std::uint64_t horizon) const
{
    return averageRate(*this, horizon, true);
}

void
AppProfile::fingerprint(SectionIO &io)
{
    io.expect("app.name", name);
    io.expectList("app.phases", phases, [&io](AppPhase &ph) {
        io.expect("app.phase.mpki", ph.mpki);
        io.expect("app.phase.wpki", ph.wpki);
        io.expect("app.phase.baseCpi", ph.baseCpi);
        io.expect("app.phase.streamFrac", ph.streamFrac);
        io.expect("app.phase.instructions", ph.instructions);
    });
    io.expect("app.footprintBytes", footprintBytes);
    io.expect("app.loopPhases", loopPhases);
}

} // namespace memscale

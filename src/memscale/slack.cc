#include "memscale/slack.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace memscale
{

void
SlackTracker::bankEpoch(const ProfileData &epoch, double cpu_ghz,
                        double cpu_ratio)
{
    if (epoch.cores.size() > slack_.size())
        panic("SlackTracker: banking %zu cores into %zu accounts",
              epoch.cores.size(), slack_.size());
    PerfModel model(cpu_ghz);
    model.calibrate(epoch);
    const double actual = tickToSec(epoch.windowLen);
    const double tpi_mem_nom = model.tpiMem(nominalFreqIndex);
    for (std::uint32_t c = 0; c < epoch.cores.size(); ++c) {
        if (!model.active(c))
            continue;
        double instr = static_cast<double>(model.instructions(c));
        double max_sec = instr * (model.tpiCpu(c) * cpu_ratio +
                                  model.alpha(c) * tpi_mem_nom);
        update(c, max_sec, actual);
    }
}

double
SlackTracker::minSlack() const
{
    double min_slack = std::numeric_limits<double>::infinity();
    for (double s : slack_)
        min_slack = std::min(min_slack, s);
    return slack_.empty() ? 0.0 : min_slack;
}

} // namespace memscale

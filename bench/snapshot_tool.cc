/**
 * @file
 * Checkpoint/restore command-line tool.
 *
 * Runs one mix under one policy, optionally cut and resumed, and
 * prints a machine-readable summary:
 *
 *     runtime <ticks>
 *     result_hash 0x<16 hex digits>
 *     checkpoint <path>          (when the cut was reached)
 *     stopped_at_checkpoint 1    (when the run stopped there)
 *
 * The cut flags are this tool's own: checkpoint-at=<ms> writes one
 * snapshot to checkpoint-out=<path> at that tick, if the run is still
 * live then; checkpoint-stop=1 ends the run there; resume=<path>
 * continues a run from a snapshot.
 *
 * Modes:
 *   - plain run:     snapshot_tool mix=MID3 policy=memscale
 *   - cut + stop:    snapshot_tool checkpoint-at=0.4 \
 *                        checkpoint-out=/tmp/cut checkpoint-stop=1
 *   - resume:        snapshot_tool resume=/tmp/cut
 *   - inspect:       snapshot_tool meta=/tmp/cut
 *
 * The run uses a fixed rest-of-system wattage (rest=… , default 150 W)
 * instead of baseline calibration so a single invocation is one
 * deterministic simulation — which is what scripts/golden_bisect.py
 * needs to binary-search the first tick where two builds diverge.
 */

#include <cinttypes>
#include <cstdio>

#include "bench_common.hh"

#include "harness/cluster.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    cfg.mixName = conf.getString("mix", "MID3");
    const std::string policy = conf.getString("policy", "memscale");
    const double rest = conf.getDouble("rest", 150.0);

    const std::string meta_path = conf.getString("meta", "");
    const Tick cut_at = msToTick(
        conf.getDouble("checkpoint-at", 0.0, Config::Bound::NonNegative));
    const std::string out = conf.getString("checkpoint-out", "");
    const bool stop = conf.getBool("checkpoint-stop", false);
    cfg.resumePath = conf.getString("resume", "");
    conf.refuseUnread();

    if (!meta_path.empty()) {
        // Fleet snapshots carry a "cluster" section on top of the
        // per-server files; print its summary and stop.
        FleetMeta fm = readFleetMeta(meta_path);
        if (fm.valid) {
            std::printf("cluster 1\nservers %u\npolicy %s\n",
                        fm.numServers, fm.policy.c_str());
            std::printf("cap_w %.3f\ncoord_epoch %" PRIu64 "\n",
                        fm.capW, fm.coordEpoch);
            std::printf("epochs_done %u\n", fm.epochsDone);
            for (std::size_t k = 0; k < fm.budgetW.size(); ++k)
                std::printf("budget_w server%zu %.3f\n", k,
                            fm.budgetW[k]);
            std::printf("last_fleet_w %.3f\n", fm.lastFleetW);
            return 0;
        }
        SnapshotMeta m = readSnapshotMeta(meta_path);
        std::printf("mix %s\npolicy %s\nnow %" PRIu64 "\n",
                    m.mixName.c_str(), m.policyName.c_str(), m.now);
        std::printf("done_cores %u\npending_events %u\n", m.doneCores,
                    m.pendingEvents);
        std::printf("in_flight_requests %" PRIu64 "\n",
                    m.inFlightRequests);
        std::printf("ranks_powered_down %u\npending_relocks %u\n"
                    "pending_refreshes %u\npending_rank_closes %u\n",
                    m.ranksPoweredDown, m.pendingRelocks,
                    m.pendingRefreshes, m.pendingRankCloses);
        return 0;
    }

    if (cut_at > 0 && out.empty())
        fatal("snapshot_tool: checkpoint-at needs checkpoint-out");
    cfg.restWatts = rest;

    auto p = makePolicy(policy);
    System sys(cfg, *p);
    // A run that ends before the cut, or resumes past it, is not cut.
    const bool cut = cut_at > sys.now() && sys.advance(cut_at);
    if (cut)
        sys.checkpoint(out);
    if (!(cut && stop))
        sys.advance(cfg.maxSimTime);
    RunResult r = sys.finish();
    std::printf("mix %s\npolicy %s\n", r.mixName.c_str(),
                r.policyName.c_str());
    std::printf("runtime %" PRIu64 "\n", r.runtime);
    std::printf("result_hash 0x%016" PRIx64 "\n", hashRunResult(r));
    if (cut)
        std::printf("checkpoint %s\n", out.c_str());
    if (cut && stop)
        std::printf("stopped_at_checkpoint 1\n");
    return 0;
}

/**
 * @file
 * Per-core performance-slack accounting (paper Section 3.2, Eq. 1).
 *
 * Slack_i = accumulated (T_target - T_actual) where the target allows
 * each program gamma extra execution time over its predicted
 * maximum-frequency run.  Positive slack lets later epochs run slower;
 * negative slack (a missed target) must be repaid by running faster.
 */

#ifndef MEMSCALE_MEMSCALE_SLACK_HH
#define MEMSCALE_MEMSCALE_SLACK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "memscale/perf_model.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

class SlackTracker
{
  public:
    /**
     * Open one zero-slack account per core under bound `gamma`.  The
     * first call wins: once started, later calls are no-ops, so a
     * policy can call this at every decision point.
     */
    void
    start(std::size_t num_cores, double gamma)
    {
        if (started_)
            return;
        slack_.assign(num_cores, 0.0);
        gamma_ = gamma;
        started_ = true;
    }

    /**
     * End-of-epoch update: the core spent `actual_sec` of wall time
     * retiring work that would have taken `max_freq_sec` at nominal
     * frequency.
     */
    void
    update(std::uint32_t core, double max_freq_sec, double actual_sec)
    {
        slack_[core] += max_freq_sec * (1.0 + gamma_) - actual_sec;
    }

    /**
     * Bank one epoch (Eq. 1 + stage 4 of the epoch loop): estimate,
     * from the full-epoch counters, what each active core's work would
     * have cost at nominal frequency, and update() its account with
     * the epoch's wall time.  `cpu_ghz` is the nominal CPU clock;
     * `cpu_ratio` (current / nominal CPU clock) scales the measured
     * CPU share back to it.  Idle or finished cores bank nothing.
     */
    void bankEpoch(const ProfileData &epoch, double cpu_ghz,
                   double cpu_ratio = 1.0);

    /**
     * Feasibility of running the next epoch with per-instruction time
     * tpi_f when the nominal-frequency time would be tpi_max: running
     * a whole epoch of length epoch_sec at f is within target iff
     *
     *   tpi_f * (epoch_sec - slack) <= epoch_sec * tpi_max * (1+gamma)
     */
    bool
    feasible(std::uint32_t core, double tpi_f, double tpi_max,
             double epoch_sec) const
    {
        double budget = epoch_sec - slack_[core];
        if (budget <= 0.0)
            return true;   // stored slack already covers the epoch
        return tpi_f * budget <= epoch_sec * tpi_max * (1.0 + gamma_);
    }

    double slack(std::uint32_t core) const { return slack_[core]; }
    /** Tightest account (0 before start()). */
    double minSlack() const;
    double gamma() const { return gamma_; }
    std::size_t size() const { return slack_.size(); }

    /** Checkpoint/restore (bit-exact account balances). */
    void
    transfer(SectionIO &io)
    {
        io(gamma_);
        io(slack_);
        io(started_);
    }

  private:
    std::vector<double> slack_;
    double gamma_ = 0.10;
    bool started_ = false;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_SLACK_HH

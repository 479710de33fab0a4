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
#include "snapshot/serializer.hh"

namespace memscale
{

class SlackTracker
{
  public:
    void
    reset(std::size_t num_cores, double gamma)
    {
        slack_.assign(num_cores, 0.0);
        gamma_ = gamma;
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
    double gamma() const { return gamma_; }
    std::size_t size() const { return slack_.size(); }

    /** Checkpoint/restore (bit-exact account balances). */
    void
    transfer(SectionIO &io)
    {
        io(gamma_);
        io(slack_);
    }

  private:
    std::vector<double> slack_;
    double gamma_ = 0.10;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_SLACK_HH

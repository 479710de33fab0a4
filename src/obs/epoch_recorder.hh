/**
 * @file
 * Per-epoch time-series capture.
 *
 * At every epoch boundary the EpochRecorder appends one row to a
 * columnar in-memory buffer: the epoch envelope (interval, chosen bus
 * frequency, CPU clock, bus utilization), the policy's decision trail
 * (predicted vs. realized CPI, predicted energy, SER, minimum slack),
 * per-core CPI, and a snapshot of every stat registered in the run's
 * StatRegistry.  The schema is fixed at the first record; the buffer
 * is a flat vector of doubles (row-major), so recording an epoch is
 * one memcpy-sized append and exports are trivial column walks.
 *
 * Recording is entirely passive — it reads counters that the
 * simulation already maintains — so a run with a recorder attached is
 * bit-identical to one without (pinned by test_golden).
 */

#ifndef MEMSCALE_OBS_EPOCH_RECORDER_HH
#define MEMSCALE_OBS_EPOCH_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/stat_registry.hh"

namespace memscale
{

class SectionIO;

/** Trace/track metadata the exporters need about the simulated box. */
struct ObsMeta
{
    std::uint32_t numCores = 0;
    std::uint32_t numChannels = 0;
    std::uint32_t ranksPerChannel = 0;
    std::vector<std::string> coreNames;  ///< app per core (optional)
    std::string label;                   ///< e.g. "MID3/memscale"
};

/** One epoch as the epoch controller measured it. */
struct EpochRecord
{
    Tick start = 0;
    Tick end = 0;
    std::uint32_t busMHz = 0;          ///< frequency chosen this epoch
    double cpuGHz = 0.0;               ///< core clock this epoch
    std::vector<double> coreCpi;       ///< measured CPI over the epoch
    double channelUtil = 0.0;          ///< mean data-bus utilization
};

/**
 * A dynamic policy's predictions for one epoch, the recorder's
 * decision-trail columns (PolicyDecision adds the chosen frequency).
 * `valid` is false for policies that make no prediction.
 */
struct DecisionTrail
{
    bool valid = false;
    double predictedCpi = 0.0;  ///< mean predicted CPI at the chosen f
    double predictedMemJ = 0.0; ///< predicted memory energy (J)
    double predictedSysJ = 0.0; ///< predicted system energy (J)
    double ser = 1.0;           ///< system energy ratio vs. nominal
    double minSlack = 0.0;      ///< tightest per-core slack (s)
};

class EpochRecorder
{
  public:
    /**
     * @param reg optional registry snapshotted into every row.  Only
     *            dereferenced inside record(); exporters never touch
     *            it, so it may die once the run is over (detach() for
     *            belt and braces).
     */
    explicit EpochRecorder(const StatRegistry *reg = nullptr)
        : reg_(reg)
    {
    }

    void setMeta(ObsMeta meta) { meta_ = std::move(meta); }
    const ObsMeta &meta() const { return meta_; }

    /** Append one epoch row.  The schema locks in on the first call. */
    void record(const EpochRecord &e, const DecisionTrail &d = {});

    /** Forget the registry pointer (call when the run tears down). */
    void detach() { reg_ = nullptr; }

    /// @name Columnar access.
    /// @{
    std::size_t epochs() const
    {
        return ncols_ ? data_.size() / ncols_ : 0;
    }
    std::size_t columns() const { return ncols_; }
    const std::vector<std::string> &columnNames() const
    {
        return names_;
    }
    /** Index of a named column, or npos when absent. */
    std::size_t columnIndex(const std::string &name) const;
    static constexpr std::size_t npos = ~std::size_t(0);

    double at(std::size_t row, std::size_t col) const;
    /** Copy of one column; fatal() on unknown names. */
    std::vector<double> column(const std::string &name) const;
    /// @}

    /// @name Exporters.
    /// @{
    /** One header row of column names, then one row per epoch. */
    std::string toCsv() const;
    /** {"label":…, "columns":[…], "rows":[[…],…]} */
    std::string toJson() const;
    bool writeCsv(const std::string &path) const;
    bool writeJson(const std::string &path) const;
    /// @}

    /** Checkpoint/restore: schema + recorded rows (meta and registry
     * binding come from the resumed run's configuration). */
    void transfer(SectionIO &io);

  private:
    const StatRegistry *reg_;
    ObsMeta meta_;
    std::vector<std::string> names_;
    std::vector<double> data_;       ///< row-major, epochs() x ncols_
    std::size_t ncols_ = 0;
    std::vector<double> scratch_;    ///< registry snapshot staging
};

} // namespace memscale

#endif // MEMSCALE_OBS_EPOCH_RECORDER_HH

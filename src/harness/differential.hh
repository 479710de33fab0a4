/**
 * @file
 * Differential self-checking harness.
 *
 * Runs the same System configuration under two implementations that
 * must agree bit-for-bit and diffs every observable field:
 *
 *  - kernelDiff(): production slab event kernel (KernelMode::Fast)
 *    vs. the sorted-list reference oracle (KernelMode::Reference);
 *  - sweepDiff(): the sweep engine at jobs=1 vs. jobs=N over the same
 *    case list (catches latent RNG/thread coupling).
 *
 * End-of-run counters, energy categories, per-core CPI, and the
 * per-epoch frequency-decision timeline are compared field-by-field;
 * a mismatch names the first differing fields with both values.  The
 * same flattening feeds StateHasher, so a whole run compresses to one
 * uint64_t for golden tests (hashRunResult / hashComparison).
 */

#ifndef MEMSCALE_HARNESS_DIFFERENTIAL_HH
#define MEMSCALE_HARNESS_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"

namespace memscale
{

/** One field whose value differs between the two runs. */
struct FieldDiff
{
    std::string field;
    std::string a;
    std::string b;
};

/** Outcome of diffing two runs. */
struct DiffReport
{
    std::string label;             ///< e.g. "kernel:MID1/memscale"
    std::vector<FieldDiff> diffs;  ///< empty when the runs agree
    std::uint64_t hashA = 0;
    std::uint64_t hashB = 0;

    bool identical() const { return diffs.empty() && hashA == hashB; }

    /** Multi-line human-readable summary (first few diffs). */
    std::string str(std::size_t max_fields = 8) const;
};

/**
 * Flatten a run to (label, exact-value-string) pairs in a fixed
 * order.  Doubles are rendered with %a so the representation is
 * lossless; this sequence is the single source of truth for both
 * diffing and hashing.
 */
std::vector<std::pair<std::string, std::string>>
flattenRunResult(const RunResult &r);

/** Field-by-field diff of two runs. */
DiffReport diffRunResults(std::string label, const RunResult &a,
                          const RunResult &b);

/** Diff of two baseline-vs-policy comparisons (base + policy runs). */
DiffReport diffComparisons(std::string label, const ComparisonResult &a,
                           const ComparisonResult &b);

/** Deterministic 64-bit digest of a run's observable state. */
std::uint64_t hashRunResult(const RunResult &r);

/** Digest of a comparison (both runs + savings metrics). */
std::uint64_t hashComparison(const ComparisonResult &c);

class DifferentialHarness
{
  public:
    /** @param jobs worker count for the parallel side of sweepDiff
     *         (0 resolves via resolveJobs()). */
    explicit DifferentialHarness(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Run cfg under `policy` (baseline + policy, via compare()) with
     * the Fast kernel and again with the Reference kernel; diff.
     */
    DiffReport kernelDiff(SystemConfig cfg, const std::string &policy);

    /** compareCases() at jobs=1 vs jobs=N; one report per case. */
    std::vector<DiffReport>
    sweepDiff(const std::vector<SweepCase> &cases);

    /**
     * Stock self-check used by the bench drivers' --check flag:
     * kernelDiff on cfg/memscale plus a small sweepDiff across
     * policies.  Returns every report; all must be identical().
     */
    std::vector<DiffReport> runAll(const SystemConfig &cfg);

  private:
    unsigned jobs_;
};

/**
 * Convenience for drivers: run runAll(), print a PASS/FAIL line per
 * report to stderr, return the number of failing reports.
 */
std::size_t runSelfCheck(const SystemConfig &cfg, unsigned jobs = 0);

} // namespace memscale

#endif // MEMSCALE_HARNESS_DIFFERENTIAL_HH

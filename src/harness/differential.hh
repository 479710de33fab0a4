/**
 * @file
 * Differential self-checking harness.
 *
 * sweepDiff() runs the same case list through the sweep engine at
 * jobs=1 and at jobs=N, which must agree bit-for-bit (catches latent
 * RNG/thread coupling), and diffs every observable field.  End-of-run
 * counters, energy categories, per-core CPI, and the per-epoch
 * frequency-decision timeline are compared field-by-field; a mismatch
 * names the first differing fields with both values.  The same
 * flattening feeds StateHasher, so a whole run compresses to one
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
    std::string label;             ///< e.g. "sweep[0]:MID1/memscale"
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

/**
 * compareCases() at jobs=1 vs jobs=N (0 resolves via resolveJobs()),
 * one report per case.
 */
std::vector<DiffReport> sweepDiff(const std::vector<SweepCase> &cases,
                                  unsigned jobs = 0);

/**
 * Stock self-check behind the bench drivers' --check flag: sweepDiff
 * of cfg under memscale and fastpd.  Prints a PASS/FAIL line per
 * report to stderr and returns the number of failing reports.
 */
std::size_t runSelfCheck(const SystemConfig &cfg, unsigned jobs = 0);

} // namespace memscale

#endif // MEMSCALE_HARNESS_DIFFERENTIAL_HH

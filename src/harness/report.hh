/**
 * @file
 * Plain-text table rendering for the bench binaries, so every figure
 * and table of the paper prints as aligned rows/series.
 */

#ifndef MEMSCALE_HARNESS_REPORT_HH
#define MEMSCALE_HARNESS_REPORT_HH

#include <string>
#include <vector>

#include "power/system_power.hh"

namespace memscale
{

class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /**
     * Render with aligned columns to stdout.  If the environment
     * variable MEMSCALE_CSV_DIR is set, the table is also written as
     * <dir>/<csvSlug(title)>.csv for plotting; when two tables in the
     * same process slugify to the same name, later ones get a "-2",
     * "-3", ... suffix instead of silently overwriting the first.
     */
    void print(const std::string &title = "") const;

    /**
     * Serialize as RFC-4180-ish CSV.  A non-empty title becomes the
     * first line, escaped like any other cell (titles routinely
     * contain commas and quotes — "Fig. 5: mem 17-71%, sys 6-31%").
     */
    std::string toCsv(const std::string &title = "") const;

    /** Write CSV to an explicit path. */
    void writeCsv(const std::string &path,
                  const std::string &title = "") const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Filesystem-safe slug of a table title: lower-cased alphanumeric
 * runs joined by single dashes ("Fig. 5: energy" -> "fig-5-energy").
 * Never empty — an all-punctuation or empty title slugs to "table".
 */
std::string csvSlug(const std::string &title);

/** Format helpers. */
std::string fmt(double v, int precision = 2);
std::string pct(double fraction, int precision = 1);
std::string joules(double j);

} // namespace memscale

#endif // MEMSCALE_HARNESS_REPORT_HH

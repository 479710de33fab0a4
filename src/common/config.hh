/**
 * @file
 * Minimal key=value configuration store for examples and benches, and
 * the one list of environment switches.
 *
 * Keys come from the command line only; a key absent there takes the
 * default its reader passes.  Every argument must be `key=value`,
 * `--key=value`, `--key value` or a bare `--flag` (meaning "1"), and a
 * program calls refuseUnread() once it has read its keys, so a
 * misspelled or unsupported key stops the run instead of leaving a
 * default in place.  The read calls themselves are the list of keys a
 * program accepts.
 *
 * The environment is read through envSwitch() alone, and only for the
 * MEMSCALE_* names in envSwitchNames.
 */

#ifndef MEMSCALE_COMMON_CONFIG_HH
#define MEMSCALE_COMMON_CONFIG_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace memscale
{

class Config
{
  public:
    /**
     * The range a numeric getter enforces: a value outside it is
     * fatal() naming the key.  Both bounds also refuse a non-finite
     * double, so a duration never wraps into a huge tick count.
     */
    enum class Bound { Any, NonNegative, Positive };

    Config() = default;

    /**
     * Parse argv[1..]: `key=value`, `--key=value`, `--key value` (the
     * next argument is the value unless it contains '=' or starts with
     * "--") and a bare `--flag`, which sets the key to "1".  Any other
     * argument is fatal.  A repeated key keeps its last value.
     */
    void parseArgs(int argc, char **argv);

    /** Explicitly set a key. */
    void set(const std::string &key, const std::string &value);

    /** True when the key was given.  Counts as a read of the key. */
    bool has(const std::string &key) const;

    /**
     * Typed getters: the given value, else `def`.  Numbers must parse
     * whole (integers in base 10) and lie within `bound`, or fatal()
     * names the key.
     */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def,
                        Bound bound = Bound::Any) const;
    double getDouble(const std::string &key, double def,
                     Bound bound = Bound::Any) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Comma-separated list (empty elements skipped), looked up like
     * getString.  T is std::string, std::int64_t or double; numeric
     * elements get getInt/getDouble's strict check.
     */
    template <typename T>
    std::vector<T> getList(const std::string &key,
                           const std::string &def) const;

    /**
     * fatal() naming the first given key that no getter or has() has
     * read, and listing the keys that were read.  Call it after the
     * program's last read.
     */
    void refuseUnread() const;

  private:
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
};

/**
 * The environment switches: the only MEMSCALE_* variables any program
 * of this project reads.  The library reads JOBS (default sweep
 * workers), STRICT (abort on a protocol violation) and CSV_DIR (also
 * write every printed table as CSV there); the golden tests read
 * REGEN_GOLDENS and scripts/perf_compare.py reads PERF.
 */
enum class EnvSwitch { Jobs, Strict, CsvDir, RegenGoldens, Perf };

inline constexpr std::array<const char *, 5> envSwitchNames = {
    "MEMSCALE_JOBS", "MEMSCALE_STRICT", "MEMSCALE_CSV_DIR",
    "MEMSCALE_REGEN_GOLDENS", "MEMSCALE_PERF"};

/** The switch's value, or nullptr when it is unset or empty. */
const char *envSwitch(EnvSwitch s);

/**
 * fatal() naming the first MEMSCALE_* variable in the environment that
 * is not in envSwitchNames: driver keys are set on the command line.
 */
void refuseUnknownEnvSwitches();

/** "a, b, c": the accepted names a refusal lists. */
template <typename Names>
std::string
joined(const Names &names)
{
    std::string out;
    for (const auto &n : names)
        out += (out.empty() ? "" : ", ") + std::string(n);
    return out;
}

} // namespace memscale

#endif // MEMSCALE_COMMON_CONFIG_HH

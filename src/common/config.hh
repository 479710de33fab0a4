/**
 * @file
 * Minimal key=value configuration store for examples and benches.
 *
 * Values come, in increasing precedence, from programmatic defaults,
 * `MEMSCALE_*` environment variables, and `key=value` command-line
 * arguments.  This keeps every bench/example runnable with no
 * arguments while letting users sweep parameters without recompiling.
 */

#ifndef MEMSCALE_COMMON_CONFIG_HH
#define MEMSCALE_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace memscale
{

class Config
{
  public:
    Config() = default;

    /**
     * Parse argv entries of the form key=value, --key=value, or
     * --key value.  Other entries are ignored (so google-benchmark
     * flags pass through).
     */
    void parseArgs(int argc, char **argv);

    /** Explicitly set a key. */
    void set(const std::string &key, const std::string &value);

    /** True when the key is set via args or environment. */
    bool has(const std::string &key) const;

    /**
     * Typed getters.  Lookup order: explicit/args value, then the
     * environment variable MEMSCALE_<KEY> (upper-cased), then the
     * provided default.
     */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Comma-separated list (empty elements skipped), looked up like
     * getString.  T is std::string, std::int64_t or double; numeric
     * elements get getInt/getDouble's strict check.
     */
    template <typename T>
    std::vector<T> getList(const std::string &key,
                           const std::string &def) const;

  private:
    const char *envLookup(const std::string &key) const;

    std::map<std::string, std::string> values_;
};

} // namespace memscale

#endif // MEMSCALE_COMMON_CONFIG_HH

#include "common/config.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/log.hh"

extern char **environ;

namespace memscale
{

namespace
{

/**
 * Strict parse shared by the scalar and list getters: the whole string
 * must parse, or fatal() names the key.
 */
template <typename T>
T
parseValue(const std::string &key, const std::string &s)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return s;
    } else {
        constexpr bool real = std::is_same_v<T, double>;
        char *end = nullptr;
        T v;
        if constexpr (real)
            v = std::strtod(s.c_str(), &end);
        else
            v = std::strtoll(s.c_str(), &end, 10);
        if (end == s.c_str() || *end != '\0')
            fatal("config: key '%s' has non-%s value '%s'", key.c_str(),
                  real ? "numeric" : "integer", s.c_str());
        return v;
    }
}

/** parseValue, then fatal() naming the key if `bound` refuses it. */
template <typename T>
T
parseBounded(const std::string &key, const std::string &s,
             Config::Bound bound)
{
    const T v = parseValue<T>(key, s);
    const double d = static_cast<double>(v);
    if ((bound == Config::Bound::NonNegative &&
         !(std::isfinite(d) && d >= 0.0)) ||
        (bound == Config::Bound::Positive &&
         !(std::isfinite(d) && d > 0.0)))
        fatal("config: key '%s' must be %s, got '%s'", key.c_str(),
              bound == Config::Bound::Positive ? "positive"
                                               : "non-negative",
              s.c_str());
    return v;
}

} // namespace

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool dashed = std::strncmp(arg, "--", 2) == 0;
        const char *key = dashed ? arg + 2 : arg;
        const char *eq = std::strchr(key, '=');
        if (*key == '\0' || *key == '-' || eq == key || (!eq && !dashed))
            fatal("config: argument '%s' is not key=value, --key=value, "
                  "--key value or --flag",
                  arg);
        const char *value = "1";
        if (eq)
            value = eq + 1;
        else if (i + 1 < argc && !std::strchr(argv[i + 1], '=') &&
                 std::strncmp(argv[i + 1], "--", 2) != 0)
            value = argv[++i];
        values_[std::string(key, eq ? eq - key : std::strlen(key))] =
            value;
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    read_.insert(key);
    return values_.count(key) > 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    read_.insert(key);
    auto it = values_.find(key);
    return it != values_.end() ? it->second : def;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def,
               Bound bound) const
{
    const std::string s = getString(key, "");
    return s.empty() ? def : parseBounded<std::int64_t>(key, s, bound);
}

double
Config::getDouble(const std::string &key, double def, Bound bound) const
{
    const std::string s = getString(key, "");
    return s.empty() ? def : parseBounded<double>(key, s, bound);
}

bool
Config::getBool(const std::string &key, bool def) const
{
    std::string s = getString(key, "");
    if (s.empty())
        return def;
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    fatal("config: key '%s' has non-boolean value '%s'",
          key.c_str(), s.c_str());
}

template <typename T>
std::vector<T>
Config::getList(const std::string &key, const std::string &def) const
{
    const std::string s = getString(key, def);
    std::vector<T> out;
    for (std::size_t at = 0; at <= s.size();) {
        const std::size_t comma = std::min(s.find(',', at), s.size());
        if (comma > at)
            out.push_back(parseValue<T>(key, s.substr(at, comma - at)));
        at = comma + 1;
    }
    return out;
}

template std::vector<std::string>
Config::getList<std::string>(const std::string &, const std::string &) const;
template std::vector<std::int64_t>
Config::getList<std::int64_t>(const std::string &, const std::string &) const;
template std::vector<double>
Config::getList<double>(const std::string &, const std::string &) const;

void
Config::refuseUnread() const
{
    for (const auto &[key, value] : values_) {
        if (!read_.count(key))
            fatal("config: unknown key '%s' (this program reads: %s)",
                  key.c_str(), joined(read_).c_str());
    }
}

const char *
envSwitch(EnvSwitch s)
{
    const char *v =
        std::getenv(envSwitchNames[static_cast<std::size_t>(s)]);
    return v && *v ? v : nullptr;
}

void
refuseUnknownEnvSwitches()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "MEMSCALE_", 9) != 0)
            continue;
        const std::string name(*e, std::strcspn(*e, "="));
        if (std::find(envSwitchNames.begin(), envSwitchNames.end(),
                      name) == envSwitchNames.end())
            fatal("environment: %s is not a MEMSCALE_* switch (those "
                  "are %s); give driver keys on the command line",
                  name.c_str(), joined(envSwitchNames).c_str());
    }
}

} // namespace memscale

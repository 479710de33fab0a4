#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/log.hh"

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
            v = std::strtoll(s.c_str(), &end, 0);
        if (end == s.c_str() || *end != '\0')
            fatal("config: key '%s' has non-%s value '%s'", key.c_str(),
                  real ? "numeric" : "integer", s.c_str());
        return v;
    }
}

} // namespace

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        // GNU-style flags: `--key=value` and `--key value` are
        // accepted as synonyms for `key=value`.
        if (arg[0] == '-' && arg[1] == '-' && arg[2] != '\0') {
            const char *key = arg + 2;
            const char *eq = std::strchr(key, '=');
            if (eq && eq != key) {
                values_[std::string(key, eq - key)] =
                    std::string(eq + 1);
            } else if (!eq && i + 1 < argc &&
                       !std::strchr(argv[i + 1], '=')) {
                values_[key] = argv[++i];
            }
            continue;
        }
        const char *eq = std::strchr(arg, '=');
        if (!eq || eq == arg)
            continue;
        values_[std::string(arg, eq - arg)] = std::string(eq + 1);
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

const char *
Config::envLookup(const std::string &key) const
{
    std::string env = "MEMSCALE_";
    for (char c : key)
        env += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return std::getenv(env.c_str());
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0 || envLookup(key) != nullptr;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    if (it != values_.end())
        return it->second;
    if (const char *env = envLookup(key))
        return env;
    return def;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    const std::string s = getString(key, "");
    return s.empty() ? def : parseValue<std::int64_t>(key, s);
}

double
Config::getDouble(const std::string &key, double def) const
{
    const std::string s = getString(key, "");
    return s.empty() ? def : parseValue<double>(key, s);
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

} // namespace memscale

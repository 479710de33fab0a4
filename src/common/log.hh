/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * `fatal()` terminates on user error (bad configuration); `panic()`
 * aborts on internal invariant violations; `warn()` is a non-fatal
 * notice.  All accept printf-style formatting.
 */

#ifndef MEMSCALE_COMMON_LOG_HH
#define MEMSCALE_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace memscale
{

/** Non-fatal warning about questionable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** User-error exit: prints the message and throws FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal-bug abort: prints the message and aborts. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exception thrown by fatal() so tests can intercept user errors. */
struct FatalError
{
    std::string message;
};

} // namespace memscale

#endif // MEMSCALE_COMMON_LOG_HH

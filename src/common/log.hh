/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * `fatal()` terminates on user error (bad configuration); `panic()`
 * aborts on internal invariant violations; `warn()` is a non-fatal
 * notice.  All accept printf-style formatting.  A program's main
 * calls exitOnFatal() so that a fatal() it does not catch exits with
 * status 1.
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

/**
 * From now on, a fatal() (user error) that escapes main ends the
 * process with status 1 instead of an abort and a core dump; any other
 * uncaught exception still goes to the previous terminate handler.
 * The bench drivers (through benchConfig) and the examples call it
 * first thing.  Calling it again is a no-op.
 */
void exitOnFatal();

} // namespace memscale

#endif // MEMSCALE_COMMON_LOG_HH

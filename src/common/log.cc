#include "common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <exception>

namespace memscale
{

namespace
{

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(n > 0 ? n : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

/** The terminate handler exitOnFatal() replaced. */
std::terminate_handler previousTerminate = nullptr;

[[noreturn]] void
terminateOnFatal()
{
    if (std::exception_ptr e = std::current_exception()) {
        try {
            std::rethrow_exception(e);
        } catch (const FatalError &) {
            // fatal() has already printed the message.
            std::fflush(nullptr);
            // Sweep workers may still run: skip static destructors.
            std::_Exit(1);
        } catch (...) {
        }
    }
    if (previousTerminate)
        previousTerminate();
    std::abort();
}

} // namespace

void
exitOnFatal()
{
    if (std::get_terminate() != terminateOnFatal)
        previousTerminate = std::set_terminate(terminateOnFatal);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    throw FatalError{std::move(msg)};
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

} // namespace memscale

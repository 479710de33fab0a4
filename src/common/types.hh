/**
 * @file
 * Fundamental unit types shared by every MemScale subsystem.
 *
 * All simulated time is kept as an unsigned 64-bit count of picoseconds
 * (a `Tick`).  Picosecond resolution lets all ten DDR3 bus frequencies
 * (200..800 MHz), the doubled memory-controller clock, and the 4 GHz
 * CPU clock coexist without fractional cycles anywhere in the hot path.
 */

#ifndef MEMSCALE_COMMON_TYPES_HH
#define MEMSCALE_COMMON_TYPES_HH

#include <cstdint>

namespace memscale
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of cycles in some clock domain. */
using Cycles = std::uint64_t;

/** Physical memory address (byte granularity). */
using Addr = std::uint64_t;

/** Identifier of a CPU core. */
using CoreId = std::uint32_t;

/** Sentinel for "no tick"/"never". */
inline constexpr Tick MaxTick = ~Tick(0);

/** @name Time-unit literals (all convert to picosecond Ticks). */
/// @{
inline constexpr Tick tickPerPs = 1;
inline constexpr Tick tickPerNs = 1000;
inline constexpr Tick tickPerUs = 1000 * 1000;
inline constexpr Tick tickPerMs = 1000ull * 1000 * 1000;
inline constexpr Tick tickPerSec = 1000ull * 1000 * 1000 * 1000;

constexpr Tick
nsToTick(double ns)
{
    return static_cast<Tick>(ns * tickPerNs + 0.5);
}

constexpr Tick
usToTick(double us)
{
    return static_cast<Tick>(us * tickPerUs + 0.5);
}

constexpr Tick
msToTick(double ms)
{
    return static_cast<Tick>(ms * tickPerMs + 0.5);
}

constexpr double
tickToNs(Tick t)
{
    return static_cast<double>(t) / tickPerNs;
}

constexpr double
tickToUs(Tick t)
{
    return static_cast<double>(t) / tickPerUs;
}

constexpr double
tickToMs(Tick t)
{
    return static_cast<double>(t) / tickPerMs;
}

constexpr double
tickToSec(Tick t)
{
    return static_cast<double>(t) / tickPerSec;
}
/// @}

/** Period of a clock in ticks, rounded to the nearest picosecond. */
constexpr Tick
periodFromMHz(double mhz)
{
    return static_cast<Tick>(1.0e6 / mhz + 0.5);
}

/**
 * Energy bookkeeping is done in joules as doubles; simulated intervals
 * are short enough (tens of ms) that double precision is ample.
 */
using Joules = double;

/** Power in watts. */
using Watts = double;

} // namespace memscale

#endif // MEMSCALE_COMMON_TYPES_HH

/**
 * @file
 * Deterministic state hashing for golden-value regression tests.
 *
 * A StateHasher folds an *ordered* sequence of labelled scalars into a
 * single 64-bit FNV-1a digest, so an entire run's observable state
 * (counters, energy categories, per-epoch decisions) compresses to one
 * `uint64_t` golden per scenario.  Labels are hashed along with the
 * values, so reordering, dropping, or renaming a field changes the
 * digest — exactly the property a golden test wants.
 *
 * Doubles are hashed by bit pattern (after normalizing -0.0 to 0.0),
 * making the digest sensitive to any last-ulp numerical drift.  That
 * is deliberate: the harness guarantees bit-identical results across
 * sweep worker counts, snapshot cuts and resumes, and goldens pin
 * that guarantee.
 * Digests are stable across runs on one toolchain/platform; regenerate
 * them when the compiler or math library changes (see DESIGN.md).
 */

#ifndef MEMSCALE_CHECK_STATE_HASH_HH
#define MEMSCALE_CHECK_STATE_HASH_HH

#include <cstdint>
#include <cstring>
#include <string_view>

namespace memscale
{

class StateHasher
{
  public:
    static constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t FnvPrime = 0x100000001b3ull;

    StateHasher &
    addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= FnvPrime;
        }
        return *this;
    }

    StateHasher &
    add(std::string_view label)
    {
        addBytes(label.data(), label.size());
        // Separator so "ab"+"c" and "a"+"bc" differ.
        const unsigned char sep = 0xff;
        return addBytes(&sep, 1);
    }

    StateHasher &
    add(std::string_view label, std::uint64_t v)
    {
        add(label);
        return addBytes(&v, sizeof(v));
    }

    StateHasher &
    add(std::string_view label, std::int64_t v)
    {
        return add(label, static_cast<std::uint64_t>(v));
    }

    StateHasher &
    add(std::string_view label, bool v)
    {
        return add(label, static_cast<std::uint64_t>(v));
    }

    StateHasher &
    add(std::string_view label, double v)
    {
        if (v == 0.0)
            v = 0.0;   // collapse -0.0 and +0.0
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(label);
        return addBytes(&bits, sizeof(bits));
    }

    StateHasher &
    add(std::string_view label, std::string_view v)
    {
        add(label);
        addBytes(v.data(), v.size());
        const unsigned char sep = 0xfe;
        return addBytes(&sep, 1);
    }

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = FnvOffset;
};

} // namespace memscale

#endif // MEMSCALE_CHECK_STATE_HASH_HH

/**
 * @file
 * Versioned binary snapshot container.
 *
 * A snapshot is a flat file of named, CRC-guarded sections:
 *
 *     [magic u64]["MSCLSNAP"] [version u32] [sectionCount u32]
 *     per section:
 *         [nameLen u32][name bytes]
 *         [payloadLen u64][payload bytes]
 *         [crc32 u32]            (over the payload only)
 *
 * Every scalar is little-endian (asserted at build time); doubles are
 * written by bit pattern so restore is bit-exact, never via text.
 * The container deliberately stores nothing environmental — no
 * timestamps, hostnames, or paths — so two runs that reach the same
 * simulated state produce byte-identical snapshot files.  That
 * property is what lets the sweep tests compare snapshots across
 * thread counts, and what lets scripts/golden_bisect.py diff
 * checkpoints between two builds.
 *
 * Versioning policy: `snapshotVersion` bumps on any layout change;
 * readers reject other versions outright (a checkpoint is a cache of
 * a computation, not an archival format — re-running the shard is
 * always possible and always correct).
 */

#ifndef MEMSCALE_SNAPSHOT_SERIALIZER_HH
#define MEMSCALE_SNAPSHOT_SERIALIZER_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace memscale
{

/** "MSCLSNAP" in little-endian byte order. */
inline constexpr std::uint64_t snapshotMagic = 0x50414e534c43534dull;
inline constexpr std::uint32_t snapshotVersion = 2;

/** CRC-32 (IEEE 802.3 polynomial, reflected). */
std::uint32_t crc32(const void *data, std::size_t n);

/** Append-only typed writer for one section's payload. */
class SectionWriter
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    void u8(std::uint8_t v) { bytes(&v, sizeof(v)); }
    void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    /** Bit-pattern write: restore is exact to the last ulp. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        bytes(v.data(), v.size());
    }

    const std::vector<std::uint8_t> &data() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Typed reader over one section's payload.  Reading past the end is
 * fatal (with the section name in the message) rather than silently
 * zero-filling: a short section means a format mismatch, and a
 * resumed run built on garbage state would be worse than no run.
 */
class SectionReader
{
  public:
    SectionReader(std::string name, const std::uint8_t *data,
                  std::size_t size)
        : name_(std::move(name)), data_(data), size_(size)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v;
        std::memcpy(&v, data_ + pos_, 4);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v;
        std::memcpy(&v, data_ + pos_, 8);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool b() { return u8() != 0; }

    std::string
    str()
    {
        std::uint32_t n = u32();
        need(n);
        std::string v(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return v;
    }

    std::size_t remaining() const { return size_ - pos_; }
    const std::string &name() const { return name_; }

  private:
    void need(std::size_t n);

    std::string name_;
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Builds a snapshot: named sections in creation order. */
class SnapshotWriter
{
  public:
    /** Create (or reopen for appending) the named section. */
    SectionWriter &section(const std::string &name);

    /** Full container bytes (magic + version + sections + CRCs). */
    std::vector<std::uint8_t> serialize() const;

    /** serialize() to a file; fatal on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, SectionWriter>> sections_;
};

/** @name PRNG position round-trip. */
/// @{
inline void
saveRng(SectionWriter &w, const Rng &rng)
{
    std::uint64_t st[Rng::StateWords];
    rng.getState(st);
    for (std::uint64_t word : st)
        w.u64(word);
}

inline void
restoreRng(SectionReader &r, Rng &rng)
{
    std::uint64_t st[Rng::StateWords];
    for (std::uint64_t &word : st)
        word = r.u64();
    rng.setState(st);
}
/// @}

/**
 * Parses a snapshot container.  Fatal on missing file, bad magic,
 * unsupported version, truncation, or CRC mismatch — a corrupt
 * checkpoint must never restore silently.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &path);
    explicit SnapshotReader(std::vector<std::uint8_t> bytes);

    bool has(const std::string &name) const;

    /** Reader over the named section's payload; fatal if absent. */
    SectionReader section(const std::string &name) const;

  private:
    void parse(const std::string &origin);

    std::vector<std::uint8_t> bytes_;
    /** name -> (offset, size) into bytes_. */
    std::map<std::string, std::pair<std::size_t, std::size_t>>
        sections_;
};

} // namespace memscale

#endif // MEMSCALE_SNAPSHOT_SERIALIZER_HH

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
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace memscale
{

/** "MSCLSNAP" in little-endian byte order. */
inline constexpr std::uint64_t snapshotMagic = 0x50414e534c43534dull;
inline constexpr std::uint32_t snapshotVersion = 6;

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

    /** Fatal, naming the section, unless every byte has been read. */
    void finish() const;

  private:
    void need(std::size_t n);

    std::string name_;
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * One field list for both directions of a snapshot section.
 *
 * A component's `transfer(SectionIO &io)` names each field once, in
 * file order: on save `io(x)` appends x, on restore it reads into x.
 * Work only a restore needs (re-binding pointers, recomputing derived
 * values, validation) goes in one `if (io.loading())` block after the
 * list.  The helpers keep a damaged file from restoring silently:
 *
 *  - expect() carries a config-fingerprint field, expectList() a
 *    fingerprinted list; a restored value that differs from the
 *    run's is fatal and names the field;
 *  - list() refuses a count larger than the bytes left before
 *    anything is allocated (every element takes at least one byte);
 *  - enumByte() refuses a byte past the enum's last value;
 *  - fail() is the restore-side fatal() for everything else, and
 *    every message names the section.
 *
 * Exact consumption is checked by SnapshotIO::section() (or
 * SectionReader::finish()) once the section's transfer returns.
 */
class SectionIO
{
  public:
    explicit SectionIO(SectionWriter &w) : w_(&w) {}

    /**
     * @param verify  false reads expect() fields into their arguments
     *                instead of checking them (snapshot inspection).
     */
    explicit SectionIO(SectionReader &r, bool verify = true)
        : r_(&r), verify_(verify)
    {}

    bool loading() const { return r_ != nullptr; }

    /** @name Raw ends, for interfaces that take them directly. */
    /// @{
    SectionWriter &writer() { return *w_; }
    SectionReader &reader() { return *r_; }
    /// @}

    void
    operator()(std::uint8_t &v)
    {
        if (r_)
            v = r_->u8();
        else
            w_->u8(v);
    }

    void
    operator()(std::uint32_t &v)
    {
        if (r_)
            v = r_->u32();
        else
            w_->u32(v);
    }

    void
    operator()(std::uint64_t &v)
    {
        if (r_)
            v = r_->u64();
        else
            w_->u64(v);
    }

    void
    operator()(double &v)
    {
        if (r_)
            v = r_->f64();
        else
            w_->f64(v);
    }

    void
    operator()(bool &v)
    {
        if (r_)
            v = r_->b();
        else
            w_->b(v);
    }

    void
    operator()(std::string &v)
    {
        if (r_)
            v = r_->str();
        else
            w_->str(v);
    }

    /** A vector is a u32-counted list of its elements. */
    template <typename T>
    void
    operator()(std::vector<T> &v)
    {
        list(v);
    }

    template <typename A, typename B>
    void
    operator()(std::pair<A, B> &p)
    {
        (*this)(p.first);
        (*this)(p.second);
    }

    /** PRNG position, word by word. */
    void
    operator()(Rng &rng)
    {
        std::uint64_t st[Rng::StateWords];
        if (!r_)
            rng.getState(st);
        for (std::uint64_t &word : st)
            (*this)(word);
        if (r_)
            rng.setState(st);
    }

    /**
     * List with an N-typed count, then `each(x)` per element.  On
     * restore the container is refilled with that many
     * value-initialised elements, once the count is known to fit in
     * the bytes left.
     */
    template <typename N = std::uint32_t, typename V, typename F>
    void
    list(V &v, F &&each)
    {
        auto n = static_cast<N>(v.size());
        (*this)(n);
        if (r_) {
            if (n > r_->remaining())
                fail("count %llu exceeds the %zu bytes left",
                     static_cast<unsigned long long>(n), r_->remaining());
            v.clear();
            v.resize(n);
        }
        for (auto &x : v)
            each(x);
    }

    template <typename N = std::uint32_t, typename V>
    void
    list(V &v)
    {
        list<N>(v, [this](auto &x) { (*this)(x); });
    }

    /** An enum stored as one byte, no greater than `last`. */
    template <typename E>
    void
    enumByte(const char *what, E &v, E last)
    {
        auto b = static_cast<std::uint8_t>(v);
        (*this)(b);
        if (r_ && b > static_cast<std::uint8_t>(last))
            fail("%s %u out of range", what, b);
        v = static_cast<E>(b);
    }

    /**
     * A config-fingerprint field.  Save writes `v`; restore reads the
     * stored value and, when verifying, is fatal naming `what` unless
     * it equals `v` — otherwise it adopts the stored value into `v`.
     * An enum travels as its underlying integer.
     */
    template <typename T>
    void
    expect(const char *what, T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            auto raw = static_cast<std::underlying_type_t<T>>(v);
            expect(what, raw);
            v = static_cast<T>(raw);
        } else if (!r_) {
            (*this)(v);
        } else {
            T got{};
            (*this)(got);
            if (!verify_)
                v = std::move(got);
            else if (!(got == v))
                mismatch(what, show(got), show(v));
        }
    }

    /**
     * A fingerprinted list: its length through expect(), then
     * `each(x)` per element, which expect()s the element's fields.
     * Adopting a length resizes `v`, once it is known to fit in the
     * bytes left.
     */
    template <typename V, typename F>
    void
    expectList(const char *what, V &v, F &&each)
    {
        auto n = static_cast<std::uint32_t>(v.size());
        expect(what, n);
        if (r_ && n > r_->remaining())
            fail("%s count %u exceeds the %zu bytes left", what, n,
                 r_->remaining());
        v.resize(n);
        for (auto &x : v)
            each(x);
    }

    /** Restore-side fatal(): the message names the section. */
    [[noreturn]] void fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    [[noreturn]] void mismatch(const char *what, const std::string &got,
                               const std::string &want) const;

    static std::string show(const std::string &v) { return "'" + v + "'"; }
    static std::string show(double v);

    template <typename T>
    static std::enable_if_t<std::is_integral_v<T>, std::string>
    show(T v)
    {
        return std::to_string(static_cast<std::uint64_t>(v));
    }

    template <typename T>
    static std::string
    show(const std::vector<T> &v)
    {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            s += (i ? ", " : "") + show(v[i]);
        return s + "]";
    }

    SectionWriter *w_ = nullptr;
    SectionReader *r_ = nullptr;
    bool verify_ = true;
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

/**
 * A whole snapshot in one direction, section by section: the same
 * list of section() calls writes a checkpoint and restores it.
 */
class SnapshotIO
{
  public:
    explicit SnapshotIO(SnapshotWriter &w) : w_(&w) {}
    explicit SnapshotIO(const SnapshotReader &r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    /**
     * Transfer section `name` through `fn(SectionIO &)`.  On restore
     * the section must exist and `fn` must consume it exactly.
     */
    template <typename F>
    void
    section(const std::string &name, F &&fn)
    {
        if (!r_) {
            SectionIO io(w_->section(name));
            fn(io);
            return;
        }
        SectionReader r = r_->section(name);
        SectionIO io(r);
        fn(io);
        r.finish();
    }

  private:
    SnapshotWriter *w_ = nullptr;
    const SnapshotReader *r_ = nullptr;
};

} // namespace memscale

#endif // MEMSCALE_SNAPSHOT_SERIALIZER_HH

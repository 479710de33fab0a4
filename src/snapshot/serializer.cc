#include "snapshot/serializer.hh"

#include <cstdarg>
#include <cstdio>

#include "common/log.hh"

namespace memscale
{

static_assert(sizeof(double) == 8, "snapshot format assumes 64-bit doubles");

namespace
{

struct CrcTable
{
    std::uint32_t t[256];

    CrcTable()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    static const CrcTable table;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table.t[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
SectionReader::need(std::size_t n)
{
    if (size_ - pos_ < n)
        fatal("snapshot section '%s': truncated (need %zu bytes at "
              "offset %zu of %zu)",
              name_.c_str(), n, pos_, size_);
}

void
SectionReader::finish() const
{
    if (pos_ != size_)
        fatal("%zu bytes left unread (snapshot section %s)",
              size_ - pos_, name_.c_str());
}

void
SectionIO::fail(const char *fmt, ...) const
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    fatal("%s (snapshot section %s)", buf,
          r_ ? r_->name().c_str() : "being written");
}

void
SectionIO::mismatch(const char *what, const std::string &got,
                    const std::string &want) const
{
    fatal("%s resume: snapshot %s %s does not match run %s",
          r_->name().c_str(), what, got.c_str(), want.c_str());
}

std::string
SectionIO::show(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

SectionWriter &
SnapshotWriter::section(const std::string &name)
{
    for (auto &[n, w] : sections_) {
        if (n == name)
            return w;
    }
    sections_.emplace_back(name, SectionWriter{});
    return sections_.back().second;
}

std::vector<std::uint8_t>
SnapshotWriter::serialize() const
{
    SectionWriter out;
    out.u64(snapshotMagic);
    out.u32(snapshotVersion);
    out.u32(static_cast<std::uint32_t>(sections_.size()));
    for (const auto &[name, w] : sections_) {
        out.str(name);
        const std::vector<std::uint8_t> &payload = w.data();
        out.u64(payload.size());
        out.bytes(payload.data(), payload.size());
        out.u32(crc32(payload.data(), payload.size()));
    }
    return out.data();
}

void
SnapshotWriter::writeFile(const std::string &path) const
{
    std::vector<std::uint8_t> bytes = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("snapshot: cannot open '%s' for writing", path.c_str());
    std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool flush_ok = std::fclose(f) == 0;
    if (wrote != bytes.size() || !flush_ok)
        fatal("snapshot: short write to '%s' (%zu of %zu bytes)",
              path.c_str(), wrote, bytes.size());
}

SnapshotReader::SnapshotReader(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("snapshot: cannot open '%s'", path.c_str());
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        fatal("snapshot: cannot stat '%s'", path.c_str());
    }
    bytes_.resize(static_cast<std::size_t>(size));
    std::size_t got = bytes_.empty()
                          ? 0
                          : std::fread(bytes_.data(), 1, bytes_.size(), f);
    std::fclose(f);
    if (got != bytes_.size())
        fatal("snapshot: short read from '%s' (%zu of %zu bytes)",
              path.c_str(), got, bytes_.size());
    parse(path);
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes))
{
    parse("<memory>");
}

void
SnapshotReader::parse(const std::string &origin)
{
    std::size_t pos = 0;
    auto need = [&](std::size_t n, const char *what) {
        if (bytes_.size() - pos < n)
            fatal("snapshot '%s': truncated reading %s (need %zu "
                  "bytes at offset %zu of %zu)",
                  origin.c_str(), what, n, pos, bytes_.size());
    };
    auto rd_u32 = [&](const char *what) {
        need(4, what);
        std::uint32_t v;
        std::memcpy(&v, bytes_.data() + pos, 4);
        pos += 4;
        return v;
    };
    auto rd_u64 = [&](const char *what) {
        need(8, what);
        std::uint64_t v;
        std::memcpy(&v, bytes_.data() + pos, 8);
        pos += 8;
        return v;
    };

    std::uint64_t magic = rd_u64("magic");
    if (magic != snapshotMagic)
        fatal("snapshot '%s': bad magic 0x%016llx (not a MemScale "
              "snapshot)",
              origin.c_str(), static_cast<unsigned long long>(magic));
    std::uint32_t version = rd_u32("version");
    if (version != snapshotVersion)
        fatal("snapshot '%s': unsupported version %u (this build "
              "reads version %u)",
              origin.c_str(), version, snapshotVersion);
    std::uint32_t count = rd_u32("section count");
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t name_len = rd_u32("section name length");
        need(name_len, "section name");
        std::string name(
            reinterpret_cast<const char *>(bytes_.data() + pos),
            name_len);
        pos += name_len;
        std::uint64_t len = rd_u64("section length");
        need(static_cast<std::size_t>(len), "section payload");
        std::size_t off = pos;
        pos += static_cast<std::size_t>(len);
        std::uint32_t stored = rd_u32("section CRC");
        std::uint32_t actual =
            crc32(bytes_.data() + off, static_cast<std::size_t>(len));
        if (stored != actual)
            fatal("snapshot '%s': section '%s' CRC mismatch "
                  "(stored 0x%08x, computed 0x%08x)",
                  origin.c_str(), name.c_str(), stored, actual);
        bool fresh =
            sections_
                .emplace(name,
                         std::make_pair(off,
                                        static_cast<std::size_t>(len)))
                .second;
        if (!fresh)
            fatal("snapshot '%s': duplicate section '%s'",
                  origin.c_str(), name.c_str());
    }
    if (pos != bytes_.size())
        fatal("snapshot '%s': %zu trailing bytes after last section",
              origin.c_str(), bytes_.size() - pos);
}

bool
SnapshotReader::has(const std::string &name) const
{
    return sections_.count(name) != 0;
}

SectionReader
SnapshotReader::section(const std::string &name) const
{
    auto it = sections_.find(name);
    if (it == sections_.end())
        fatal("snapshot: missing section '%s'", name.c_str());
    return SectionReader(name, bytes_.data() + it->second.first,
                         it->second.second);
}

} // namespace memscale

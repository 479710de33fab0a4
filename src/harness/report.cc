#include "harness/report.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <mutex>

#include "common/config.hh"
#include "common/log.hh"

namespace memscale
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(const std::string &title) const
{
    if (!title.empty())
        std::printf("\n== %s ==\n", title.c_str());
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_)
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i)
            std::printf("%-*s  ", static_cast<int>(widths[i]),
                        row[i].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    std::string rule(total, '-');
    std::printf("%s\n", rule.c_str());
    for (const auto &row : rows_)
        print_row(row);

    if (const char *dir = envSwitch(EnvSwitch::CsvDir)) {
        // Distinct titles can slugify identically ("Fig 5" and
        // "Fig: 5"), and several benches reuse generic titles;
        // suffix repeats instead of silently overwriting the
        // earlier dump.  The registry is per-process and keyed by
        // the full path, so parallel drivers in separate processes
        // (the normal bench setup) are unaffected.
        static std::mutex mu;
        static std::map<std::string, int> used;
        std::string base = std::string(dir) + "/" + csvSlug(title);
        std::string path;
        {
            std::lock_guard<std::mutex> lock(mu);
            int n = ++used[base];
            path = n == 1 ? base + ".csv"
                          : base + "-" + std::to_string(n) + ".csv";
        }
        writeCsv(path, title);
    }
}

std::string
csvSlug(const std::string &title)
{
    std::string slug;
    for (char c : title) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            slug += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!slug.empty() && slug.back() != '-')
            slug += '-';
    }
    while (!slug.empty() && slug.back() == '-')
        slug.pop_back();
    return slug.empty() ? "table" : slug;
}

namespace
{

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
Table::toCsv(const std::string &title) const
{
    std::string out;
    if (!title.empty())
        out += csvEscape(title) + '\n';
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                out += ',';
            out += csvEscape(row[i]);
        }
        out += '\n';
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
    return out;
}

void
Table::writeCsv(const std::string &path,
                const std::string &title) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("Table: cannot write CSV to '%s'", path.c_str());
        return;
    }
    std::string csv = toCsv(title);
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

std::string
joules(double j)
{
    char buf[64];
    if (j >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.3f J", j);
    else
        std::snprintf(buf, sizeof(buf), "%.3f mJ", j * 1e3);
    return buf;
}

} // namespace memscale

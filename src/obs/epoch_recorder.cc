#include "obs/epoch_recorder.hh"

#include <cstdio>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

namespace
{

/**
 * Shortest-round-trip formatting: %.17g preserves every double bit
 * pattern, so exported files are byte-identical across thread counts
 * whenever the underlying runs are (which the sweep engine
 * guarantees).
 */
std::string
fmtVal(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
writeFile(const std::string &path, const std::string &body,
          const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("EpochRecorder: cannot write %s to '%s'", what,
             path.c_str());
        return false;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return true;
}

} // namespace

void
EpochRecorder::record(const EpochRecord &e, const DecisionTrail &d)
{
    if (ncols_ == 0) {
        names_ = {"epoch",     "start_ms",   "end_ms",
                  "bus_mhz",   "cpu_ghz",    "channel_util",
                  "actual_cpi", "pred_cpi",  "pred_mem_j",
                  "pred_sys_j", "ser",       "min_slack"};
        for (std::size_t c = 0; c < e.coreCpi.size(); ++c)
            names_.push_back("core" + std::to_string(c) + ".cpi");
        if (reg_) {
            for (const std::string &n : reg_->names())
                names_.push_back(n);
        }
        ncols_ = names_.size();
    }

    const std::size_t fixed = 12 + e.coreCpi.size() +
                              (reg_ ? reg_->size() : 0);
    if (fixed != ncols_) {
        fatal("EpochRecorder: schema changed mid-run (%zu columns, "
              "expected %zu); register all stats before the first "
              "epoch",
              fixed, ncols_);
    }

    double actual = 0.0;
    for (double c : e.coreCpi)
        actual += c;
    if (!e.coreCpi.empty())
        actual /= static_cast<double>(e.coreCpi.size());

    data_.reserve(data_.size() + ncols_);
    data_.push_back(static_cast<double>(epochs()));
    data_.push_back(tickToMs(e.start));
    data_.push_back(tickToMs(e.end));
    data_.push_back(static_cast<double>(e.busMHz));
    data_.push_back(e.cpuGHz);
    data_.push_back(e.channelUtil);
    data_.push_back(actual);
    data_.push_back(d.valid ? d.predictedCpi : 0.0);
    data_.push_back(d.valid ? d.predictedMemJ : 0.0);
    data_.push_back(d.valid ? d.predictedSysJ : 0.0);
    data_.push_back(d.valid ? d.ser : 1.0);
    data_.push_back(d.valid ? d.minSlack : 0.0);
    for (double c : e.coreCpi)
        data_.push_back(c);
    if (reg_) {
        reg_->snapshot(scratch_);
        data_.insert(data_.end(), scratch_.begin(), scratch_.end());
    }
}

std::size_t
EpochRecorder::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return i;
    return npos;
}

double
EpochRecorder::at(std::size_t row, std::size_t col) const
{
    if (row >= epochs() || col >= ncols_)
        fatal("EpochRecorder: out-of-range access [%zu, %zu] of "
              "%zu x %zu",
              row, col, epochs(), ncols_);
    return data_[row * ncols_ + col];
}

std::vector<double>
EpochRecorder::column(const std::string &name) const
{
    std::size_t col = columnIndex(name);
    if (col == npos)
        fatal("EpochRecorder: unknown column '%s'", name.c_str());
    std::vector<double> out;
    out.reserve(epochs());
    for (std::size_t r = 0; r < epochs(); ++r)
        out.push_back(at(r, col));
    return out;
}

std::string
EpochRecorder::toCsv() const
{
    std::string out;
    for (std::size_t c = 0; c < names_.size(); ++c) {
        if (c)
            out += ',';
        out += names_[c];   // column names never contain , " or \n
    }
    out += '\n';
    for (std::size_t r = 0; r < epochs(); ++r) {
        for (std::size_t c = 0; c < ncols_; ++c) {
            if (c)
                out += ',';
            out += fmtVal(at(r, c));
        }
        out += '\n';
    }
    return out;
}

std::string
EpochRecorder::toJson() const
{
    std::string out = "{\n  \"label\": \"" + meta_.label + "\",\n";
    out += "  \"columns\": [";
    for (std::size_t c = 0; c < names_.size(); ++c) {
        if (c)
            out += ", ";
        out += '"' + names_[c] + '"';
    }
    out += "],\n  \"rows\": [\n";
    for (std::size_t r = 0; r < epochs(); ++r) {
        out += "    [";
        for (std::size_t c = 0; c < ncols_; ++c) {
            if (c)
                out += ", ";
            out += fmtVal(at(r, c));
        }
        out += r + 1 < epochs() ? "],\n" : "]\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
EpochRecorder::writeCsv(const std::string &path) const
{
    return writeFile(path, toCsv(), "epoch stats CSV");
}

bool
EpochRecorder::writeJson(const std::string &path) const
{
    return writeFile(path, toJson(), "epoch stats JSON");
}

void
EpochRecorder::transfer(SectionIO &io)
{
    io(names_);
    io(ncols_);
    io.list<std::uint64_t>(data_);
    if (io.loading() &&
        (ncols_ != names_.size() || (ncols_ && data_.size() % ncols_)))
        io.fail("recorder holds %zu values in %zu columns named %zu",
                data_.size(), ncols_, names_.size());
}

} // namespace memscale

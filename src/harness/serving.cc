#include "harness/serving.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "mem/controller.hh"
#include "obs/stat_registry.hh"
#include "sim/event_kinds.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

void
ServingOptions::fingerprint(SectionIO &io)
{
    io.expect("serving.enabled", enabled);
    arrival.fingerprint(io);
    io.expect("serving.missesPerRequest", missesPerRequest);
    io.expect("serving.horizon", horizon);
    io.expect("serving.maxQueue", maxQueue);
    io.expect("serving.sloP99Us", sloP99Us);
}

// ---------------------------------------------------------------------------
// ServingWorker
// ---------------------------------------------------------------------------

ServingWorker::ServingWorker(ServingFrontEnd &fe, CoreId id, Addr base,
                             std::uint64_t footprint_lines,
                             std::uint64_t rng_seed)
    : fe_(fe), id_(id), base_(base),
      footprintLines_(footprint_lines), rng_(rng_seed)
{
    if (footprintLines_ == 0)
        fatal("ServingWorker: zero footprint");
    streamLine_ = rng_.below(footprintLines_);
}

void
ServingWorker::setFrequencyGHz(double ghz)
{
    ghz_ = ghz;
    cpuPeriod_ = static_cast<Tick>(
        std::llround(static_cast<double>(tickPerSec) / (ghz * 1e9)));
    if (cpuPeriod_ == 0)
        cpuPeriod_ = 1;
}

Addr
ServingWorker::nextLineAddr()
{
    // Half streaming, half uniform within the worker's region — a
    // plain mixed access pattern with some row-buffer locality.
    std::uint64_t line;
    if (rng_.chance(0.5)) {
        streamLine_ = (streamLine_ + 1) % footprintLines_;
        line = streamLine_;
    } else {
        line = rng_.below(footprintLines_);
    }
    return base_ + line * fe_.mc_.config().lineBytes;
}

void
ServingWorker::beginRequest(Tick arrival, std::uint64_t misses)
{
    busy_ = true;
    reqArrival_ = arrival;
    missesLeft_ = misses;
    busyStart_ = fe_.eq_.now();
    scheduleCompute();
}

void
ServingWorker::scheduleCompute()
{
    // Compute segment before the next miss: servingInstrPerMiss
    // instructions at servingComputeCpi cycles each, at the current
    // core clock.
    const Tick gap = static_cast<Tick>(
        std::llround(static_cast<double>(servingInstrPerMiss) *
                     servingComputeCpi *
                     static_cast<double>(cpuPeriod_)));
    if (gap == 0) {
        issueMiss();
        return;
    }
    fe_.eq_.scheduleIn(gap, [this] { issueMiss(); },
                       EventClass::Hardware, {EvServeIssue, id_});
}

void
ServingWorker::issueMiss()
{
    retired_ += servingInstrPerMiss;
    ++tlm_;
    fe_.mc_.read(nextLineAddr(), id_, this);
}

void
ServingWorker::onMemComplete(Tick when, const MemRequest &req)
{
    (void)req;
    ++retired_;   // the missing load itself
    --missesLeft_;
    if (missesLeft_ > 0) {
        scheduleCompute();
        return;
    }
    busy_ = false;
    busyTime_ += when - busyStart_;
    fe_.onRequestDone(*this, when, reqArrival_);
}

void
ServingWorker::transfer(SectionIO &io)
{
    double ghz = ghz_;
    io(rng_);
    io(ghz);
    io(busy_);
    io(reqArrival_);
    io(missesLeft_);
    io(streamLine_);
    io(retired_);
    io(tlm_);
    io(busyTime_);
    io(busyStart_);
    if (!io.loading())
        return;
    if (!(ghz > 0.0) || !std::isfinite(ghz))
        io.fail("worker %u clock %g GHz is not a positive frequency", id_,
                ghz);
    setFrequencyGHz(ghz);
}

// ---------------------------------------------------------------------------
// ServingFrontEnd
// ---------------------------------------------------------------------------

ServingFrontEnd::ServingFrontEnd(EventQueue &eq, MemoryController &mc,
                                 const ServingOptions &opts,
                                 std::uint32_t num_workers,
                                 double cpu_ghz,
                                 std::uint64_t run_seed)
    : eq_(eq), mc_(mc), opts_(opts),
      gen_([&] {
          ArrivalConfig ac = opts.arrival;
          if (ac.seed == 0)
              ac.seed = deriveSeed(run_seed, 0xA11Au);
          return ac;
      }()),
      demandRng_(deriveSeed(run_seed, 0xDE3Au)),
      latUs_(0.0, latencyHistMaxUs, latencyHistBuckets),
      winUs_(0.0, latencyHistMaxUs, latencyHistBuckets)
{
    if (num_workers == 0)
        fatal("ServingFrontEnd: no workers");
    if (!(opts_.missesPerRequest >= 1.0))
        fatal("ServingFrontEnd: misses/request %g must be >= 1",
              opts_.missesPerRequest);
    if (opts_.horizon == 0)
        fatal("ServingFrontEnd: zero horizon");
    const std::uint64_t region =
        mc_.config().totalBytes() / num_workers;
    const std::uint64_t lines = region / mc_.config().lineBytes;
    workers_.reserve(num_workers);
    for (std::uint32_t i = 0; i < num_workers; ++i) {
        workers_.push_back(std::make_unique<ServingWorker>(
            *this, i, static_cast<Addr>(i) * region, lines,
            deriveSeed(run_seed, 0x5E54000ull + i)));
        workers_.back()->setFrequencyGHz(cpu_ghz);
    }
}

ServingFrontEnd::~ServingFrontEnd() = default;

void
ServingFrontEnd::start()
{
    scheduleNextArrival();
}

void
ServingFrontEnd::scheduleNextArrival()
{
    // Exactly one arrival event is ever pending; each one re-arms the
    // next, so a checkpoint carries at most one EvServeArrival and
    // the generator Rng sits exactly at the consumption point.
    const Tick when = gen_.next();
    if (when > opts_.horizon)
        return;
    eq_.schedule(std::max(when, eq_.now()), [this] { onArrival(); },
                 EventClass::Hardware, {EvServeArrival, 0});
}

void
ServingFrontEnd::noteQueuePeak()
{
    queuePeak_ = std::max<std::uint64_t>(queuePeak_, queue_.size());
}

void
ServingFrontEnd::onArrival()
{
    ++arrived_;
    // Demand is drawn at arrival time from a dedicated Rng, so a
    // request's size never depends on which worker it lands on.
    const QueuedRequest req{
        eq_.now(), demandRng_.geometric(1.0 / opts_.missesPerRequest)};

    // Lowest-index idle worker; deterministic dispatch.
    ServingWorker *idle = nullptr;
    for (auto &w : workers_) {
        if (!w->busy()) {
            idle = w.get();
            break;
        }
    }
    if (idle) {
        idle->beginRequest(req.arrival, req.misses);
    } else if (opts_.maxQueue > 0 &&
               queue_.size() >= opts_.maxQueue) {
        ++dropped_;
    } else {
        queue_.push_back(req);
        noteQueuePeak();
    }
    scheduleNextArrival();
}

void
ServingFrontEnd::onRequestDone(ServingWorker &w, Tick when,
                               Tick arrival)
{
    ++completed_;
    const double lat_us = tickToUs(when - arrival);
    latSumUs_ += lat_us;
    latMaxUs_ = std::max(latMaxUs_, lat_us);
    latUs_.add(lat_us);
    winUs_.add(lat_us);

    if (!queue_.empty()) {
        const QueuedRequest next = queue_.front();
        queue_.pop_front();
        w.beginRequest(next.arrival, next.misses);
    }
}

std::vector<MemClient *>
ServingFrontEnd::clients()
{
    std::vector<MemClient *> out;
    out.reserve(workers_.size());
    for (auto &w : workers_)
        out.push_back(w.get());
    return out;
}

std::vector<CpuSampler *>
ServingFrontEnd::samplers()
{
    std::vector<CpuSampler *> out;
    out.reserve(workers_.size());
    for (auto &w : workers_)
        out.push_back(w.get());
    return out;
}

TailWindow
ServingFrontEnd::tailWindow()
{
    TailWindow tw;
    tw.completions = winUs_.count();
    if (tw.completions > 0) {
        tw.p50Us = winUs_.percentile(0.50);
        tw.p99Us = winUs_.percentile(0.99);
        tw.p999Us = winUs_.percentile(0.999);
        // Mean from the bucket midpoints; exact enough for a policy
        // signal and avoids a second windowed sum to checkpoint.
        // Overflowed samples count at hi (they only push the signal
        // the safe way: toward "too slow").
        double sum = 0.0;
        const auto &b = winUs_.buckets();
        for (std::size_t i = 0; i < b.size(); ++i) {
            sum += static_cast<double>(b[i]) *
                   (winUs_.lo() +
                    winUs_.bucketWidth() * (static_cast<double>(i) + 0.5));
        }
        sum += static_cast<double>(winUs_.overflow()) * winUs_.hi();
        tw.meanUs = sum / static_cast<double>(tw.completions);
    }
    tw.queued = queue_.size();
    winUs_.reset();
    return tw;
}

ServingStats
ServingFrontEnd::stats(Tick end) const
{
    ServingStats s;
    s.valid = true;
    s.arrived = arrived_;
    s.completed = completed_;
    s.dropped = dropped_;
    s.queuedAtEnd = queue_.size();
    s.queuePeak = queuePeak_;
    for (const auto &w : workers_)
        s.inServiceAtEnd += w->busy() ? 1 : 0;
    const double sec = tickToSec(end);
    if (sec > 0.0) {
        s.offeredQps = static_cast<double>(arrived_) / sec;
        s.completedQps = static_cast<double>(completed_) / sec;
    }
    if (completed_ > 0) {
        s.meanUs = latSumUs_ / static_cast<double>(completed_);
        s.maxUs = latMaxUs_;
        s.p50Us = latUs_.percentile(0.50);
        s.p95Us = latUs_.percentile(0.95);
        s.p99Us = latUs_.percentile(0.99);
        s.p999Us = latUs_.percentile(0.999);
    }
    s.histOverflow = latUs_.overflow();
    return s;
}

void
ServingFrontEnd::registerStats(StatRegistry &reg,
                               const std::string &prefix)
{
    reg.addCounter(prefix + ".arrived", &arrived_);
    reg.addCounter(prefix + ".completed", &completed_);
    reg.addCounter(prefix + ".dropped", &dropped_);
    reg.addCounter(prefix + ".queuePeak", &queuePeak_);
    reg.addGauge(prefix + ".queueDepth", [this] {
        return static_cast<double>(queue_.size());
    });
    reg.addHistogram(prefix + ".latencyUs", &latUs_);
}

void
ServingFrontEnd::transfer(SectionIO &io)
{
    gen_.transfer(io);
    io(demandRng_);

    io(arrived_);
    io(completed_);
    io(dropped_);
    io(queuePeak_);
    io(latSumUs_);
    io(latMaxUs_);

    io.list(queue_, [&io](QueuedRequest &q) {
        io(q.arrival);
        io(q.misses);
    });

    auto hist = [&io](Histogram &h) {
        std::uint64_t under = h.underflow();
        std::uint64_t over = h.overflow();
        std::vector<std::uint64_t> counts = h.buckets();
        io(under);
        io(over);
        io(counts);
        if (!io.loading())
            return;
        if (counts.size() != h.buckets().size())
            io.fail("latency histogram of %zu buckets, configured for %zu",
                    counts.size(), h.buckets().size());
        h.setCounts(counts, under, over);
    };
    hist(latUs_);
    hist(winUs_);

    for (auto &wk : workers_)
        wk->transfer(io);
}

EventCallback
ServingFrontEnd::rebuildEvent(std::uint32_t kind, std::uint32_t owner)
{
    switch (kind) {
      case EvServeArrival:
        return [this] { onArrival(); };
      case EvServeIssue:
        if (owner >= workers_.size())
            fatal("resume: issue event owner %u out of range "
                  "(snapshot section sim)",
                  owner);
        return [w = workers_[owner].get()] { w->issueMiss(); };
      default:
        panic("ServingFrontEnd: cannot rebuild event kind %u (%s)",
              kind, eventKindName(kind));
    }
}

} // namespace memscale

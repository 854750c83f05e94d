#include "perfbench/harness.h"

#include "trace/metrics.h"

namespace occlum::perfbench {

namespace {

/** Ring size for traced legs; drain_if_full() folds it at half. */
constexpr size_t kTraceCapacity = 1 << 20;

} // namespace

Meter::Meter(bool traced) : traced_(traced), t_begin_(Clock::now())
{
    t_timed_ = t_end_ = t_begin_;
}

void
Meter::start_timed()
{
    // Counters cover the timed phase only.
    trace::Registry::instance().reset();
    t_timed_ = Clock::now();
    timed_ = true;
}

void
Meter::stop_timed()
{
    t_end_ = Clock::now();
    timed_ = false;
}

void
Meter::charge(Span span, double s)
{
    auto &spans = timed_ ? timed_spans_ : setup_spans_;
    spans[static_cast<size_t>(span)] += s;
}

void
Meter::leg_begin(const SimClock &clock)
{
    if (!traced_) {
        return;
    }
    auto &tracer = trace::Tracer::instance();
    tracer.bind_clock(&clock);
    tracer.enable(kTraceCapacity);
    leg_start_cycles_ = clock.cycles();
}

void
Meter::leg_end(const SimClock &clock)
{
    if (!traced_) {
        return;
    }
    auto &tracer = trace::Tracer::instance();
    tracer.disable();
    drain();
    tracer.bind_clock(nullptr);
    elapsed_cycles_ +=
        static_cast<double>(clock.cycles() - leg_start_cycles_);
}

void
Meter::drain_if_full()
{
    auto &tracer = trace::Tracer::instance();
    if (traced_ && tracer.enabled() &&
        tracer.recorded() >= tracer.capacity() / 2) {
        drain();
    }
}

void
Meter::drain()
{
    auto &tracer = trace::Tracer::instance();
    dropped_ += tracer.dropped();
    auto self = trace::self_cycles_by_category(tracer.events());
    for (size_t i = 0; i < self.size(); ++i) {
        self_cycles_[i] += static_cast<double>(self[i]);
    }
    tracer.clear();
}

} // namespace occlum::perfbench

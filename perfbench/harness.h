/**
 * @file
 * Shared pieces of the end-to-end benchmark: the per-iteration
 * outcome a workload returns, and the Meter that times the host-side
 * spans and drives the cycle tracer for the traced run.
 *
 * A workload is one function. It builds its binaries and boots its
 * systems (set-up), calls Meter::start_timed(), runs the timed phase,
 * and returns what it measured plus the output checks that failed.
 * Every call into a layer of the simulator goes through Meter::time()
 * so a traced run can split host time by layer without any hook
 * inside the simulator itself.
 */
#ifndef OCCLUM_PERFBENCH_HARNESS_H
#define OCCLUM_PERFBENCH_HARNESS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/sim_clock.h"
#include "trace/trace.h"

namespace occlum::perfbench {

/** Host-time spans, each around calls into one layer. */
enum class Span {
    kBuild,  // toolchain: workloads::build_program
    kBoot,   // libos/sgx/baseline: system construction, mkfs, install
    kRun,    // oskit: Kernel::spawn / run / step_round
    kClient, // host: NetSim calls made by the client driver
    kCount,
};

constexpr size_t kNumSpans = static_cast<size_t>(Span::kCount);

/** What one iteration of a workload produced. */
struct Outcome {
    /**
     * Simulated figures (end-to-end metrics, baselines, ratios): the
     * same inputs must give bit-identical values, traced or not.
     */
    std::map<std::string, double> sim;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Output checks that did not hold; any entry fails the run. */
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            errors.push_back(what);
        }
    }
};

/**
 * Times one iteration: the set-up/timed boundary, the layer spans,
 * and (traced iterations only) the simulated-cycle split of the legs
 * that model Occlum.
 */
class Meter
{
  public:
    explicit Meter(bool traced);

    /** Marks the end of set-up and the start of the timed phase. */
    void start_timed();
    /** Marks the end of the timed phase. */
    void stop_timed();

    double setup_s() const { return seconds(t_begin_, t_timed_); }
    double wall_s() const { return seconds(t_timed_, t_end_); }

    /**
     * Runs fn and, in a traced iteration, charges its host time to
     * `span` — to the set-up or the timed split, whichever phase is
     * current. Spans do not nest.
     */
    template <class F>
    decltype(auto)
    time(Span span, F &&fn)
    {
        if (!traced_) {
            return fn();
        }
        Stopwatch watch(*this, span);
        return fn();
    }

    /** Host seconds charged to a span in one phase. */
    double setup_span_s(Span span) const
    {
        return setup_spans_[static_cast<size_t>(span)];
    }
    double timed_span_s(Span span) const
    {
        return timed_spans_[static_cast<size_t>(span)];
    }

    /**
     * Bracket one leg whose simulated cycles the traced run splits
     * by category. Outside a traced iteration these do nothing.
     */
    void leg_begin(const SimClock &clock);
    void leg_end(const SimClock &clock);
    /** Fold retained events into the split if the ring is filling;
     *  call only between scheduler rounds (no span open). */
    void drain_if_full();

    /** Per-category self cycles summed over the traced legs. */
    const std::array<double, trace::kNumCategories> &
    self_cycles() const
    {
        return self_cycles_;
    }
    double elapsed_cycles() const { return elapsed_cycles_; }
    uint64_t dropped_events() const { return dropped_; }

  private:
    using Clock = std::chrono::steady_clock;

    class Stopwatch
    {
      public:
        Stopwatch(Meter &meter, Span span)
            : meter_(meter), span_(span), start_(Clock::now())
        {}
        ~Stopwatch()
        {
            meter_.charge(span_, seconds(start_, Clock::now()));
        }
        Stopwatch(const Stopwatch &) = delete;
        Stopwatch &operator=(const Stopwatch &) = delete;

      private:
        Meter &meter_;
        Span span_;
        Clock::time_point start_;
    };

    static double
    seconds(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double>(b - a).count();
    }

    void charge(Span span, double s);
    void drain();

    bool traced_;
    bool timed_ = false;
    Clock::time_point t_begin_, t_timed_, t_end_;
    std::array<double, kNumSpans> setup_spans_{};
    std::array<double, kNumSpans> timed_spans_{};

    uint64_t leg_start_cycles_ = 0;
    std::array<double, trace::kNumCategories> self_cycles_{};
    double elapsed_cycles_ = 0;
    uint64_t dropped_ = 0;
};

// ---- the four workloads -------------------------------------------

Outcome gcc_pipeline(uint64_t seed, Meter &meter);
Outcome spec_mmdsfi(uint64_t seed, Meter &meter);
Outcome web_proxy(uint64_t seed, Meter &meter);
Outcome encfs_io(uint64_t seed, Meter &meter);

} // namespace occlum::perfbench

#endif // OCCLUM_PERFBENCH_HARNESS_H

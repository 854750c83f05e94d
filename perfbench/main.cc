/**
 * @file
 * occbench: runs one workload of the end-to-end benchmark for a fixed
 * host-time budget and prints its metrics.
 *
 *   occbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--commit <id>]
 *
 * Every iteration rebuilds its inputs from the seed, boots fresh
 * systems (set-up) and runs the timed phase; wall_s and setup_s are
 * medians over the iterations. With --trace 1 the iterations
 * alternate untraced and traced: the traced ones split host time by
 * layer span and simulated cycles by tracer category, and the
 * untraced ones give the tracing overhead. Simulated figures must be
 * bit-identical across all iterations of a run, traced or not.
 *
 * The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * Exit status is 0 when the run completed (correct or not), 2 on a
 * usage or environment error.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/stats.h"
#include "perfbench/harness.h"
#include "trace/metrics.h"

using namespace occlum;
using namespace occlum::perfbench;

namespace {

struct WorkloadEntry {
    const char *name;
    Outcome (*run)(uint64_t seed, Meter &meter);
};

const WorkloadEntry kWorkloads[] = {
    {"gcc_pipeline", gcc_pipeline},
    {"spec_mmdsfi", spec_mmdsfi},
    {"web_proxy", web_proxy},
    {"encfs_io", encfs_io},
};

/** Environment knobs that would change what the simulator measures. */
const char *const kForbiddenEnv[] = {
    "OCCLUM_CORES", "OCCLUM_VM_SUPERBLOCK", "OCCLUM_FAULT_PLAN",
    "OCCLUM_ORDERLINESS", "OCCLUM_CRYPTO_REFERENCE",
};

/** Per-layer metrics of the traced run, in report order. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"toolchain.build_s", "s"},
    {"libos.boot_s", "s"},
    {"host.setup_untracked_s", "s"},
    {"trace.setup_s", "s"},
    {"oskit.run_s", "s"},
    {"net.client_s", "s"},
    {"host.untracked_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped_events", "count"},
    {"trace.conservation_gap", "cycles"},
    {"cycles.vm", "cycles"},
    {"cycles.sgx", "cycles"},
    {"cycles.libos", "cycles"},
    {"cycles.fs", "cycles"},
    {"cycles.ocall", "cycles"},
    {"cycles.sched", "cycles"},
    {"cycles.net", "cycles"},
    {"cycles.host", "cycles"},
    {"cycles.untracked", "cycles"},
    {"cycles.elapsed", "cycles"},
    {"vm.instructions", "count"},
    {"vm.host_mips", "Minstr/s"},
    {"vm.block_cache.hit_ratio", "ratio"},
    {"vm.block_cache.invalidations", "count"},
    {"vm.superblock.exec_hits", "count"},
    {"vm.superblock.promotions", "count"},
    {"toolchain.instr_ratio", "ratio"},
    {"sgx.eenter", "count"},
    {"sgx.aex", "count"},
    {"sgx.orderliness.violations", "count"},
    {"kernel.spawns", "count"},
    {"kernel.visits_per_round", "ratio"},
    {"kernel.epoll_waits", "count"},
    {"kernel.wakeups", "count"},
    {"kernel.wasted_retries", "count"},
    {"kernel.deferred_retries", "count"},
    {"kernel.steals", "count"},
    {"kernel.syscall_cycles.p99", "cycles"},
    {"kernel.core0.quanta", "count"},
    {"kernel.core1.quanta", "count"},
    {"kernel.core2.quanta", "count"},
    {"kernel.core3.quanta", "count"},
    {"net.connects", "count"},
    {"net.bytes_sent", "bytes"},
    {"encfs.cache_hit_ratio", "ratio"},
    {"encfs.evictions", "count"},
    {"encfs.readahead_blocks", "count"},
    {"encfs.dev_reads", "count"},
    {"encfs.dev_writes", "count"},
    {"encfs.io_retries", "count"},
    {"compile_ms", "ms"},
    {"linux_compile_ms", "ms"},
    {"eip_compile_ms", "ms"},
    {"occlum_vs_linux_x", "x"},
    {"occlum_vs_eip_x", "x"},
    {"rps", "1/s"},
    {"req_p50_us", "us"},
    {"req_p99_us", "us"},
    {"fail_ratio", "ratio"},
};

/**
 * Simulated figures of the workloads that BENCHMARK.json leaves out
 * (spec_mmdsfi, encfs_io): printed, but not per-layer metrics.
 */
const std::pair<const char *, const char *> kHandRunFigures[] = {
    {"mmdsfi_overhead_pct", "%"},
    {"read_mbps", "MB/s"},
    {"write_mbps", "MB/s"},
};

/** Unit of a simulated figure, by its name. */
const char *
unit_of(const std::string &name)
{
    for (const auto &[figure, unit] : kLayerMetrics) {
        if (name == figure) {
            return unit;
        }
    }
    for (const auto &[figure, unit] : kHandRunFigures) {
        if (name == figure) {
            return unit;
        }
    }
    return "ms"; // sim_ms, the one end-to-end simulated figure
}

/** One finished iteration. */
struct Sample {
    bool traced = false;
    double setup_s = 0;
    double wall_s = 0;
    Outcome out;
    /** Traced iterations: the per-layer figures it produced. */
    std::map<std::string, double> layer;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Counters and spans of a traced iteration, by per-layer name. */
std::map<std::string, double>
layer_figures(const Meter &meter, const Sample &sample)
{
    std::map<std::string, double> m;
    const auto &registry = trace::Registry::instance();
    double steals = 0;
    for (const auto &[name, counter] : registry.counters()) {
        double v = static_cast<double>(counter.value());
        m[name] = v;
        if (name.rfind("kernel.core", 0) == 0 &&
            name.size() > 7 &&
            name.compare(name.size() - 7, 7, ".steals") == 0) {
            steals += v;
        }
    }
    m["kernel.steals"] = steals;
    for (const auto &[name, hist] : registry.histograms()) {
        m[name + ".p99"] = hist.p99();
    }
    m["vm.block_cache.hit_ratio"] =
        ratio(m["vm.block_cache.hits"],
              m["vm.block_cache.hits"] + m["vm.block_cache.misses"]);
    m["encfs.cache_hit_ratio"] =
        ratio(m["encfs.cache_hits"],
              m["encfs.cache_hits"] + m["encfs.cache_misses"]);

    m["toolchain.build_s"] = meter.setup_span_s(Span::kBuild);
    m["libos.boot_s"] = meter.setup_span_s(Span::kBoot);
    m["trace.setup_s"] = sample.setup_s;
    m["host.setup_untracked_s"] =
        sample.setup_s - m["toolchain.build_s"] - m["libos.boot_s"];
    m["oskit.run_s"] = meter.timed_span_s(Span::kRun);
    m["net.client_s"] = meter.timed_span_s(Span::kClient);
    m["trace.wall_s"] = sample.wall_s;
    m["host.untracked_s"] =
        sample.wall_s - m["oskit.run_s"] - m["net.client_s"];
    m["vm.host_mips"] =
        ratio(m["vm.instructions"], m["oskit.run_s"]) / 1e6;

    double attributed = 0;
    for (size_t i = 0; i < trace::kNumCategories; ++i) {
        auto cat = static_cast<trace::Category>(i);
        m[std::string("cycles.") + trace::category_name(cat)] =
            meter.self_cycles()[i];
        attributed += meter.self_cycles()[i];
    }
    double elapsed = meter.elapsed_cycles();
    m["cycles.elapsed"] = elapsed;
    m["cycles.untracked"] = std::max(0.0, elapsed - attributed);
    m["trace.conservation_gap"] = std::max(0.0, attributed - elapsed);
    m["trace.dropped_events"] =
        static_cast<double>(meter.dropped_events());

    for (const auto &[name, value] : sample.out.sim) {
        m[name] = value;
    }
    return m;
}

Sample
run_iteration(const WorkloadEntry &workload, uint64_t seed, bool traced)
{
    Meter meter(traced);
    Sample sample;
    sample.traced = traced;
    sample.out = workload.run(seed, meter);
    sample.setup_s = meter.setup_s();
    sample.wall_s = meter.wall_s();
    if (traced) {
        sample.layer = layer_figures(meter, sample);
    }
    return sample;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: occbench --workload <gcc_pipeline|spec_mmdsfi|"
                 "web_proxy|encfs_io> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>]\n");
}

std::string
json_number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string commit = "unknown";
    uint64_t seed = 0;
    double budget_s = 0;
    int trace_mode = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            workload_name = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            budget_s = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            trace_mode = std::atoi(value);
        } else if (flag == "--commit") {
            commit = value;
        } else {
            usage();
            return 2;
        }
    }
    const WorkloadEntry *workload = nullptr;
    for (const WorkloadEntry &w : kWorkloads) {
        if (workload_name == w.name) {
            workload = &w;
        }
    }
    if (!workload || budget_s <= 0 || (trace_mode != 0 && trace_mode != 1) ||
        argc % 2 == 0) {
        usage();
        return 2;
    }
    for (const char *name : kForbiddenEnv) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "occbench: %s is set; the benchmark pins cores, "
                         "tiers, faults and crypto itself — unset it\n",
                         name);
            return 2;
        }
    }

    std::printf("meta: commit=%s build_type=%s compiler=%s "
                "sanitizers=%s nproc=%ld workload=%s seed=%" PRIu64
                " seconds=%g trace=%d\n",
                commit.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                PERFBENCH_SANITIZERS, sysconf(_SC_NPROCESSORS_ONLN),
                workload->name, seed, budget_s, trace_mode);

    // Iterate for the budget: at least three samples of each kind,
    // and no new iteration that would likely end past the budget.
    constexpr size_t kMinPerKind = 3;
    using Clock = std::chrono::steady_clock;
    auto t_start = Clock::now();
    std::vector<Sample> samples;
    size_t untraced = 0, traced = 0;
    for (;;) {
        bool do_trace = trace_mode == 1 && samples.size() % 2 == 1;
        samples.push_back(run_iteration(*workload, seed, do_trace));
        (do_trace ? traced : untraced) += 1;
        double elapsed =
            std::chrono::duration<double>(Clock::now() - t_start).count();
        double per_iter = elapsed / static_cast<double>(samples.size());
        bool enough = untraced >= kMinPerKind &&
                      (trace_mode == 0 || traced >= kMinPerKind);
        if (enough && elapsed + per_iter > budget_s) {
            break;
        }
    }

    // Correctness: every check of every iteration, and bit-identical
    // simulated figures across all iterations, traced or not.
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    const Outcome &first = samples.front().out;
    for (const Sample &s : samples) {
        attempted += s.out.attempted;
        failed += s.out.failed;
        for (const std::string &e : s.out.errors) {
            std::printf("check failed: %s\n", e.c_str());
            correct = false;
        }
        if (s.out.sim != first.sim) {
            std::printf("check failed: simulated figures differ between "
                        "iterations (%s vs %s)\n",
                        s.traced ? "traced" : "untraced",
                        samples.front().traced ? "traced" : "untraced");
            correct = false;
        }
    }

    Aggregate walls, setups, traced_walls;
    for (const Sample &s : samples) {
        (s.traced ? traced_walls : walls).add(s.wall_s);
        if (!s.traced) {
            setups.add(s.setup_s);
        }
    }
    rusage usage_info{};
    getrusage(RUSAGE_SELF, &usage_info);
    double peak_rss_mb = static_cast<double>(usage_info.ru_maxrss) / 1024.0;

    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        metrics;
    auto sim = [&](const char *name) {
        auto it = first.sim.find(name);
        return it == first.sim.end() ? 0.0 : it->second;
    };
    std::printf("samples: %zu untraced, %zu traced\n", untraced, traced);
    for (const Sample &s : samples) {
        std::printf("iteration: traced=%d setup_s=%.4f wall_s=%.4f\n",
                    s.traced ? 1 : 0, s.setup_s, s.wall_s);
    }
    std::printf("fail_ratio = %.6g ratio (%" PRIu64 " of %" PRIu64 ")\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                failed, attempted);
    for (const auto &[name, value] : first.sim) {
        std::printf("sim %s = %.10g %s\n", name.c_str(), value,
                    unit_of(name));
    }
    if (trace_mode == 0) {
        metrics.push_back({"wall_s", {walls.percentile(50), "s"}});
        metrics.push_back({"setup_s", {setups.percentile(50), "s"}});
        metrics.push_back({"peak_rss_mb", {peak_rss_mb, "MB"}});
        metrics.push_back({"sim_ms", {sim("sim_ms"), "ms"}});
    } else {
        // Report the traced iteration with the median wall time, so
        // its spans add up to its own wall and set-up times.
        std::vector<const Sample *> traced_samples;
        for (const Sample &s : samples) {
            if (s.traced) {
                traced_samples.push_back(&s);
            }
        }
        std::sort(traced_samples.begin(), traced_samples.end(),
                  [](const Sample *a, const Sample *b) {
                      return a->wall_s < b->wall_s;
                  });
        std::map<std::string, double> layer =
            traced_samples[(traced_samples.size() - 1) / 2]->layer;
        layer["trace.overhead_pct"] =
            (ratio(traced_walls.percentile(50), walls.percentile(50)) -
             1.0) *
            100.0;
        layer["fail_ratio"] = ratio(static_cast<double>(failed),
                                    static_cast<double>(attempted));
        for (const auto &[name, unit] : kLayerMetrics) {
            auto it = layer.find(name);
            metrics.push_back(
                {name, {it == layer.end() ? 0.0 : it->second, unit}});
        }
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, vu] = metrics[i];
        std::printf("%s = %.10g %s\n", name.c_str(), vu.first, vu.second);
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
                json_number(vu.first) + ", \"unit\": \"" + vu.second +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

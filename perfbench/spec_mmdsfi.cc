/**
 * @file
 * spec_mmdsfi: the 12 SPECint-like kernels, each built plain and
 * MMDSFI-instrumented, run to exit on the Linux-model kernel (one
 * core, default interpreter tiers). Almost pure interpretation of hot,
 * stable code; its simulated figure is the toolchain's overhead.
 */
#include <cmath>
#include <memory>
#include <regex>

#include "base/rng.h"
#include "bench/bench_util.h"
#include "perfbench/harness.h"
#include "trace/metrics.h"

namespace occlum::perfbench {

namespace {

/**
 * The kernel's source with its input-generator seed (`var seed = N;`)
 * replaced by one drawn from the workload seed, so each seed gives
 * each kernel different data. Kernels without one run as written.
 */
std::string
seeded_source(const std::string &name, Rng &rng)
{
    static const std::regex kSeedDecl(R"(var seed = [0-9]+;)");
    std::string value = std::to_string(1 + rng.next_below(0x7ffffffe));
    return std::regex_replace(workloads::spec_kernel_source(name),
                              kSeedDecl, "var seed = " + value + ";",
                              std::regex_constants::format_first_only);
}

/** One kernel image on its own Linux-model system. */
struct Run {
    SimClock clock;
    host::HostFileStore files;
    std::unique_ptr<baseline::LinuxSystem> sys;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    int64_t code = -1;
    bool exited = false;
};

void
boot(Run &run, const Bytes &image)
{
    run.files.put("kern", image);
    run.sys = std::make_unique<baseline::LinuxSystem>(run.clock, run.files);
    run.sys->set_cores(1);
}

void
execute(Run &run, Meter &meter, bool traced_leg)
{
    auto &instructions =
        trace::Registry::instance().counter("vm.instructions");
    uint64_t instr0 = instructions.value();
    if (traced_leg) {
        meter.leg_begin(run.clock);
    }
    auto pid = meter.time(Span::kRun,
                          [&] { return run.sys->spawn("kern", {"kern"}); });
    uint64_t after_spawn = run.clock.cycles();
    if (pid.ok()) {
        meter.time(Span::kRun, [&] { run.sys->run(); });
    }
    if (traced_leg) {
        meter.leg_end(run.clock);
    }
    run.cycles = run.clock.cycles() - after_spawn;
    run.instructions = instructions.value() - instr0;
    if (pid.ok()) {
        auto record = run.sys->death_record(pid.value());
        run.exited = record.ok() &&
                     record.value().cause == oskit::DeathCause::kExited;
        run.code = record.ok() ? record.value().code : -1;
    }
}

} // namespace

Outcome
spec_mmdsfi(uint64_t seed, Meter &meter)
{
    const std::vector<std::string> &names = workloads::spec_kernel_names();
    Rng rng(seed ^ 0x73706563696e7430ull);
    std::vector<workloads::ProgramBuild> builds;
    meter.time(Span::kBuild, [&] {
        for (const std::string &name : names) {
            builds.push_back(workloads::build_program(
                seeded_source(name, rng), 0, 2 << 20));
        }
    });
    std::vector<Run> plain(names.size()), sfi(names.size());
    meter.time(Span::kBoot, [&] {
        for (size_t i = 0; i < names.size(); ++i) {
            boot(plain[i], builds[i].plain);
            boot(sfi[i], builds[i].occlum);
        }
    });

    meter.start_timed();
    for (size_t i = 0; i < names.size(); ++i) {
        execute(plain[i], meter, false);
        execute(sfi[i], meter, true);
    }
    meter.stop_timed();

    Outcome out;
    double log_ratio = 0, sfi_ms = 0;
    uint64_t plain_instr = 0, sfi_instr = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        bool ok = plain[i].exited && sfi[i].exited &&
                  plain[i].code == sfi[i].code && plain[i].cycles > 0;
        out.attempted += 2;
        out.failed += ok ? 0 : 2;
        out.check(ok, names[i] + ": plain and MMDSFI builds exit with "
                                 "the same code");
        if (ok) {
            log_ratio += std::log(static_cast<double>(sfi[i].cycles) /
                                  static_cast<double>(plain[i].cycles));
        }
        sfi_ms += SimClock::cycles_to_millis(sfi[i].cycles);
        plain_instr += plain[i].instructions;
        sfi_instr += sfi[i].instructions;
    }
    out.sim["sim_ms"] = sfi_ms;
    out.sim["mmdsfi_overhead_pct"] =
        (std::exp(log_ratio / static_cast<double>(names.size())) - 1.0) *
        100.0;
    out.sim["toolchain.instr_ratio"] =
        plain_instr ? static_cast<double>(sfi_instr) /
                          static_cast<double>(plain_instr)
                    : 0.0;
    return out;
}

} // namespace occlum::perfbench

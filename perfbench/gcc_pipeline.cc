/**
 * @file
 * gcc_pipeline: the Fig. 5b `cpp | cc1 | as | ld` pipeline (cc1
 * padded to 14 MiB) compiling one seeded translation unit on the
 * Linux model, the enclave-per-process (EIP) baseline and Occlum, one
 * core each. It loads spawn of large binaries, pipes, an EncFs source
 * read, and — on the EIP leg — code-invalidation traffic in the
 * interpreter's block cache.
 */
#include <memory>

#include "base/rng.h"
#include "bench/bench_util.h"
#include "perfbench/harness.h"
#include "trace/metrics.h"

namespace occlum::perfbench {

namespace {

constexpr uint64_t kBigReserve = 16 << 20;
/** Unit size: large enough that cc1's per-byte passes dominate its
 *  start-up; the seed moves it by up to ±1 %. */
constexpr uint64_t kUnitBytes = 64 << 10;

/** A C-looking translation unit whose lines the seed chooses. */
std::string
make_unit(uint64_t seed)
{
    Rng rng(seed ^ 0x6363313a756e6974ull);
    uint64_t target = kUnitBytes - kUnitBytes / 100 +
                      rng.next_below(kUnitBytes / 50 + 1);
    static const char *const kTypes[] = {"int", "long", "unsigned",
                                         "char *", "double"};
    static const char *const kOps[] = {"+", "-", "*", "^", "|", "&"};
    std::string text;
    text.reserve(target + 128);
    while (text.size() < target) {
        text += kTypes[rng.next_below(5)];
        text += " f" + std::to_string(rng.next_below(100000));
        text += "(int a, int b) { return a ";
        text += kOps[rng.next_below(6)];
        text += " " + std::to_string(rng.next_below(1000)) + " ";
        text += kOps[rng.next_below(6)];
        text += " b; }\n";
    }
    text.resize(target);
    return text;
}

/** One system's compile of the unit. */
struct Leg {
    double ms = 0;
    /** Guest instructions the leg's interpreter retired. */
    uint64_t instructions = 0;
    bool spawned = false;
    /** pid -> exit code of every process, all of which must exit. */
    std::map<int, int64_t> codes;
    bool all_exited = true;
    std::string console;
};

Leg
compile(oskit::Kernel &sys, Meter &meter, bool occlum_leg)
{
    Leg leg;
    auto &instructions =
        trace::Registry::instance().counter("vm.instructions");
    uint64_t instr0 = instructions.value();
    uint64_t t0 = sys.clock().cycles();
    if (occlum_leg) {
        meter.leg_begin(sys.clock());
    }
    auto pid = meter.time(Span::kRun, [&] {
        return sys.spawn("gcc", {"gcc", "/src.c"});
    });
    leg.spawned = pid.ok();
    if (leg.spawned) {
        meter.time(Span::kRun, [&] { sys.run(); });
    }
    if (occlum_leg) {
        meter.leg_end(sys.clock());
    }
    leg.ms = SimClock::cycles_to_millis(sys.clock().cycles() - t0);
    leg.instructions = instructions.value() - instr0;
    for (int p : sys.death_order()) {
        auto record = sys.death_record(p);
        leg.all_exited &= record.ok() && record.value().cause ==
                                            oskit::DeathCause::kExited;
        leg.codes[p] = record.ok() ? record.value().code : -1;
    }
    leg.console = sys.console();
    return leg;
}

} // namespace

Outcome
gcc_pipeline(uint64_t seed, Meter &meter)
{
    std::map<std::string, workloads::ProgramBuild> builds;
    meter.time(Span::kBuild, [&] {
        builds.emplace("gcc", workloads::build_program(
                                  workloads::gcc_driver_source(),
                                  512 << 10, 1 << 20, kBigReserve));
        for (const char *stage : {"cpp", "as", "ld"}) {
            builds.emplace(stage,
                           workloads::build_program(
                               workloads::gcc_stage_source(stage),
                               1 << 20, 1 << 20, kBigReserve));
        }
        builds.emplace("cc1", workloads::build_program(
                                  workloads::gcc_stage_source("cc1"),
                                  14 << 20, 1 << 20, kBigReserve));
    });
    std::string text = make_unit(seed);
    Bytes source(text.begin(), text.end());

    SimClock linux_clock;
    sgx::Platform eip_platform;
    sgx::Platform occ_platform;
    host::HostFileStore linux_files, eip_files, occ_files;
    std::unique_ptr<baseline::LinuxSystem> linux_sys;
    std::unique_ptr<baseline::EipSystem> eip_sys;
    std::unique_ptr<libos::OcclumSystem> occ_sys;
    Outcome out;
    meter.time(Span::kBoot, [&] {
        for (const auto &[name, build] : builds) {
            linux_files.put(name, build.plain);
            eip_files.put(name, build.plain);
            occ_files.put(name, build.occlum);
        }
        linux_files.put("/src.c", source);
        eip_files.put("/src.c", source);
        linux_sys = std::make_unique<baseline::LinuxSystem>(linux_clock,
                                                            linux_files);
        linux_sys->set_cores(1);
        eip_sys = std::make_unique<baseline::EipSystem>(
            eip_platform, eip_files, baseline::EipSystem::Config{});
        eip_sys->set_cores(1);
        auto config = bench::occlum_config(6, kBigReserve, 8 << 20);
        config.cores = 1;
        occ_sys = std::make_unique<libos::OcclumSystem>(
            occ_platform, occ_files, config);
        out.check(occ_sys->fs().write_file("/src.c", source).ok(),
                  "install /src.c on EncFs");
    });

    meter.start_timed();
    Leg linux_leg = compile(*linux_sys, meter, false);
    Leg eip_leg = compile(*eip_sys, meter, false);
    Leg occ_leg = compile(*occ_sys, meter, true);
    meter.stop_timed();

    // Output checks. Stage processes exit with a hash of what they
    // streamed, so the systems must agree on every code; the driver
    // exits 0 only after reaping all four stages. Each stage adds 7 to
    // every byte it passes on, and ld streams its output to the
    // console before its summary line.
    std::string linked = "linked " + std::to_string(source.size()) +
                         " bytes";
    std::string expected_console = text;
    for (char &c : expected_console) {
        c = static_cast<char>(static_cast<uint8_t>(c) + 4 * 7);
    }
    expected_console += linked + "\n";
    const std::pair<const char *, const Leg *> legs[] = {
        {"linux", &linux_leg}, {"eip", &eip_leg}, {"occlum", &occ_leg}};
    for (const auto &[name, leg] : legs) {
        out.attempted += 5;
        bool ok = leg->spawned && leg->all_exited &&
                  leg->codes.size() == 5 &&
                  leg->codes.begin()->second == 0;
        out.failed += ok ? 0 : 5;
        out.check(ok, std::string(name) +
                          ": all five processes exit, driver exits 0");
        out.check(leg->console == expected_console,
                  std::string(name) + ": ld outputs the unit shifted by "
                                      "4x7 and prints '" + linked + "'");
        out.check(leg->codes == linux_leg.codes,
                  std::string(name) +
                      ": exit codes match the Linux model");
    }
    out.check(linux_leg.ms < occ_leg.ms && occ_leg.ms < eip_leg.ms,
              "paper ordering Linux < Occlum < EIP");

    out.sim["sim_ms"] = occ_leg.ms;
    out.sim["compile_ms"] = occ_leg.ms;
    out.sim["linux_compile_ms"] = linux_leg.ms;
    out.sim["eip_compile_ms"] = eip_leg.ms;
    out.sim["occlum_vs_linux_x"] = occ_leg.ms / linux_leg.ms;
    out.sim["occlum_vs_eip_x"] = eip_leg.ms / occ_leg.ms;
    // The same pipeline, MMDSFI-built on Occlum and plain on Linux.
    out.sim["toolchain.instr_ratio"] =
        linux_leg.instructions
            ? static_cast<double>(occ_leg.instructions) /
                  static_cast<double>(linux_leg.instructions)
            : 0.0;
    return out;
}

} // namespace occlum::perfbench

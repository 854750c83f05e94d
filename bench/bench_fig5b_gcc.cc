/**
 * @file
 * Figure 5b: the GCC-like multi-process compile pipeline
 * (cpp | cc1 | as | ld) over three translation-unit sizes.
 *
 * Paper (absolute): Linux 25 ms..830 ms; Graphene 9.7 s..11.7 s;
 * Occlum 229 ms..3.0 s. Shape claims: Occlum 3.6-9.2x slower than
 * Linux (instrumentation + eager loading of the 14 MiB cc1), and
 * 3.8-42x faster than Graphene (which pays 4 enclave creations).
 *
 * The compiler stages are synthetic per-byte kernels (DESIGN.md §1);
 * absolute times are smaller than the paper's (our units are smaller
 * than real C), but the cross-system ratios are preserved.
 */
#include "bench/bench_util.h"
#include "trace/metrics.h"

using namespace occlum;

namespace {

constexpr uint64_t kBigReserve = 16 << 20;

/** Block-cache dispatch counters from the metrics registry. */
struct CacheCounts {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;

    static CacheCounts
    now()
    {
        auto &registry = trace::Registry::instance();
        return {registry.counter("vm.block_cache.hits").value(),
                registry.counter("vm.block_cache.misses").value(),
                registry.counter("vm.block_cache.invalidations").value()};
    }

    CacheCounts
    operator-(const CacheCounts &o) const
    {
        return {hits - o.hits, misses - o.misses,
                invalidations - o.invalidations};
    }
};

void
print_cache_leg(const char *leg, const CacheCounts &c)
{
    std::printf("  %-7s block cache: %llu hits, %llu misses, "
                "%llu invalidations\n",
                leg, (unsigned long long)c.hits,
                (unsigned long long)c.misses,
                (unsigned long long)c.invalidations);
}

std::string
make_source_text(uint64_t bytes)
{
    std::string text;
    text.reserve(bytes);
    const char *line = "int f(int a, int b) { return a * 31 + b; }\n";
    while (text.size() < bytes) {
        text += line;
    }
    text.resize(bytes);
    return text;
}

} // namespace

int
main()
{
    // Stage binaries: cc1 is the paper's 14 MiB front end.
    std::map<std::string, workloads::ProgramBuild> builds;
    builds.emplace("gcc", workloads::build_program(
                              workloads::gcc_driver_source(), 512 << 10,
                              1 << 20, kBigReserve));
    for (const char *stage : {"cpp", "as", "ld"}) {
        builds.emplace(stage, workloads::build_program(
                                  workloads::gcc_stage_source(stage),
                                  1 << 20, 1 << 20, kBigReserve));
    }
    builds.emplace("cc1", workloads::build_program(
                              workloads::gcc_stage_source("cc1"),
                              14 << 20, 1 << 20, kBigReserve));

    struct Unit {
        const char *label;
        uint64_t bytes;
    };
    const Unit units[] = {
        {"helloworld.c (5 LoC)", 128},
        {"gzip.c (5K LoC)", 48 << 10},
        {"ogg.c (50K LoC)", 480 << 10},
    };

    Table table("Fig 5b: GCC-like compile pipeline");
    table.set_header({"translation unit", "Linux", "Graphene-like (EIP)",
                      "Occlum", "Occlum vs Linux", "Occlum vs EIP"});
    bench::JsonReport report("fig5b_gcc");

    for (const Unit &unit : units) {
        std::string text = make_source_text(unit.bytes);
        Bytes source_bytes(text.begin(), text.end());
        const std::vector<std::string> argv = {"gcc", "/src.c"};

        // Linux.
        SimClock linux_clock;
        host::HostFileStore linux_files;
        for (const auto &[name, b] : builds) {
            linux_files.put(name, b.plain);
        }
        linux_files.put("/src.c", source_bytes);
        baseline::LinuxSystem linux_sys(linux_clock, linux_files);
        CacheCounts before = CacheCounts::now();
        double linux_s = bench::timed_run(linux_sys, "gcc", argv);
        CacheCounts linux_cache = CacheCounts::now() - before;

        // Graphene-like EIP (read-only FS serves the source fine).
        sgx::Platform eip_platform;
        host::HostFileStore eip_files;
        for (const auto &[name, b] : builds) {
            eip_files.put(name, b.plain);
        }
        eip_files.put("/src.c", source_bytes);
        baseline::EipSystem eip_sys(eip_platform, eip_files, {});
        before = CacheCounts::now();
        double eip_s = bench::timed_run(eip_sys, "gcc", argv);
        CacheCounts eip_cache = CacheCounts::now() - before;

        // Occlum: the source lives on the encrypted FS.
        sgx::Platform occ_platform;
        host::HostFileStore occ_files;
        for (const auto &[name, b] : builds) {
            occ_files.put(name, b.occlum);
        }
        auto config = bench::occlum_config(6, kBigReserve, 8 << 20);
        libos::OcclumSystem occ_sys(occ_platform, occ_files, config);
        OCC_CHECK(occ_sys.fs().write_file("/src.c", source_bytes).ok());
        before = CacheCounts::now();
        double occ_s = bench::timed_run(occ_sys, "gcc", argv);
        CacheCounts occ_cache = CacheCounts::now() - before;

        // The EIP leg's RWX data pool is never fetched from, so its
        // stores must leave cached code alone: same dispatch as Linux.
        std::printf("%s\n", unit.label);
        print_cache_leg("Linux", linux_cache);
        print_cache_leg("EIP", eip_cache);
        print_cache_leg("Occlum", occ_cache);
        OCC_CHECK_MSG(eip_cache.invalidations == 0 &&
                          eip_cache.hits == linux_cache.hits &&
                          eip_cache.misses == linux_cache.misses,
                      "EIP stores into RWX data invalidated cached code");

        table.add_row({unit.label, format_time_us(linux_s * 1e6),
                       format_time_us(eip_s * 1e6),
                       format_time_us(occ_s * 1e6),
                       format("%.1fx slower", occ_s / linux_s),
                       format("%.1fx faster", eip_s / occ_s)});
        report.add(unit.label, "linux_us", linux_s * 1e6);
        report.add(unit.label, "eip_us", eip_s * 1e6);
        report.add(unit.label, "occlum_us", occ_s * 1e6);
    }
    table.print();
    std::printf("\nPaper shape: Occlum 3.6-9.2x slower than Linux, "
                "3.8-42x faster than Graphene.\n");
    report.write();
    return 0;
}

/**
 * @file
 * Figures 6c and 6d: sequential file read/write throughput under
 * varied buffer sizes (4 B .. 16 KiB), Linux ext4 model vs Occlum's
 * writable encrypted FS.
 *
 * Paper: Occlum averages -39% on reads and -18% on writes versus
 * ext4 — the price of transparent AES-CTR + HMAC per block.
 * (Graphene is excluded, as in the paper: no writable encrypted FS.)
 */
#include "bench/bench_util.h"

using namespace occlum;

namespace {

double
run_phase(oskit::Kernel &sys, const std::string &prog, uint64_t chunk,
          uint64_t total)
{
    sys.clear_console();
    std::vector<std::string> argv = {prog, std::to_string(chunk)};
    if (total != 0) {
        argv.push_back(std::to_string(total));
    }
    auto pid = sys.spawn(prog, argv);
    OCC_CHECK_MSG(pid.ok(), pid.error().message);
    sys.run();
    auto result = bench::parse_result(sys.console());
    OCC_CHECK_MSG(result.has_value(), "no RESULT from " + prog);
    return bench::result_mbps(*result);
}

} // namespace

int
main()
{
    workloads::ProgramBuild writer =
        workloads::build_program(workloads::file_write_bench_source());
    workloads::ProgramBuild reader =
        workloads::build_program(workloads::file_read_bench_source());

    Table reads("Fig 6c: sequential file READ throughput");
    reads.set_header({"buffer", "Linux ext4", "Occlum EncFS",
                      "overhead"});
    Table writes("Fig 6d: sequential file WRITE throughput");
    writes.set_header({"buffer", "Linux ext4", "Occlum EncFS",
                       "overhead"});

    Aggregate read_overhead, write_overhead;
    bench::JsonReport report("fig6cd_file_io");

    for (uint64_t chunk : {4u, 16u, 64u, 256u, 1024u, 4096u, 16384u}) {
        // Keep small-buffer runs tractable; throughput is
        // size-insensitive once past a few hundred KiB.
        uint64_t total = chunk <= 64 ? (256 << 10) : (1 << 20);

        // ---- Linux ----
        SimClock linux_clock;
        host::HostFileStore linux_files;
        linux_files.put("fwrite", writer.plain);
        linux_files.put("fread", reader.plain);
        baseline::LinuxSystem linux_sys(linux_clock, linux_files);
        double linux_w = run_phase(linux_sys, "fwrite", chunk, total);
        double linux_r = run_phase(linux_sys, "fread", chunk, 0);

        // ---- Occlum (small page cache so reads hit the device) ----
        sgx::Platform occ_platform;
        host::HostFileStore occ_files;
        occ_files.put("fwrite", writer.occlum);
        occ_files.put("fread", reader.occlum);
        auto config = bench::occlum_config();
        config.fs_blocks = 1 << 15;
        config.fs_cache_blocks = 64; // force cold reads like ext4's
        libos::OcclumSystem occ_sys(occ_platform, occ_files, config);
        double occ_w = run_phase(occ_sys, "fwrite", chunk, total);
        double occ_r = run_phase(occ_sys, "fread", chunk, 0);

        double r_ovh = 1.0 - occ_r / linux_r;
        double w_ovh = 1.0 - occ_w / linux_w;
        read_overhead.add(r_ovh);
        write_overhead.add(w_ovh);
        reads.add_row({format("%lluB", (unsigned long long)chunk),
                       format_mbps(linux_r), format_mbps(occ_r),
                       format("%.0f%%", 100 * r_ovh)});
        writes.add_row({format("%lluB", (unsigned long long)chunk),
                        format_mbps(linux_w), format_mbps(occ_w),
                        format("%.0f%%", 100 * w_ovh)});
        std::string label = format("%lluB", (unsigned long long)chunk);
        report.add(label, "linux_read_mbps", linux_r);
        report.add(label, "occlum_read_mbps", occ_r);
        report.add(label, "linux_write_mbps", linux_w);
        report.add(label, "occlum_write_mbps", occ_w);
    }
    reads.print();
    std::printf("mean read overhead: %.0f%% (paper: 39%%)\n",
                100 * read_overhead.mean());
    writes.print();
    std::printf("mean write overhead: %.0f%% (paper: 18%%)\n",
                100 * write_overhead.mean());
    report.add("mean", "read_overhead_pct", 100 * read_overhead.mean());
    report.add("mean", "write_overhead_pct",
               100 * write_overhead.mean());
    report.write();
    return 0;
}

/**
 * @file
 * Ablation: how much each §4.3 design choice contributes, measured
 * two ways — static guard counts from the toolchain and dynamic
 * simulated cycles — across the SPEC-like kernels.
 *
 * Rows:
 *   naive ............ guard every load/store (no analysis)
 *   +static elision .. skip provably-in-D accesses (frame slots are
 *                      excluded from "naive" as register traffic)
 *   +hoisting ........ loop-check hoisting via induction promotion
 *                      (the full optimized configuration)
 *
 * The toolchain cannot disable the two optimizations independently
 * (hoisting shares the `optimize` switch), so the middle row is
 * approximated by subtracting the hoisting statistic.
 *
 * A second table measures the tracing subsystem itself: the same
 * kernel with runtime tracing off vs on. Tracing never advances the
 * SimClock, so the simulated cycle counts must be bit-identical
 * (asserted); the wall-clock delta is the real cost of the hooks.
 * Later tables ablate the other wall-clock-only devices the same way
 * (interpreter tiers, crypto data plane, SHA-256 kernel, faultsim).
 */
#include "bench/bench_util.h"

#include <chrono>
#include <memory>

#include "crypto/hmac.h"
#include "crypto/mode.h"
#include "faultsim/faultsim.h"
#include "libos/encfs.h"
#include "trace/trace.h"
#include "vm/cpu.h"

using namespace occlum;

namespace {

struct Variant {
    toolchain::InstrumentOptions instrument;
};

uint64_t
run_cycles(const oelf::Image &image)
{
    SimClock clock;
    host::HostFileStore files;
    files.put("k", image.serialize());
    baseline::LinuxSystem sys(clock, files);
    auto pid = sys.spawn("k", {"k"});
    OCC_CHECK(pid.ok());
    uint64_t after_spawn = clock.cycles();
    sys.run();
    OCC_CHECK(sys.exit_code(pid.value()).ok());
    return clock.cycles() - after_spawn;
}

struct TracedMeasure {
    uint64_t sim_cycles = 0;
    double wall_ms = 0.0;
};

/**
 * Best-of-N wall-clock run under one interpreter-tier configuration:
 * tier 0 (decode every time), tier 1 (predecoded blocks), or tier 2
 * (blocks + superblock traces). The defaults are flipped before the
 * system (and its CPUs) is built so the whole run — loader, kernel,
 * workload — executes in that mode.
 */
TracedMeasure
measure_vm_tier(const oelf::Image &image, bool cached, bool superblock,
                int reps)
{
    TracedMeasure best;
    best.wall_ms = 1e18;
    bool saved = vm::Cpu::default_block_cache_enabled();
    bool saved_sb = vm::Cpu::default_superblock_enabled();
    vm::Cpu::set_default_block_cache_enabled(cached);
    vm::Cpu::set_default_superblock_enabled(superblock);
    for (int i = 0; i < reps; ++i) {
        SimClock clock;
        host::HostFileStore files;
        files.put("k", image.serialize());
        baseline::LinuxSystem sys(clock, files);
        auto t0 = std::chrono::steady_clock::now();
        auto pid = sys.spawn("k", {"k"});
        OCC_CHECK(pid.ok());
        uint64_t after_spawn = clock.cycles();
        sys.run();
        auto t1 = std::chrono::steady_clock::now();
        OCC_CHECK(sys.exit_code(pid.value()).ok());
        uint64_t sim = clock.cycles() - after_spawn;
        OCC_CHECK(best.sim_cycles == 0 || best.sim_cycles == sim);
        best.sim_cycles = sim;
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best.wall_ms = std::min(best.wall_ms, ms);
    }
    vm::Cpu::set_default_block_cache_enabled(saved);
    vm::Cpu::set_default_superblock_enabled(saved_sb);
    return best;
}

/** Best-of-N wall-clock run with the tracer off or on. */
TracedMeasure
measure_tracing(const oelf::Image &image, bool traced, int reps)
{
    TracedMeasure best;
    best.wall_ms = 1e18;
    for (int i = 0; i < reps; ++i) {
        SimClock clock;
        host::HostFileStore files;
        files.put("k", image.serialize());
        baseline::LinuxSystem sys(clock, files);
        auto &tracer = trace::Tracer::instance();
        if (traced) {
            tracer.bind_clock(&clock);
            tracer.enable(1 << 16);
        } else {
            tracer.disable();
        }
        auto t0 = std::chrono::steady_clock::now();
        auto pid = sys.spawn("k", {"k"});
        OCC_CHECK(pid.ok());
        uint64_t after_spawn = clock.cycles();
        sys.run();
        auto t1 = std::chrono::steady_clock::now();
        OCC_CHECK(sys.exit_code(pid.value()).ok());
        if (traced) {
            tracer.disable();
            tracer.bind_clock(nullptr);
        }
        uint64_t sim = clock.cycles() - after_spawn;
        OCC_CHECK(best.sim_cycles == 0 || best.sim_cycles == sim);
        best.sim_cycles = sim;
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best.wall_ms = std::min(best.wall_ms, ms);
    }
    return best;
}

/**
 * Best-of-N run of an EncFs streaming workload (write 1 MiB in 4 KiB
 * chunks, sync, read it all back) under one crypto data-plane
 * configuration. Every device block moved pays the same per-byte
 * crypto charge regardless of which AES/HMAC implementation computes
 * it, and prefetched blocks pay exactly the demand-fetch charges, so
 * the simulated cycle count must be identical in every configuration
 * (asserted per-rep here and across rows in main).
 */
TracedMeasure
measure_encfs_crypto(bool ttable, bool midstate, size_t readahead,
                     int reps)
{
    constexpr uint64_t kChunk = 4096;
    constexpr uint64_t kTotal = 1 << 20;

    TracedMeasure best;
    best.wall_ms = 1e18;
    bool saved_ref = crypto::reference_mode();
    bool saved_mid = crypto::HmacKey::midstate_enabled();
    crypto::set_reference_mode(!ttable);
    crypto::HmacKey::set_midstate_enabled(midstate);

    Bytes chunk(kChunk);
    for (size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>(i * 31 + 7);
    }

    for (int i = 0; i < reps; ++i) {
        SimClock clock;
        host::BlockDevice device(clock, 1 << 13);
        libos::EncFs::Config config;
        for (size_t k = 0; k < config.key.size(); ++k) {
            config.key[k] = static_cast<uint8_t>(k * 7 + 1);
        }
        config.cache_blocks = 64; // smaller than the 1 MiB stream
        config.readahead_blocks = readahead;
        libos::EncFs fs(device, clock, config);
        OCC_CHECK(fs.mkfs().ok());
        auto inode = fs.open_inode("/stream", true, false);
        OCC_CHECK(inode.ok());

        auto t0 = std::chrono::steady_clock::now();
        for (uint64_t off = 0; off < kTotal; off += kChunk) {
            auto n = fs.write(inode.value(), off, chunk.data(), kChunk);
            OCC_CHECK(n.ok() && n.value() == static_cast<int64_t>(kChunk));
        }
        OCC_CHECK(fs.sync().ok());
        Bytes back(kChunk);
        for (uint64_t off = 0; off < kTotal; off += kChunk) {
            auto n = fs.read(inode.value(), off, back.data(), kChunk);
            OCC_CHECK(n.ok() && n.value() == static_cast<int64_t>(kChunk));
        }
        auto t1 = std::chrono::steady_clock::now();
        OCC_CHECK(back == chunk); // decrypt+verify round-trip intact

        uint64_t sim = clock.cycles();
        OCC_CHECK(best.sim_cycles == 0 || best.sim_cycles == sim);
        best.sim_cycles = sim;
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best.wall_ms = std::min(best.wall_ms, ms);
    }
    crypto::set_reference_mode(saved_ref);
    crypto::HmacKey::set_midstate_enabled(saved_mid);
    return best;
}

struct MeasurementRun {
    Aggregate wall_ms;
    uint64_t sim_cycles = 0;
    crypto::Sha256Digest mrenclave{};
    crypto::Sha256Digest digest{};
};

/**
 * N reps of the hashing an EIP spawn and an Occlum signature check
 * pay on the host: EADD+EEXTEND of an EIP-sized 256 MiB reserve, then
 * the content digest of a cc1-sized 14 MiB image, with the crypto
 * reference mode (scalar SHA-256) on or off. The cost model charges
 * per page, never per implementation, so every rep of both sides must
 * produce the same measurement, digest and simulated cycles.
 */
MeasurementRun
measure_enclave_hashing(const oelf::Image &image, bool reference, int reps)
{
    constexpr uint64_t kBase = 0x10000000;
    constexpr uint64_t kReserve = 256ull << 20;
    MeasurementRun run;
    bool saved = crypto::reference_mode();
    crypto::set_reference_mode(reference);
    for (int i = 0; i < reps; ++i) {
        sgx::Platform platform;
        auto t0 = std::chrono::steady_clock::now();
        sgx::Enclave enclave(platform, kBase, kReserve);
        OCC_CHECK(enclave.measure_reserved(kReserve).ok());
        OCC_CHECK(enclave.init().ok());
        crypto::Sha256Digest digest = image.content_digest();
        auto t1 = std::chrono::steady_clock::now();
        OCC_CHECK(i == 0 || (run.sim_cycles == platform.clock().cycles() &&
                             run.mrenclave == enclave.measurement() &&
                             run.digest == digest));
        run.sim_cycles = platform.clock().cycles();
        run.mrenclave = enclave.measurement();
        run.digest = digest;
        run.wall_ms.add(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    crypto::set_reference_mode(saved);
    return run;
}

struct FaultsimMeasure {
    uint64_t sim_cycles = 0;
    double wall_ms = 0.0;
    uint64_t checks = 0; // injection-site checks consulted per rep
};

/**
 * Best-of-N run of a mixed workload — the spec kernel under the
 * baseline kernel, then a 256 KiB EncFs stream (write, sync, read
 * back) that drives the block-device injection sites — with faultsim
 * either fully idle (no plan) or armed with an all-zero plan. An
 * armed-but-quiet plan walks every check and burns RNG draws but
 * never fires, so the simulated cycle count must be bit-identical to
 * the idle run (asserted in main); the wall-clock delta is the true
 * cost of the checks themselves.
 */
FaultsimMeasure
measure_faultsim(const oelf::Image &image, bool armed, int reps)
{
    constexpr uint64_t kChunk = 4096;
    constexpr uint64_t kTotal = 256 * 1024;

    FaultsimMeasure best;
    best.wall_ms = 1e18;
    for (int i = 0; i < reps; ++i) {
        std::unique_ptr<faultsim::ScopedFaultPlan> plan;
        if (armed) {
            plan = std::make_unique<faultsim::ScopedFaultPlan>(
                faultsim::FaultPlan{}); // all zero: checks, no fires
        } else {
            faultsim::FaultSim::instance().clear();
        }
        uint64_t checks0 = 0;
        for (size_t s = 0; s < faultsim::kSiteCount; ++s) {
            checks0 += faultsim::FaultSim::instance().checks(
                static_cast<faultsim::Site>(s));
        }

        SimClock clock;
        host::HostFileStore files;
        files.put("k", image.serialize());
        baseline::LinuxSystem sys(clock, files);

        host::BlockDevice device(clock, 1 << 11);
        libos::EncFs::Config config;
        for (size_t k = 0; k < config.key.size(); ++k) {
            config.key[k] = static_cast<uint8_t>(k * 5 + 3);
        }
        config.cache_blocks = 32;
        libos::EncFs fs(device, clock, config);

        Bytes chunk(kChunk);
        for (size_t k = 0; k < chunk.size(); ++k) {
            chunk[k] = static_cast<uint8_t>(k * 13 + 1);
        }

        auto t0 = std::chrono::steady_clock::now();
        auto pid = sys.spawn("k", {"k"});
        OCC_CHECK(pid.ok());
        uint64_t after_spawn = clock.cycles();
        sys.run();
        OCC_CHECK(sys.exit_code(pid.value()).ok());

        OCC_CHECK(fs.mkfs().ok());
        auto inode = fs.open_inode("/stream", true, false);
        OCC_CHECK(inode.ok());
        for (uint64_t off = 0; off < kTotal; off += kChunk) {
            auto n = fs.write(inode.value(), off, chunk.data(), kChunk);
            OCC_CHECK(n.ok() && n.value() == static_cast<int64_t>(kChunk));
        }
        OCC_CHECK(fs.sync().ok());
        Bytes back(kChunk);
        for (uint64_t off = 0; off < kTotal; off += kChunk) {
            auto n = fs.read(inode.value(), off, back.data(), kChunk);
            OCC_CHECK(n.ok() && n.value() == static_cast<int64_t>(kChunk));
        }
        auto t1 = std::chrono::steady_clock::now();
        OCC_CHECK(back == chunk);

        uint64_t checks1 = 0;
        for (size_t s = 0; s < faultsim::kSiteCount; ++s) {
            checks1 += faultsim::FaultSim::instance().checks(
                static_cast<faultsim::Site>(s));
        }
        uint64_t sim = clock.cycles() - after_spawn;
        OCC_CHECK(best.sim_cycles == 0 || best.sim_cycles == sim);
        best.sim_cycles = sim;
        best.checks = checks1 - checks0;
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        best.wall_ms = std::min(best.wall_ms, ms);
    }
    return best;
}

} // namespace

int
main()
{
    Table table("Ablation: MMDSFI guard pressure per optimization");
    table.set_header({"kernel", "guards naive", "guards optimized",
                      "hoisted", "elided static", "cycles naive",
                      "cycles optimized", "saved"});

    uint64_t total_naive = 0;
    uint64_t total_opt = 0;
    for (const std::string &name : workloads::spec_kernel_names()) {
        std::string src = workloads::spec_kernel_source(name);

        toolchain::CompileOptions naive;
        naive.instrument = toolchain::InstrumentOptions::naive();
        naive.heap_size = 2 << 20;
        auto naive_out = toolchain::compile(src, naive);
        OCC_CHECK(naive_out.ok());

        toolchain::CompileOptions full;
        full.instrument = toolchain::InstrumentOptions::full();
        full.heap_size = 2 << 20;
        auto full_out = toolchain::compile(src, full);
        OCC_CHECK(full_out.ok());

        uint64_t cyc_naive = run_cycles(naive_out.value().image);
        uint64_t cyc_full = run_cycles(full_out.value().image);
        total_naive += cyc_naive;
        total_opt += cyc_full;

        const auto &ns = naive_out.value().stats;
        const auto &fs = full_out.value().stats;
        table.add_row(
            {name, std::to_string(ns.mem_guards_emitted),
             std::to_string(fs.mem_guards_emitted),
             std::to_string(fs.mem_guards_hoisted),
             std::to_string(fs.mem_guards_elided_static),
             format("%.1fM", cyc_naive / 1e6),
             format("%.1fM", cyc_full / 1e6),
             format("%.0f%%",
                    100.0 * (cyc_naive - cyc_full) / cyc_naive)});
    }
    table.add_row({"TOTAL", "", "", "", "",
                   format("%.1fM", total_naive / 1e6),
                   format("%.1fM", total_opt / 1e6),
                   format("%.0f%%",
                          100.0 * (total_naive - total_opt) /
                              total_naive)});
    table.print();
    std::printf("\nThe paper's claim (Sec 4.3): \"these two optimizations"
                " are sufficient to reduce the overhead to an acceptable"
                " level\" — the dynamic saving above is the evidence.\n");

    // ---- tracing-subsystem ablation ---------------------------------
    // Same kernel, runtime tracing off vs on. The simulated cycle
    // counts must match exactly (tracing never touches the SimClock);
    // the wall-clock delta is the true cost of the hooks.
    std::string src = workloads::spec_kernel_source(
        workloads::spec_kernel_names().front());
    toolchain::CompileOptions full;
    full.instrument = toolchain::InstrumentOptions::full();
    full.heap_size = 2 << 20;
    auto out = toolchain::compile(src, full);
    OCC_CHECK(out.ok());

    constexpr int kReps = 5;
    TracedMeasure off =
        measure_tracing(out.value().image, false, kReps);
    TracedMeasure on = measure_tracing(out.value().image, true, kReps);
    OCC_CHECK_MSG(off.sim_cycles == on.sim_cycles,
                  "tracing must not perturb the simulated clock");
    double wall_overhead =
        off.wall_ms > 0 ? on.wall_ms / off.wall_ms - 1.0 : 0.0;

    Table trace_table("Ablation: tracing subsystem overhead "
                      "(interpreter hot path)");
    trace_table.set_header({"tracing", "sim Mcycles", "wall ms (best)",
                            "wall overhead"});
    trace_table.add_row({"off (runtime)",
                         format("%.2f", off.sim_cycles / 1e6),
                         format("%.2f", off.wall_ms), "baseline"});
    trace_table.add_row({"on (ring 64K)",
                         format("%.2f", on.sim_cycles / 1e6),
                         format("%.2f", on.wall_ms),
                         format("%+.1f%%", 100 * wall_overhead)});
    trace_table.print();
    std::printf("simulated-cycle delta: 0 (identical by construction; "
                "asserted)\n");

    // ---- interpreter-tier ablation ----------------------------------
    // Same kernel under each execution tier: decode-every-time (tier
    // 0), the predecoded basic-block cache (tier 1), and the
    // superblock trace tier on top (tier 2). All tiers are pure
    // interpreter-speed devices: per-instruction cycle costs are
    // charged identically, so the simulated cycle counts must be
    // bit-identical across all three rows (asserted). The wall-clock
    // ratios are the speedups each tier buys.
    TracedMeasure cache_off =
        measure_vm_tier(out.value().image, false, false, kReps);
    TracedMeasure cache_on =
        measure_vm_tier(out.value().image, true, false, kReps);
    TracedMeasure sb_on =
        measure_vm_tier(out.value().image, true, true, kReps);
    OCC_CHECK_MSG(cache_off.sim_cycles == cache_on.sim_cycles,
                  "block cache must not perturb simulated cycles");
    OCC_CHECK_MSG(cache_off.sim_cycles == sb_on.sim_cycles,
                  "superblock tier must not perturb simulated cycles");
    double cache_speedup = cache_on.wall_ms > 0
                               ? cache_off.wall_ms / cache_on.wall_ms
                               : 0.0;
    double sb_speedup =
        sb_on.wall_ms > 0 ? cache_off.wall_ms / sb_on.wall_ms : 0.0;

    Table cache_table("Ablation: interpreter execution tiers "
                      "(decode loop vs block cache vs superblocks)");
    cache_table.set_header({"tier", "sim Mcycles",
                            "wall ms (best)", "speedup"});
    cache_table.add_row({"interp (decode every instr)",
                         format("%.2f", cache_off.sim_cycles / 1e6),
                         format("%.2f", cache_off.wall_ms), "baseline"});
    cache_table.add_row({"+block cache (predecoded blocks)",
                         format("%.2f", cache_on.sim_cycles / 1e6),
                         format("%.2f", cache_on.wall_ms),
                         format("%.2fx", cache_speedup)});
    cache_table.add_row({"+superblocks (stitched traces)",
                         format("%.2f", sb_on.sim_cycles / 1e6),
                         format("%.2f", sb_on.wall_ms),
                         format("%.2fx", sb_speedup)});
    cache_table.print();
    std::printf("simulated-cycle delta: 0 across all three tiers "
                "(identical by construction; asserted)\n");

    // ---- crypto data-plane ablation ----------------------------------
    // The same EncFs streaming workload under each data-plane device:
    // reference crypto (scalar AES and scalar SHA-256) + no HMAC
    // midstates + no readahead, then each optimization stacked on
    // (the SHA-NI kernel, where the host has it, rides with T-table
    // AES: both are the non-reference mode). All of them are wall-clock-only — the
    // cost model charges per byte moved, not per implementation — so
    // the simulated cycle counts must be bit-identical (asserted).
    struct CryptoRow {
        const char *name;
        const char *json_key;
        bool ttable;
        bool midstate;
        size_t readahead;
    };
    const CryptoRow crypto_rows[] = {
        {"reference (scalar AES+SHA, no midstate, no RA)",
         "crypto_reference", false, false, 0},
        {"+T-table AES (+SHA-NI)", "crypto_ttable", true, false, 0},
        {"+HMAC midstates", "crypto_midstate", true, true, 0},
        {"+readahead 8", "crypto_readahead", true, true, 8},
    };
    TracedMeasure crypto_measures[4];
    for (size_t i = 0; i < 4; ++i) {
        const CryptoRow &row = crypto_rows[i];
        crypto_measures[i] = measure_encfs_crypto(
            row.ttable, row.midstate, row.readahead, kReps);
        OCC_CHECK_MSG(
            crypto_measures[i].sim_cycles == crypto_measures[0].sim_cycles,
            "crypto data-plane config must not perturb simulated cycles");
    }

    Table crypto_table("Ablation: EncFs crypto data plane "
                       "(1 MiB stream, 4 KiB chunks, cache 64)");
    crypto_table.set_header({"configuration", "sim Mcycles",
                             "wall ms (best)", "speedup"});
    for (size_t i = 0; i < 4; ++i) {
        double speedup =
            crypto_measures[i].wall_ms > 0
                ? crypto_measures[0].wall_ms / crypto_measures[i].wall_ms
                : 0.0;
        crypto_table.add_row(
            {crypto_rows[i].name,
             format("%.2f", crypto_measures[i].sim_cycles / 1e6),
             format("%.2f", crypto_measures[i].wall_ms),
             i == 0 ? "baseline" : format("%.2fx", speedup)});
    }
    crypto_table.print();
    std::printf("simulated-cycle delta: 0 across all four configurations "
                "(asserted)\n");

    // ---- enclave-measurement ablation --------------------------------
    // Scalar vs default SHA-256 under the hashing an EIP spawn and an
    // Occlum signature check do: a 256 MiB reserve measurement plus a
    // 14 MiB image digest. Wall time is reported as median/min/max of
    // the reps; measurements, digests and simulated cycles must match.
    oelf::Image big_image;
    big_image.code.resize(14 << 20);
    for (size_t i = 0; i < big_image.code.size(); ++i) {
        big_image.code[i] = static_cast<uint8_t>(i * 131 + (i >> 12));
    }
    big_image.data.resize(64 << 10, 0x5a);
    MeasurementRun measure_ref =
        measure_enclave_hashing(big_image, true, kReps);
    MeasurementRun measure_fast =
        measure_enclave_hashing(big_image, false, kReps);
    OCC_CHECK_MSG(measure_ref.mrenclave == measure_fast.mrenclave &&
                      measure_ref.digest == measure_fast.digest,
                  "the SHA-256 kernel must not change any digest");
    OCC_CHECK_MSG(measure_ref.sim_cycles == measure_fast.sim_cycles,
                  "the SHA-256 kernel must not perturb simulated cycles");
    double measure_speedup =
        measure_fast.wall_ms.p50() > 0
            ? measure_ref.wall_ms.p50() / measure_fast.wall_ms.p50()
            : 0.0;

    Table measure_table("Ablation: enclave measurement "
                        "(256 MiB reserve + 14 MiB OELF digest)");
    measure_table.set_header({"SHA-256 kernel", "sim Mcycles",
                              "wall ms (median)", "min", "max",
                              "speedup"});
    measure_table.add_row(
        {"reference (scalar)",
         format("%.2f", measure_ref.sim_cycles / 1e6),
         format("%.2f", measure_ref.wall_ms.p50()),
         format("%.2f", measure_ref.wall_ms.min()),
         format("%.2f", measure_ref.wall_ms.max()), "baseline"});
    measure_table.add_row(
        {crypto::Sha256::hardware_supported() ? "default (SHA-NI)"
                                              : "default (scalar: no SHA-NI)",
         format("%.2f", measure_fast.sim_cycles / 1e6),
         format("%.2f", measure_fast.wall_ms.p50()),
         format("%.2f", measure_fast.wall_ms.min()),
         format("%.2f", measure_fast.wall_ms.max()),
         format("%.2fx", measure_speedup)});
    measure_table.print();
    std::printf("measurement, digest and simulated-cycle delta: 0 "
                "(asserted)\n");

    // ---- faultsim ablation -------------------------------------------
    // The fault-injection harness compiled in but idle vs armed with an
    // all-zero plan. Idle checks are a single predicted branch; an
    // armed-but-quiet plan walks every check and burns RNG draws but
    // never fires. Neither may touch the SimClock, so the simulated
    // cycle counts must be bit-identical (asserted) — the no-faults
    // determinism guarantee the crash monkey's replays depend on.
    FaultsimMeasure fault_idle = measure_faultsim(out.value().image,
                                                  false, kReps);
    FaultsimMeasure fault_armed = measure_faultsim(out.value().image,
                                                   true, kReps);
    OCC_CHECK_MSG(fault_idle.sim_cycles == fault_armed.sim_cycles,
                  "an armed-but-quiet fault plan must not perturb "
                  "simulated cycles");
    OCC_CHECK_MSG(fault_armed.checks > 0,
                  "the armed run must actually consult injection sites");
    double fault_overhead = fault_idle.wall_ms > 0
                                ? fault_armed.wall_ms / fault_idle.wall_ms -
                                      1.0
                                : 0.0;

    Table fault_table("Ablation: fault-injection harness "
                      "(kernel + EncFs stream)");
    fault_table.set_header({"faultsim", "sim Mcycles", "site checks",
                            "wall ms (best)", "wall overhead"});
    fault_table.add_row({"idle (no plan)",
                         format("%.2f", fault_idle.sim_cycles / 1e6),
                         std::to_string(fault_idle.checks),
                         format("%.2f", fault_idle.wall_ms), "baseline"});
    fault_table.add_row({"armed, all-zero plan",
                         format("%.2f", fault_armed.sim_cycles / 1e6),
                         std::to_string(fault_armed.checks),
                         format("%.2f", fault_armed.wall_ms),
                         format("%+.1f%%", 100 * fault_overhead)});
    fault_table.print();
    std::printf("simulated-cycle delta: 0 (identical by construction; "
                "asserted)\n");

    // ---- wait-queue scheduler ablation (fig5c idle-conn sweep) ------
    // The retry-polling scheduler re-dispatched every blocked process
    // every round, so round cost grew linearly with parked
    // connections; the wait-queue scheduler only ever visits woken
    // processes. A compact cut of bench_fig5c's idle-connection
    // sweep: a poll()-driven server with 1 vs 1024 idle connections
    // serving the same request load. Blocked fds must be free —
    // zero wasted retries at either point (asserted).
    struct SchedPoint {
        double rps = 0;
        uint64_t sim_cycles = 0;
        uint64_t visits = 0;
        uint64_t wasted = 0;
    };
    auto sched_point = [](int idle) {
        constexpr int kConc = 4;
        constexpr int kReqs = 100;
        constexpr size_t kPage = 10240;
        workloads::ProgramBuild server = workloads::build_program(
            workloads::httpd_poll_source(), 768 << 10);
        sgx::Platform platform;
        host::NetSim net(platform.clock());
        host::HostFileStore files;
        files.put("httpd_poll", server.occlum);
        libos::OcclumSystem sys(platform, files, bench::occlum_config(),
                                &net);
        auto pid = sys.spawn("httpd_poll",
                             {"httpd_poll", std::to_string(kReqs),
                              std::to_string(idle + kConc + 16)});
        OCC_CHECK_MSG(pid.ok(), pid.error().message);
        sys.run(/*allow_idle=*/true);
        for (int i = 0; i < idle; ++i) {
            auto conn = net.connect(8080);
            OCC_CHECK_MSG(conn.ok(), conn.error().message);
        }
        while (net.next_accept_time(8080) != ~0ull) {
            if (!sys.step_round()) {
                uint64_t wake = std::min(sys.next_wake_time(),
                                         net.next_accept_time(8080));
                OCC_CHECK(wake != ~0ull &&
                          wake > sys.clock().cycles());
                sys.clock().advance(wake - sys.clock().cycles());
            }
        }
        sys.run(/*allow_idle=*/true);

        auto &registry = trace::Registry::instance();
        uint64_t visits0 =
            registry.counter("kernel.sched_visits").value();
        uint64_t wasted0 =
            registry.counter("kernel.wasted_retries").value();
        uint64_t t0 = sys.clock().cycles();

        struct Client {
            host::NetSim::Connection *conn = nullptr;
            size_t received = 0;
        };
        std::vector<Client> clients(kConc);
        const char *request = "GET / HTTP/1.1\r\n\r\n";
        int issued = 0;
        int completed = 0;
        auto start = [&](Client &client) {
            if (issued >= kReqs) {
                client.conn = nullptr;
                return;
            }
            auto conn = net.connect(8080);
            OCC_CHECK_MSG(conn.ok(), conn.error().message);
            client.conn = conn.value();
            client.received = 0;
            net.send(client.conn, false,
                     reinterpret_cast<const uint8_t *>(request),
                     strlen(request));
            ++issued;
        };
        for (auto &client : clients) {
            start(client);
        }
        uint8_t buf[4096];
        while (completed < kReqs) {
            bool progress = sys.step_round();
            for (auto &client : clients) {
                if (!client.conn) {
                    continue;
                }
                uint64_t next_arrival = ~0ull;
                size_t n =
                    net.recv(client.conn, false, buf, sizeof(buf),
                             sys.clock().cycles(), next_arrival);
                if (n > 0) {
                    client.received += n;
                    progress = true;
                    if (client.received >= kPage) {
                        net.close(client.conn, false);
                        ++completed;
                        start(client);
                    }
                }
            }
            if (!progress) {
                uint64_t wake = sys.next_wake_time();
                for (auto &client : clients) {
                    if (!client.conn) {
                        continue;
                    }
                    uint64_t next_arrival = ~0ull;
                    net.recv(client.conn, false, buf, 0,
                             sys.clock().cycles(), next_arrival);
                    wake = std::min(wake, next_arrival);
                }
                OCC_CHECK_MSG(wake != ~0ull, "sched ablation stalled");
                OCC_CHECK(wake > sys.clock().cycles());
                sys.clock().advance(wake - sys.clock().cycles());
            }
        }
        SchedPoint point;
        point.sim_cycles = sys.clock().cycles() - t0;
        point.rps =
            kReqs / SimClock::cycles_to_seconds(point.sim_cycles);
        point.visits =
            registry.counter("kernel.sched_visits").value() - visits0;
        point.wasted =
            registry.counter("kernel.wasted_retries").value() - wasted0;
        OCC_CHECK_MSG(point.wasted == 0,
                      "wait-queue scheduler must not waste retries on "
                      "idle connections");
        return point;
    };
    SchedPoint sched_1 = sched_point(1);
    SchedPoint sched_1024 = sched_point(1024);

    Table sched_table("Ablation: wait-queue scheduler "
                      "(fig5c idle-connection sweep, poll server)");
    sched_table.set_header({"idle conns", "req/s", "sim Mcycles",
                            "sched visits", "wasted retries"});
    sched_table.add_row({"1", format("%.0f", sched_1.rps),
                         format("%.2f", sched_1.sim_cycles / 1e6),
                         std::to_string(sched_1.visits),
                         std::to_string(sched_1.wasted)});
    sched_table.add_row({"1024", format("%.0f", sched_1024.rps),
                         format("%.2f", sched_1024.sim_cycles / 1e6),
                         std::to_string(sched_1024.visits),
                         std::to_string(sched_1024.wasted)});
    sched_table.print();
    std::printf("wasted retries: 0 at both points (asserted) — blocked "
                "connections never reach the dispatch loop\n");

    bench::JsonReport report("ablation_optimizations");
    report.add("TOTAL", "cycles_naive_m", total_naive / 1e6);
    report.add("TOTAL", "cycles_optimized_m", total_opt / 1e6);
    report.add("TOTAL", "saved_pct",
               100.0 * (total_naive - total_opt) / total_naive);
    report.add("tracing_off", "wall_ms", off.wall_ms);
    report.add("tracing_on", "wall_ms", on.wall_ms);
    report.add("tracing_on", "wall_overhead_pct", 100 * wall_overhead);
    report.add("tracing_on", "sim_cycle_delta",
               static_cast<double>(on.sim_cycles - off.sim_cycles));
    report.add("block_cache_off", "wall_ms", cache_off.wall_ms);
    report.add("block_cache_on", "wall_ms", cache_on.wall_ms);
    report.add("block_cache_on", "wall_speedup", cache_speedup);
    report.add("block_cache_on", "sim_cycle_delta",
               static_cast<double>(cache_on.sim_cycles -
                                   cache_off.sim_cycles));
    report.add("superblock_on", "wall_ms", sb_on.wall_ms);
    report.add("superblock_on", "wall_speedup", sb_speedup);
    report.add("superblock_on", "sim_cycle_delta",
               static_cast<double>(sb_on.sim_cycles -
                                   cache_off.sim_cycles));
    for (size_t i = 0; i < 4; ++i) {
        report.add(crypto_rows[i].json_key, "wall_ms",
                   crypto_measures[i].wall_ms);
        report.add(crypto_rows[i].json_key, "wall_speedup",
                   crypto_measures[i].wall_ms > 0
                       ? crypto_measures[0].wall_ms /
                             crypto_measures[i].wall_ms
                       : 0.0);
        report.add(crypto_rows[i].json_key, "sim_cycle_delta",
                   static_cast<double>(crypto_measures[i].sim_cycles -
                                       crypto_measures[0].sim_cycles));
    }
    auto report_measure = [&](const char *key, const MeasurementRun &run) {
        report.add(key, "wall_ms", run.wall_ms.p50());
        report.add(key, "wall_ms_min", run.wall_ms.min());
        report.add(key, "wall_ms_max", run.wall_ms.max());
        report.add(key, "sim_cycle_delta",
                   static_cast<double>(run.sim_cycles -
                                       measure_ref.sim_cycles));
    };
    report_measure("measure_reference", measure_ref);
    report_measure("measure_default", measure_fast);
    report.add("measure_default", "wall_speedup", measure_speedup);
    report.add("faultsim_idle", "wall_ms", fault_idle.wall_ms);
    report.add("faultsim_armed", "wall_ms", fault_armed.wall_ms);
    report.add("faultsim_armed", "site_checks",
               static_cast<double>(fault_armed.checks));
    report.add("faultsim_armed", "wall_overhead_pct",
               100 * fault_overhead);
    report.add("faultsim_armed", "sim_cycle_delta",
               static_cast<double>(fault_armed.sim_cycles -
                                   fault_idle.sim_cycles));
    report.add("sched_idle_1", "occlum_rps", sched_1.rps);
    report.add("sched_idle_1", "sched_visits",
               static_cast<double>(sched_1.visits));
    report.add("sched_idle_1", "wasted_retries",
               static_cast<double>(sched_1.wasted));
    report.add("sched_idle_1024", "occlum_rps", sched_1024.rps);
    report.add("sched_idle_1024", "sched_visits",
               static_cast<double>(sched_1024.visits));
    report.add("sched_idle_1024", "wasted_retries",
               static_cast<double>(sched_1024.wasted));
    report.write();
    return 0;
}

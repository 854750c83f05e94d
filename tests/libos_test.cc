/**
 * @file
 * Occlum LibOS integration tests: spawn/wait/IPC with SIPs inside a
 * single enclave, loader signature enforcement, syscall-return
 * validation, the writable encrypted FS seen identically by all SIPs
 * (Table 1), and the EIP baseline's contrasting behaviour.
 */
#include <gtest/gtest.h>

#include "baseline/eip_system.h"
#include "baseline/linux_system.h"
#include "libos/occlum_system.h"
#include "toolchain/minic.h"
#include "trace/metrics.h"
#include "verifier/verifier.h"

namespace occlum::libos {
namespace {

crypto::Key128
vkey()
{
    crypto::Key128 key{};
    key[3] = 0x77;
    return key;
}

/** Compile + verify + sign a MiniC program for Occlum. */
Bytes
build_signed(const std::string &source)
{
    auto out = toolchain::compile(source);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    verifier::Verifier verifier(vkey());
    auto signed_image = verifier.verify_and_sign(out.value().image);
    EXPECT_TRUE(signed_image.ok())
        << (signed_image.ok() ? "" : signed_image.error().message);
    return signed_image.value().serialize();
}

struct OcclumHarness {
    sgx::Platform platform;
    host::HostFileStore binaries;
    std::unique_ptr<OcclumSystem> sys;

    explicit OcclumHarness(int slots = 8)
    {
        OcclumSystem::Config config;
        config.num_slots = slots;
        config.verifier_key = vkey();
        sys = std::make_unique<OcclumSystem>(platform, binaries, config);
    }

    void
    add_program(const std::string &name, const std::string &source)
    {
        binaries.put(name, build_signed(source));
    }

    int64_t
    run_main(const std::string &source,
             const std::vector<std::string> &argv = {"main"})
    {
        add_program("main", source);
        auto pid = sys->spawn("main", argv);
        EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
        if (!pid.ok()) return -999;
        sys->run();
        auto code = sys->exit_code(pid.value());
        return code.ok() ? code.value() : -998;
    }
};

TEST(Occlum, RunsHelloWorld)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(
                  "func main() { println(\"hello from a SIP\");"
                  " return 0; }"),
              0);
    EXPECT_EQ(h.sys->console(), "hello from a SIP\n");
}

TEST(Occlum, RejectsUnsignedBinaries)
{
    OcclumHarness h;
    auto out = toolchain::compile("func main() { return 0; }");
    ASSERT_TRUE(out.ok());
    h.binaries.put("unsigned", out.value().image.serialize());
    EXPECT_FALSE(h.sys->spawn("unsigned", {"unsigned"}).ok());
}

TEST(Occlum, RejectsBinariesSignedWithWrongKey)
{
    OcclumHarness h;
    auto out = toolchain::compile("func main() { return 0; }");
    ASSERT_TRUE(out.ok());
    crypto::Key128 wrong{};
    wrong[0] = 0x99;
    verifier::Verifier impostor(wrong);
    auto badly_signed = impostor.verify_and_sign(out.value().image);
    ASSERT_TRUE(badly_signed.ok());
    h.binaries.put("bad", badly_signed.value().serialize());
    EXPECT_FALSE(h.sys->spawn("bad", {"bad"}).ok());
}

TEST(Occlum, SpawnChildAndWait)
{
    OcclumHarness h;
    h.add_program("child", R"(
func main() {
    print("child ");
    return 33;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte path[16] = "child";
func main() {
    var argvv[1];
    argvv[0] = path;
    var pid = spawn(path, argvv, 1);
    if (pid < 0) { return 1; }
    var status = waitpid(pid);
    print("parent");
    return status;
}
)"),
              33);
    EXPECT_EQ(h.sys->console(), "child parent");
}

TEST(Occlum, PipeBetweenSips)
{
    OcclumHarness h;
    h.add_program("producer", R"(
func main() {
    var i = 0;
    while (i < 5) {
        print("msg");
        i = i + 1;
    }
    return 0;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte path[16] = "producer";
global byte buf[256];
func main() {
    var fds[2];
    pipe(fds);
    var io[3];
    io[0] = 0 - 1;       // inherit stdin
    io[1] = fds[1];      // child stdout -> pipe write end
    io[2] = 0 - 1;
    var argvv[1];
    argvv[0] = path;
    var pid = syscall(5, path, strlen(path), argvv, 1, io);
    close(fds[1]);
    var total = 0;
    while (1) {
        var n = read(fds[0], buf, 256);
        if (n <= 0) { break; }
        total = total + n;
    }
    waitpid(pid);
    return total;  // 5 * 3 bytes
}
)"),
              15);
}

TEST(Occlum, SharedWritableEncryptedFs)
{
    // Table 1's headline: SIPs share one *writable* encrypted FS with
    // a unified view. The writer SIP creates a file; the reader SIP
    // (spawned after) sees it immediately.
    OcclumHarness h;
    h.add_program("writer", R"(
global byte p[16] = "/shared.txt";
func main() {
    var fd = open(p, 0x242);   // CREAT|TRUNC|WRONLY
    if (fd < 0) { return 1; }
    write(fd, "occlum-data", 11);
    close(fd);
    return 0;
}
)");
    h.add_program("reader", R"(
global byte p[16] = "/shared.txt";
global byte buf[64];
func main() {
    var fd = open(p, 0);
    if (fd < 0) { return 1; }
    var n = read(fd, buf, 64);
    close(fd);
    print(buf);
    return n;
}
)");
    EXPECT_EQ(h.run_main(R"(
global byte w[16] = "writer";
global byte r[16] = "reader";
func main() {
    var argvv[1];
    argvv[0] = w;
    var pid = spawn(w, argvv, 1);
    if (waitpid(pid) != 0) { return 100; }
    argvv[0] = r;
    pid = spawn(r, argvv, 1);
    return waitpid(pid);
}
)"),
              11);
    EXPECT_EQ(h.sys->console(), "occlum-data");
    // And the data is really encrypted at rest.
    ASSERT_TRUE(h.sys->fs().sync().ok());
    std::string needle = "occlum-data";
    for (uint64_t b = 0; b < h.sys->device().block_count(); ++b) {
        const Bytes &raw = h.sys->device().raw_block(b);
        if (raw.empty()) continue;
        auto it = std::search(raw.begin(), raw.end(), needle.begin(),
                              needle.end());
        EXPECT_EQ(it, raw.end());
    }
}

TEST(Occlum, DevAndProcSpecialFiles)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(R"(
global byte devnull[16] = "/dev/null";
global byte devzero[16] = "/dev/zero";
global byte meminfo[24] = "/proc/meminfo";
global byte buf[64];
func main() {
    var fd = open(devnull, 1);
    var ok = write(fd, "x", 1) == 1;
    close(fd);
    fd = open(devzero, 0);
    buf[0] = 'x';
    read(fd, buf, 8);
    ok = ok + (bload(buf) == 0);
    close(fd);
    fd = open(meminfo, 0);
    var n = read(fd, buf, 64);
    ok = ok + (n > 0);
    close(fd);
    return ok;
}
)"),
              3);
}

TEST(Occlum, MmapGivesZeroedMemory)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(R"(
func main() {
    var p = mmap(8192);
    if (p <= 0) { return 1; }
    var i = 0;
    while (i < 8192) {
        if (bload(p + i) != 0) { return 2; }
        i = i + 512;
    }
    wstore(p, 12345);
    return wload(p) == 12345;
}
)"),
              1);
}

TEST(Occlum, SlotsRecycleAfterExit)
{
    OcclumHarness h(2); // only two slots
    h.add_program("noop", "func main() { return 0; }");
    EXPECT_EQ(h.run_main(R"(
global byte path[8] = "noop";
func main() {
    var argvv[1];
    argvv[0] = path;
    // 5 sequential children through 1 remaining slot: recycling works.
    var i = 0;
    while (i < 5) {
        var pid = spawn(path, argvv, 1);
        if (pid < 0) { return 1; }
        if (waitpid(pid) != 0) { return 2; }
        i = i + 1;
    }
    return 0;
}
)"),
              0);
    EXPECT_EQ(h.sys->free_slots(), 2);
}

TEST(Occlum, SpawnIntoFreshSlotKeepsOtherSipsBlocks)
{
    // All SIPs share one enclave address space. Loading a SIP into a
    // slot whose pages no instruction fetch has read cannot change any
    // usable cached block, so it must not advance the code generation.
    OcclumHarness h(2);
    auto &invalidations =
        trace::Registry::instance().counter("vm.block_cache.invalidations");
    h.add_program("child", R"(
func main() {
    var s = 0;
    var i = 0;
    while (i < 50) { s = s + i; i = i + 1; }
    return s - 1225;
}
)");
    const uint64_t gen = h.sys->enclave().mem().code_generation();
    const uint64_t inval = invalidations.value();
    // The parent warms its blocks, spawns the child into the second
    // (never used) slot, and reruns the same loop.
    EXPECT_EQ(h.run_main(R"(
global byte path[16] = "child";
func work() {
    var s = 0;
    var i = 0;
    while (i < 200) { s = s + i * 3; i = i + 1; }
    return s;
}
func main() {
    var before = work();
    var argvv[1];
    argvv[0] = path;
    var pid = spawn(path, argvv, 1);
    if (pid < 0) { return 1; }
    if (waitpid(pid) != 0) { return 2; }
    if (work() != before) { return 3; }
    return 0;
}
)"),
              0);
    EXPECT_EQ(h.sys->enclave().mem().code_generation(), gen);
    EXPECT_EQ(invalidations.value(), inval);

    // Reusing the parent's slot, whose code ran under the current
    // generation, must still invalidate, and the new SIP runs its own
    // code rather than stale blocks of the old one.
    h.add_program("seven", "func main() { return 7; }");
    auto pid = h.sys->spawn("seven", {"seven"});
    ASSERT_TRUE(pid.ok());
    EXPECT_GT(h.sys->enclave().mem().code_generation(), gen);
    h.sys->run();
    auto code = h.sys->exit_code(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 7);
}

TEST(Occlum, SpawnCostScalesWithBinarySizeNotEnclaveCreation)
{
    // Fig. 6a's mechanism: Occlum spawn = fixed + per-page copy.
    OcclumHarness h;
    h.add_program("noop", "func main() { return 0; }");
    uint64_t small_before = h.platform.clock().cycles();
    auto pid = h.sys->spawn("noop", {"noop"});
    ASSERT_TRUE(pid.ok());
    uint64_t small_cost = h.platform.clock().cycles() - small_before;
    h.sys->run();

    // A padded (large) binary in a fresh system.
    toolchain::CompileOptions big;
    big.pad_code_to = 512 << 10;
    auto big_out = toolchain::compile("func main() { return 0; }", big);
    ASSERT_TRUE(big_out.ok());
    verifier::Verifier verifier(vkey());
    auto signed_big = verifier.verify_and_sign(big_out.value().image);
    ASSERT_TRUE(signed_big.ok());

    OcclumHarness h2;
    h2.binaries.put("big", signed_big.value().serialize());
    uint64_t before = h2.platform.clock().cycles();
    auto pid2 = h2.sys->spawn("big", {"big"});
    ASSERT_TRUE(pid2.ok());
    uint64_t big_cost = h2.platform.clock().cycles() - before;
    EXPECT_GT(big_cost, small_cost);
    // Far cheaper than creating a 256 MiB enclave.
    uint64_t eip_floor = CostModel::pages_for(
                             CostModel::kEipMinEnclaveBytes) *
                         CostModel::kEaddEextendCyclesPerPage;
    EXPECT_LT(big_cost, eip_floor / 10);
}

TEST(Occlum, ArgvArrivesViaPcb)
{
    OcclumHarness h;
    EXPECT_EQ(h.run_main(R"(
global byte buf[64];
func main() {
    if (argc() != 3) { return 1; }
    getarg(2, buf, 64);
    println(buf);
    return 0;
}
)",
                         {"main", "alpha", "beta"}),
              0);
    EXPECT_EQ(h.sys->console(), "beta\n");
}

// ---- EIP baseline contrast ------------------------------------------------

Bytes
build_plain(const std::string &source)
{
    toolchain::CompileOptions options;
    options.instrument = toolchain::InstrumentOptions::none();
    auto out = toolchain::compile(source, options);
    EXPECT_TRUE(out.ok());
    return out.value().image.serialize();
}

TEST(Eip, RunsProgramsInPerProcessEnclaves)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    binaries.put("hello",
                 build_plain("func main() { println(\"eip\");"
                             " return 5; }"));
    baseline::EipSystem sys(platform, binaries);
    auto pid = sys.spawn("hello", {"hello"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 5);
    EXPECT_EQ(sys.console(), "eip\n");
}

TEST(Eip, SpawnPaysEnclaveCreation)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    binaries.put("noop", build_plain("func main() { return 0; }"));
    baseline::EipSystem sys(platform, binaries);
    uint64_t before = platform.clock().cycles();
    ASSERT_TRUE(sys.spawn("noop", {"noop"}).ok());
    uint64_t cost = platform.clock().cycles() - before;
    // Must be in the ballpark of measuring a 256 MiB enclave: ~0.6 s.
    EXPECT_GT(SimClock::cycles_to_seconds(cost), 0.3);
}

TEST(Eip, SharedFsIsReadOnly)
{
    sgx::Platform platform;
    host::HostFileStore binaries;
    binaries.put("prog", build_plain(R"(
global byte ro[16] = "/data.bin";
global byte buf[16];
func main() {
    var fd = open(ro, 0);       // read: fine
    if (fd < 0) { return 1; }
    var n = read(fd, buf, 16);
    close(fd);
    fd = open(ro, 0x41);        // write|creat: EROFS
    if (fd >= 0) { return 2; }
    return n;
}
)"));
    Bytes data = {'d', 'a', 't', 'a'};
    binaries.put("/data.bin", data);
    baseline::EipSystem sys(platform, binaries);
    auto pid = sys.spawn("prog", {"prog"});
    ASSERT_TRUE(pid.ok());
    sys.run();
    EXPECT_EQ(sys.exit_code(pid.value()).value(), 4);
}

// ---- dead-process teardown -------------------------------------------------

/** Spawn `runs` short processes one after another and check that each
 *  dead record has released its CPU and memory. */
void
expect_dead_processes_released(oskit::Kernel &sys, const std::string &name,
                               int runs)
{
    for (int i = 0; i < runs; ++i) {
        auto pid = sys.spawn(name, {name});
        ASSERT_TRUE(pid.ok()) << pid.error().message;
        sys.run();
        EXPECT_EQ(sys.exit_code(pid.value()).value(), 3);
        const oskit::Process *record = sys.find_record(pid.value());
        ASSERT_NE(record, nullptr);
        EXPECT_EQ(record->state, oskit::ProcState::kDead);
        EXPECT_EQ(record->cpu, nullptr);
        EXPECT_EQ(record->space, nullptr);
        EXPECT_EQ(record->owned_cpu, nullptr);
        EXPECT_EQ(record->owned_space, nullptr);
    }
}

TEST(Teardown, DeadProcessesReleaseCpuAndMemoryOnEveryPersonality)
{
    const char *source = "func main() { return 3; }";
    {
        SimClock clock;
        host::HostFileStore binaries;
        binaries.put("p", build_plain(source));
        baseline::LinuxSystem sys(clock, binaries);
        expect_dead_processes_released(sys, "p", 4);
    }
    {
        // EIP frees the process's enclave at death; a CPU or space
        // pointer kept past that would point into freed memory.
        sgx::Platform platform;
        host::HostFileStore binaries;
        binaries.put("p", build_plain(source));
        baseline::EipSystem sys(platform, binaries);
        expect_dead_processes_released(sys, "p", 4);
    }
    {
        OcclumHarness h(2);
        h.add_program("p", source);
        expect_dead_processes_released(*h.sys, "p", 4);
    }
}

} // namespace
} // namespace occlum::libos

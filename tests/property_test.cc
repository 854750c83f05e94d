/**
 * @file
 * Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
 *  - pipeline property: every MiniC program compiled with *any*
 *    instrumentation level computes the same result on the Linux
 *    model, and the fully-instrumented build verifies and runs to the
 *    same result under Occlum;
 *  - EncFs round-trip property across file sizes and chunk sizes;
 *  - verifier robustness: random byte mutations of a signed image are
 *    never loadable by the Occlum loader (signature), and mutated
 *    *unsigned* images never crash the verifier.
 */
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <sstream>

#include "base/rng.h"
#include "baseline/linux_system.h"
#include "libos/occlum_system.h"
#include "toolchain/minic.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

namespace occlum {
namespace {

// ---------------------------------------------------------------------
// Equivalence across instrumentation levels and systems
// ---------------------------------------------------------------------

struct ProgramCase {
    const char *name;
    const char *source;
};

// Without this gtest prints the struct's raw bytes, i.e. the string
// pointers, so the discovered ctest names would change with ASLR.
void
PrintTo(const ProgramCase &c, std::ostream *os)
{
    *os << c.name;
}

class InstrumentEquivalence
    : public ::testing::TestWithParam<ProgramCase>
{
};

int64_t
run_linux(const Bytes &image)
{
    SimClock clock;
    host::HostFileStore files;
    files.put("p", image);
    baseline::LinuxSystem sys(clock, files);
    auto pid = sys.spawn("p", {"p"});
    EXPECT_TRUE(pid.ok());
    sys.run();
    auto code = sys.exit_code(pid.value());
    return code.ok() ? code.value() : -999;
}

int64_t
run_occlum(const Bytes &image)
{
    sgx::Platform platform;
    host::HostFileStore files;
    files.put("p", image);
    libos::OcclumSystem::Config config;
    config.verifier_key = workloads::bench_verifier_key();
    libos::OcclumSystem sys(platform, files, config);
    auto pid = sys.spawn("p", {"p"});
    EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
    if (!pid.ok()) return -998;
    sys.run();
    auto code = sys.exit_code(pid.value());
    return code.ok() ? code.value() : -997;
}

TEST_P(InstrumentEquivalence, SameResultEverywhere)
{
    const ProgramCase &c = GetParam();
    toolchain::CompileOptions plain;
    plain.instrument = toolchain::InstrumentOptions::none();
    auto base = toolchain::compile(c.source, plain);
    ASSERT_TRUE(base.ok()) << base.error().message;
    int64_t expect = run_linux(base.value().image.serialize());

    // Every instrumentation level agrees on the Linux model.
    for (auto instrument :
         {toolchain::InstrumentOptions{true, false, false, false},
          toolchain::InstrumentOptions{true, true, false, false},
          toolchain::InstrumentOptions::naive(),
          toolchain::InstrumentOptions{true, true, true, true}}) {
        toolchain::CompileOptions options;
        options.instrument = instrument;
        auto out = toolchain::compile(c.source, options);
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_EQ(run_linux(out.value().image.serialize()), expect)
            << c.name;
    }

    // The full build verifies and produces the same result as a SIP.
    workloads::ProgramBuild build = workloads::build_program(c.source);
    EXPECT_EQ(run_occlum(build.occlum), expect) << c.name;
}

const ProgramCase kPrograms[] = {
    {"collatz", R"(
func main() {
    var n = 27;
    var steps = 0;
    while (n != 1) {
        if ((n % 2) == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
    }
    return steps;  // 111
}
)"},
    {"sieve", R"(
global byte comp[1000];
func main() {
    var count = 0;
    for (i = 2; i < 1000; i = i + 1) {
        if (comp[i] == 0) {
            count = count + 1;
            var j = i + i;
            while (j < 1000) {
                comp[j] = 1;
                j = j + i;
            }
        }
    }
    return count % 256;  // 168 primes below 1000
}
)"},
    {"strings", R"(
global byte buf[128];
func main() {
    strcpy(buf, "alpha");
    strcat(buf, "-beta");
    if (strcmp(buf, "alpha-beta") != 0) { return 1; }
    if (strlen(buf) != 10) { return 2; }
    if (memcmp(buf, "alpha", 5) != 0) { return 3; }
    return atoi("123") - 23;  // 100
}
)"},
    {"heapsort", R"(
global int a[128];
func main() {
    var seed = 7;
    for (i = 0; i < 128; i = i + 1) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        a[i] = seed % 1000;
    }
    // insertion sort
    for (i = 1; i < 128; i = i + 1) {
        var key = a[i];
        var j = i - 1;
        while (j >= 0) {
            if (a[j] <= key) { break; }
            a[j + 1] = a[j];
            j = j - 1;
        }
        a[j + 1] = key;
    }
    for (i = 1; i < 128; i = i + 1) {
        if (a[i - 1] > a[i]) { return 255; }
    }
    return a[64] % 251;
}
)"},
    {"pointers", R"(
func main() {
    var p = malloc(256);
    if (p == 0) { return 1; }
    for (i = 0; i < 32; i = i + 1) { wstore(p + i * 8, i * i); }
    var sum = 0;
    for (i = 0; i < 32; i = i + 1) { sum = sum + wload(p + i * 8); }
    return sum % 256;  // 9920 % 256 = 192
}
)"},
    {"recursion", R"(
func ack(m, n) {
    if (m == 0) { return n + 1; }
    if (n == 0) { return ack(m - 1, 1); }
    return ack(m - 1, ack(m, n - 1));
}
func main() { return ack(2, 3); }  // 9
)"},
};

INSTANTIATE_TEST_SUITE_P(
    Programs, InstrumentEquivalence, ::testing::ValuesIn(kPrograms),
    [](const ::testing::TestParamInfo<ProgramCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// EncFs round trips across (file size, chunk size)
// ---------------------------------------------------------------------

class EncFsRoundTrip
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(EncFsRoundTrip, WriteInChunksReadBack)
{
    auto [file_size, chunk] = GetParam();
    SimClock clock;
    host::BlockDevice device(clock, 4096);
    libos::EncFs::Config config;
    config.key[0] = 9;
    libos::EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());

    Rng rng(file_size * 31 + chunk);
    Bytes data(file_size);
    for (auto &b : data) {
        b = static_cast<uint8_t>(rng.next());
    }
    auto inode = fs.open_inode("/f", true, false);
    ASSERT_TRUE(inode.ok());
    for (size_t off = 0; off < data.size(); off += chunk) {
        size_t n = std::min(chunk, data.size() - off);
        ASSERT_TRUE(
            fs.write(inode.value(), off, data.data() + off, n).ok());
    }
    ASSERT_TRUE(fs.sync().ok());
    auto back = fs.read_file("/f");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EncFsRoundTrip,
    ::testing::Combine(::testing::Values(1, 100, 4096, 5000, 200000),
                       ::testing::Values(7, 512, 4096)));

// ---------------------------------------------------------------------
// EncFs random-operation equivalence with a shadow file
// ---------------------------------------------------------------------

/** (cache_blocks, readahead_blocks) — stresses the eviction path with
 *  a 1-block cache and the prefetch path with readahead on. */
class EncFsRandomOps
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(EncFsRandomOps, MatchesShadowFile)
{
    auto [cache_blocks, readahead] = GetParam();
    constexpr uint64_t kMaxSize = 256 * 1024;
    constexpr uint64_t kMaxIo = 10000; // spans multiple blocks
    constexpr int kOps = 300;

    SimClock clock;
    host::BlockDevice device(clock, 4096);
    libos::EncFs::Config config;
    config.key[0] = 77;
    config.cache_blocks = cache_blocks;
    config.readahead_blocks = readahead;
    libos::EncFs fs(device, clock, config);
    ASSERT_TRUE(fs.mkfs().ok());
    auto inode = fs.open_inode("/rand", true, false);
    ASSERT_TRUE(inode.ok());

    Bytes shadow; // what the file must logically contain
    Rng rng(cache_blocks * 1000003 + readahead * 131 + 5);
    for (int op = 0; op < kOps; ++op) {
        uint64_t kind = rng.next() % 10;
        uint64_t off = rng.next() % kMaxSize;
        uint64_t len = 1 + rng.next() % kMaxIo;
        if (kind < 4) { // write random bytes (may extend, may hole-fill)
            Bytes data(len);
            for (auto &b : data) {
                b = static_cast<uint8_t>(rng.next());
            }
            auto n = fs.write(inode.value(), off, data.data(), len);
            ASSERT_TRUE(n.ok());
            ASSERT_EQ(n.value(), static_cast<int64_t>(len));
            if (off + len > shadow.size()) {
                shadow.resize(off + len, 0); // implicit hole = zeros
            }
            std::copy(data.begin(), data.end(), shadow.begin() + off);
        } else if (kind < 9) { // read, pread-style short at EOF
            Bytes out(len);
            auto n = fs.read(inode.value(), off, out.data(), len);
            ASSERT_TRUE(n.ok());
            uint64_t expect =
                off >= shadow.size()
                    ? 0
                    : std::min<uint64_t>(len, shadow.size() - off);
            ASSERT_EQ(n.value(), static_cast<int64_t>(expect));
            for (uint64_t i = 0; i < expect; ++i) {
                ASSERT_EQ(out[i], shadow[off + i]) << "op " << op;
            }
        } else { // flush everything to the device
            ASSERT_TRUE(fs.sync().ok());
        }
    }

    auto size = fs.file_size(inode.value());
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(), shadow.size());
    ASSERT_TRUE(fs.sync().ok());

    // Remount from the device: everything must have hit persistent
    // storage with valid MACs and still equal the shadow.
    libos::EncFs fs2(device, clock, config);
    ASSERT_TRUE(fs2.mount().ok());
    auto back = fs2.read_file("/rand");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), shadow);
}

INSTANTIATE_TEST_SUITE_P(
    CacheShapes, EncFsRandomOps,
    ::testing::Combine(::testing::Values(1, 2, 2048),
                       ::testing::Values(0, 8)));

// ---------------------------------------------------------------------
// Mutation robustness
// ---------------------------------------------------------------------

class MutationRobustness : public ::testing::TestWithParam<int>
{
};

TEST_P(MutationRobustness, MutatedImagesNeverLoadOrCrash)
{
    workloads::ProgramBuild build = workloads::build_program(
        "func main() { return 5; }");
    Rng rng(GetParam());

    // (a) one-byte mutations of the *signed* image: the Occlum loader
    //     must reject every one of them (HMAC signature).
    sgx::Platform platform;
    host::HostFileStore files;
    libos::OcclumSystem::Config config;
    config.verifier_key = workloads::bench_verifier_key();
    libos::OcclumSystem sys(platform, files, config);
    for (int trial = 0; trial < 20; ++trial) {
        Bytes mutated = build.occlum;
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<uint8_t>(1 + rng.next_below(255));
        files.put("m", mutated);
        auto pid = sys.spawn("m", {"m"});
        EXPECT_FALSE(pid.ok());
    }

    // (b) random mutations fed straight to the verifier: must never
    //     crash, and (since the image content changed) must reject or
    //     accept deterministically twice in a row.
    //     Every report is also pinned, so a verifier rewrite must
    //     reproduce the same verdicts on malformed input.
    verifier::Verifier verifier(workloads::bench_verifier_key());
    std::vector<std::string> reports;
    for (int trial = 0; trial < 10; ++trial) {
        Bytes mutated = build.occlum;
        for (int i = 0; i < 8; ++i) {
            mutated[rng.next_below(mutated.size())] =
                static_cast<uint8_t>(rng.next());
        }
        auto parsed = oelf::Image::parse(mutated);
        if (!parsed.ok()) {
            reports.push_back("unparsed");
            continue;
        }
        auto first = verifier.verify(parsed.value());
        auto second = verifier.verify(parsed.value());
        EXPECT_EQ(first.ok, second.ok);
        EXPECT_EQ(first.failed_stage, second.failed_stage);
        std::ostringstream desc;
        desc << "ok=" << first.ok << " stage=" << first.failed_stage
             << " reason='" << first.reason
             << "' at=" << first.fail_address
             << " reach=" << first.reachable_instructions
             << " labels=" << first.cfi_labels;
        reports.push_back(desc.str());
    }
    static const std::map<int, std::vector<std::string>> golden = {
        {1,
         {
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x112a: bad mem operand' at=298 reach=0 labels=0",
             "ok=0 stage=4 reason='unprovable memory access: load r10, [r15+43336] [ea kind=2 lo=1100104 hi=2218247 base r15 kind=2 lo=1056768 hi=2174911]' at=1146 reach=1599 labels=93",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1041: invalid opcode' at=65 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1bcc: invalid opcode' at=3020 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x35de: invalid opcode' at=9694 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x176c: bad bnd reg' at=1900 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1031: bad bnd reg' at=49 reach=0 labels=0",
             "unparsed",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x26bc: bad mem operand' at=5820 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x159f: bad reg reg' at=1439 reach=0 labels=0",
         }},
        {2,
         {
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x3563: bad mem operand' at=9571 reach=0 labels=0",
             "unparsed",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x146f: bad reg reg' at=1135 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1b45: bad reg operand' at=2885 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x2499: bad bnd mem' at=5273 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1aa5: bad reg reg' at=2725 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x20e8: bad bnd mem' at=4328 reach=0 labels=0",
             "ok=0 stage=1 reason='direct transfer outside the code region' at=3920 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x18ae: bad mem operand' at=2222 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1457: bad cfi_label magic' at=1111 reach=0 labels=0",
         }},
        {3,
         {
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1d26: bad reg operand' at=3366 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x192e: bad reg imm32' at=2350 reach=0 labels=0",
             "unparsed",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x17cf: bad mem operand' at=1999 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1498: bad mem operand' at=1176 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x11b8: bad mem operand' at=440 reach=0 labels=0",
             "ok=0 stage=4 reason='unprovable stack pop' at=1516 reach=1599 labels=93",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x22da: bad mem operand' at=4826 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x2c79: bad reg reg' at=7289 reach=0 labels=0",
             "unparsed",
         }},
        {4,
         {
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x17df: invalid opcode' at=2015 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1310: bad cfi_label magic' at=784 reach=0 labels=0",
             "ok=0 stage=1 reason='direct transfer outside the code region' at=4347 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1774: invalid opcode' at=1908 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x1f28: bad reg reg' at=3880 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x36f7: bad mem operand' at=9975 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x21be: bad mem operand' at=4542 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x195e: bad mem operand' at=2398 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x13b2: bad reg reg' at=946 reach=0 labels=0",
             "ok=0 stage=1 reason='undecodable reachable bytes: decode @0x16a6: bad bnd mem' at=1702 reach=0 labels=0",
         }},
    };
    auto it = golden.find(GetParam());
    std::vector<std::string> expected;
    if (it != golden.end()) {
        expected = it->second;
    }
    EXPECT_EQ(reports, expected);
    if (reports != expected) {
        for (const std::string &r : reports) {
            std::cout << "             \"" << r << "\",\n";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationRobustness,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace occlum

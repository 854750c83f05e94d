/**
 * @file
 * End-to-end toolchain tests: MiniC programs are compiled (with and
 * without MMDSFI instrumentation) and executed on the Linux-model
 * kernel; their console output and exit codes are checked.
 */
#include <gtest/gtest.h>

#include "baseline/linux_system.h"
#include "toolchain/minic.h"

namespace occlum::toolchain {
namespace {

struct RunResult {
    int64_t exit_code;
    std::string console;
    uint64_t instructions;
};

RunResult
run_minic(const std::string &source, const CompileOptions &options = {},
          const std::vector<std::string> &argv = {"prog"})
{
    auto compiled = compile(source, options);
    EXPECT_TRUE(compiled.ok())
        << (compiled.ok() ? "" : compiled.error().message);
    if (!compiled.ok()) {
        return {-999, "", 0};
    }
    host::HostFileStore files;
    files.put("prog", compiled.value().image.serialize());
    SimClock clock;
    baseline::LinuxSystem sys(clock, files);
    auto pid = sys.spawn("prog", argv);
    EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
    if (!pid.ok()) {
        return {-998, "", 0};
    }
    sys.run();
    auto code = sys.exit_code(pid.value());
    EXPECT_TRUE(code.ok());
    return {code.ok() ? code.value() : -997, sys.console(),
            sys.stats().user_instructions};
}

TEST(MiniC, ReturnsExitCode)
{
    RunResult r = run_minic("func main() { return 42; }");
    EXPECT_EQ(r.exit_code, 42);
}

TEST(MiniC, PrintsHelloWorld)
{
    RunResult r = run_minic(
        "func main() { println(\"Hello, World!\"); return 0; }");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "Hello, World!\n");
}

TEST(MiniC, ArithmeticAndControlFlow)
{
    // Sum of odd squares below 100, computed the long way.
    RunResult r = run_minic(R"(
func square(x) { return x * x; }
func main() {
    var total = 0;
    var i = 0;
    while (i < 100) {
        if ((i % 2) == 1) {
            total = total + square(i);
        }
        i = i + 1;
    }
    print_int(total);
    println("");
    return 0;
}
)");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "166650\n"); // sum of odd i^2, i<100
}

TEST(MiniC, GlobalArraysAndForLoops)
{
    RunResult r = run_minic(R"(
global int fib[30];
func main() {
    fib[0] = 0;
    fib[1] = 1;
    for (i = 2; i < 30; i = i + 1) {
        fib[i] = fib[i - 1] + fib[i - 2];
    }
    return fib[29] % 251;
}
)");
    EXPECT_EQ(r.exit_code, 514229 % 251);
}

TEST(MiniC, ByteArraysAndStrings)
{
    RunResult r = run_minic(R"(
global byte msg[64] = "occlum";
func main() {
    var n = strlen(msg);
    bstore(msg + n, '!');
    bstore(msg + n + 1, 0);
    println(msg);
    return strcmp(msg, "occlum!");
}
)");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "occlum!\n");
}

TEST(MiniC, LocalArraysRecursionMalloc)
{
    RunResult r = run_minic(R"(
func fact(n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
func main() {
    var buf[8];
    buf[0] = fact(10);
    var p = malloc(128);
    if (p == 0) { return 1; }
    wstore(p, buf[0]);
    return wload(p) == 3628800;
}
)");
    EXPECT_EQ(r.exit_code, 1);
}

TEST(MiniC, ArgcArgv)
{
    RunResult r = run_minic(R"(
global byte argbuf[64];
func main() {
    print_int(argc());
    getarg(1, argbuf, 64);
    print(" ");
    println(argbuf);
    return 0;
}
)",
                            CompileOptions{}, {"prog", "banana"});
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.console, "2 banana\n");
}

TEST(MiniC, NegativeDivisionAndShifts)
{
    RunResult r = run_minic(R"(
func main() {
    var a = -100;
    var b = a / 7;      // -14
    var c = a % 7;      // -2
    var d = (1 << 40) >> 35; // 32
    var e = (-64) >> 3; // arithmetic: -8
    return (b == -14) + (c == -2) + (d == 32) + (e == -8);
}
)");
    EXPECT_EQ(r.exit_code, 4);
}

TEST(MiniC, LogicalOperatorsShortCircuit)
{
    RunResult r = run_minic(R"(
global int side_effects;
func bump() { side_effects = side_effects + 1; return 1; }
func main() {
    var a = 0;
    if (a && bump()) { return 100; }       // bump not called
    if (!a || bump()) { a = 1; }           // bump not called
    if (a && bump()) { a = 2; }            // bump called
    return side_effects * 10 + a;
}
)");
    EXPECT_EQ(r.exit_code, 12);
}

TEST(MiniC, CompileErrors)
{
    const char *bad_sources[] = {
        "func main() { return undefined_var; }",
        "func main() { nosuchfn(1); }",
        "func main() { return 1; ",              // unterminated block
        "global int x; global int x; func main() { return 0; }",
        "func main(a, b, c, d, e, f) { return 0; }", // too many params
    };
    for (const char *src : bad_sources) {
        auto out = compile(src);
        EXPECT_FALSE(out.ok()) << src;
    }
}

TEST(MiniC, InstrumentationModesAllRun)
{
    const char *src = R"(
global int data[256];
func main() {
    for (i = 0; i < 256; i = i + 1) { data[i] = i * 3; }
    var sum = 0;
    for (i = 0; i < 256; i = i + 1) { sum = sum + data[i]; }
    return sum % 97;
}
)";
    int64_t expect = (255 * 256 / 2 * 3) % 97;
    for (auto instrument :
         {InstrumentOptions::none(), InstrumentOptions::naive(),
          InstrumentOptions::full()}) {
        CompileOptions options;
        options.instrument = instrument;
        RunResult r = run_minic(src, options);
        EXPECT_EQ(r.exit_code, expect);
    }
}

TEST(MiniC, InstrumentationAddsOverhead)
{
    const char *src = R"(
global int data[512];
func main() {
    for (i = 0; i < 512; i = i + 1) { data[i] = i; }
    var sum = 0;
    var round = 0;
    while (round < 50) {
        for (i = 0; i < 512; i = i + 1) { sum = sum + data[i]; }
        round = round + 1;
    }
    return sum % 251;
}
)";
    CompileOptions none;
    none.instrument = InstrumentOptions::none();
    CompileOptions naive;
    naive.instrument = InstrumentOptions::naive();
    CompileOptions full;
    full.instrument = InstrumentOptions::full();

    RunResult r_none = run_minic(src, none);
    RunResult r_naive = run_minic(src, naive);
    RunResult r_full = run_minic(src, full);
    ASSERT_EQ(r_none.exit_code, r_naive.exit_code);
    ASSERT_EQ(r_none.exit_code, r_full.exit_code);
    // Naive instrumentation costs more than optimized, which costs
    // more than none (the Fig. 7b ordering).
    EXPECT_GT(r_naive.instructions, r_full.instructions);
    EXPECT_GT(r_full.instructions, r_none.instructions);
}

TEST(MiniC, OptimizerStatsReported)
{
    const char *src = R"(
global int data[512];
func main() {
    var sum = 0;
    for (i = 0; i < 512; i = i + 1) { sum = sum + data[i]; }
    return sum;
}
)";
    CompileOptions naive;
    naive.instrument = InstrumentOptions::naive();
    auto naive_out = compile(src, naive);
    ASSERT_TRUE(naive_out.ok());
    EXPECT_EQ(naive_out.value().stats.mem_guards_hoisted, 0u);
    EXPECT_EQ(naive_out.value().stats.mem_guards_elided_static, 0u);

    CompileOptions full;
    full.instrument = InstrumentOptions::full();
    auto full_out = compile(src, full);
    ASSERT_TRUE(full_out.ok());
    // The array walk should be hoisted and frame slots elided.
    EXPECT_GT(full_out.value().stats.mem_guards_hoisted, 0u);
    EXPECT_GT(full_out.value().stats.mem_guards_elided_static, 0u);
    EXPECT_GT(full_out.value().stats.cfi_labels, 0u);
    EXPECT_GT(full_out.value().stats.cfi_guards, 0u);
}

TEST(MiniC, ImageRoundTripsAndSigns)
{
    auto out = compile("func main() { return 7; }");
    ASSERT_TRUE(out.ok());
    oelf::Image &image = out.value().image;
    crypto::Key128 key{};
    key[0] = 0x42;
    image.sign(key);
    Bytes raw = image.serialize();
    auto parsed = oelf::Image::parse(raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().check_signature(key));
    EXPECT_EQ(parsed.value().entry_offset, image.entry_offset);
    EXPECT_EQ(parsed.value().code, image.code);
    // Tampering breaks the signature.
    parsed.value().code[0] ^= 1;
    EXPECT_FALSE(parsed.value().check_signature(key));
}

TEST(Oelf, GoldenContentDigestAndSignature)
{
    // A hand-built image (not compiler output, so codegen changes do
    // not move it) with multi-block code, data and a symbol table.
    oelf::Image image;
    image.entry_offset = 8;
    image.code.resize(1000);
    for (size_t i = 0; i < image.code.size(); ++i) {
        image.code[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    image.data.resize(150);
    for (size_t i = 0; i < image.data.size(); ++i) {
        image.data[i] = static_cast<uint8_t>(i * 13 + 1);
    }
    image.bss_size = 4096;
    image.code_reserve = 0x10000;
    image.flags = oelf::kFlagInstrumented;
    image.symbols = {{"_start", 0}, {"main", 8}};
    crypto::Key128 key{};
    for (size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<uint8_t>(i);
    }

    const char *kDigest = "6913e3f17b59d8e8d0b2ecd9efdec594"
                          "d338bf7ca44f1e3f9f954392428a8ff1";
    EXPECT_EQ(to_hex(image.content_digest().data(), 32), kDigest);

    // The digest is SHA-256 of the serialized image with the
    // signature blanked, whether or not the image is signed.
    oelf::Image blank = image;
    image.sign(key);
    EXPECT_EQ(to_hex(image.signature.data(), 32), "5f45e7b766ef2b15952736427d959837"
                             "77578a2e95e2c43490aefe42f248b8dc");
    EXPECT_EQ(to_hex(image.content_digest().data(), 32), kDigest);
    EXPECT_EQ(image.content_digest(), crypto::Sha256::digest(blank.serialize()));
    EXPECT_TRUE(image.check_signature(key));
}

} // namespace
} // namespace occlum::toolchain

/**
 * @file
 * Verifier tests (paper §5): toolchain output must verify; hand-built
 * adversarial binaries must be rejected at the right stage; signing
 * works and tampering is detected.
 */
#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "isa/assembler.h"
#include "toolchain/minic.h"
#include "verifier/verifier.h"
#include "workloads/ripe.h"
#include "workloads/workloads.h"

namespace occlum::verifier {
namespace {

using isa::Assembler;
using isa::Cond;
using isa::mem_abs;
using isa::mem_bd;
using isa::mem_sib;
using toolchain::CompileOptions;
using toolchain::InstrumentOptions;

crypto::Key128
test_key()
{
    crypto::Key128 key{};
    key[0] = 0x5a;
    return key;
}

VerifyReport
verify_source(const std::string &source,
              InstrumentOptions instrument = InstrumentOptions::full())
{
    CompileOptions options;
    options.instrument = instrument;
    auto out = toolchain::compile(source, options);
    EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
    Verifier verifier(test_key());
    return verifier.verify(out.value().image);
}


/** Terminate a hand-built snippet so stage 1's walk cannot fall off
 *  the end of the code segment. */
void
spin(Assembler &a)
{
    static int n = 0;
    std::string label = "__spin" + std::to_string(n++);
    a.bind(label);
    a.jmp(label);
}

/** Wrap hand-written code into a minimal image for the verifier. */
oelf::Image
image_from(Assembler &a, uint64_t entry_off = 0)
{
    oelf::Image image;
    image.code = a.finish();
    image.entry_offset = entry_off;
    image.heap_size = 1 << 16;
    image.stack_size = 1 << 14;
    image.flags = oelf::kFlagInstrumented;
    return image;
}

// ---- toolchain output must pass ----------------------------------------

TEST(Verifier, AcceptsInstrumentedHelloWorld)
{
    VerifyReport r = verify_source(
        "func main() { println(\"hi\"); return 0; }");
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason
                      << " @" << r.fail_address;
    EXPECT_GT(r.reachable_instructions, 0u);
    EXPECT_GT(r.cfi_labels, 0u);
}

TEST(Verifier, AcceptsNaiveInstrumentation)
{
    VerifyReport r = verify_source(
        "global int a[64];\n"
        "func main() { for (i = 0; i < 64; i = i + 1) { a[i] = i; }"
        " return a[63]; }",
        InstrumentOptions::naive());
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason;
}

TEST(Verifier, AcceptsOptimizedLoopsAndPointers)
{
    VerifyReport r = verify_source(R"(
global int a[256];
global byte buf[512];
func touch(p, n) {
    var i = 0;
    while (i < n) { bstore(p + i, i); i = i + 1; }
    return 0;
}
func main() {
    for (i = 0; i < 256; i = i + 1) { a[i] = a[i] + i; }
    touch(buf, 512);
    var m = malloc(64);
    wstore(m, 7);
    return wload(m) + a[255];
}
)");
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason
                      << " @" << r.fail_address;
    // Hoisted loops leave accesses proven by the range analysis.
    EXPECT_GT(r.checked_accesses, 0u);
}

TEST(Verifier, AcceptsRecursionAndSpawnWrappers)
{
    VerifyReport r = verify_source(R"(
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main() {
    var fds[2];
    pipe(fds);
    write(fds[1], "x", 1);
    return fib(10);
}
)");
    EXPECT_TRUE(r.ok) << "stage " << r.failed_stage << ": " << r.reason
                      << " @" << r.fail_address;
}

TEST(Verifier, RejectsUninstrumentedBinaries)
{
    // Plain `ret` and unguarded indirect control flow must fail.
    VerifyReport r = verify_source("func main() { return 0; }",
                                   InstrumentOptions::none());
    EXPECT_FALSE(r.ok);
}

// ---- stage 1: complete disassembly ---------------------------------------

TEST(Verifier, Stage1RejectsEntryNotLabel)
{
    Assembler a;
    a.nop();
    a.cfi_label(0);
    a.ltrap();
    auto image = image_from(a, 0); // entry at the nop
    Verifier v(test_key());
    VerifyReport r = v.verify(image);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

TEST(Verifier, Stage1RejectsUndecodableReachableBytes)
{
    Assembler a;
    a.cfi_label(0);
    a.raw({0xEE, 0xEE}); // invalid opcode reachable by fallthrough
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

TEST(Verifier, Stage1RejectsJumpOutsideCode)
{
    Assembler a;
    a.cfi_label(0);
    a.jmp("far");
    // Bind "far" past the end by appending raw space then the label.
    a.raw(Bytes(16, 0x00));
    a.bind("far");
    // "far" is inside; craft an actually-outside jump manually:
    isa::Instruction j;
    j.op = isa::Opcode::kJmp;
    j.imm = 1 << 20; // far beyond code end
    a.emit(j);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

TEST(Verifier, Stage1RejectsOverlappingInstructions)
{
    // A direct jump into the immediate of a mov creates a second,
    // overlapping decode of the same bytes.
    Assembler b;
    b.cfi_label(0);
    isa::Instruction jcc;
    jcc.op = isa::Opcode::kJcc;
    jcc.cond = Cond::kEq;
    jcc.imm = 3; // skips into the middle of the next mov_ri
    b.emit(jcc);
    b.mov_ri(1, 42);
    b.hlt();
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(b));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1);
}

// ---- stage 2: dangerous instructions ---------------------------------------

TEST(Verifier, Stage2RejectsDangerousInstructions)
{
    auto build = [&](void (*emit)(Assembler &)) {
        Assembler a;
        a.cfi_label(0);
        emit(a);
        spin(a);
        return image_from(a);
    };
    Verifier v(test_key());
    for (auto emit : {+[](Assembler &a) { a.ltrap(); },
                      +[](Assembler &a) { a.eexit(); },
                      +[](Assembler &a) { a.hlt(); },
                      +[](Assembler &a) { a.xrstor(); },
                      +[](Assembler &a) { a.wrfsbase(2); },
                      +[](Assembler &a) { a.bndmk(0, mem_bd(1, 0)); }}) {
        VerifyReport r = v.verify(build(emit));
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.failed_stage, 2) << r.reason;
    }
}

// ---- stage 3: control transfers -------------------------------------------

TEST(Verifier, Stage3RejectsUnguardedIndirectJump)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(2, 0x1000);
    a.jmp_reg(2);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

TEST(Verifier, Stage3RejectsRet)
{
    Assembler a;
    a.cfi_label(0);
    a.ret();
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

TEST(Verifier, Stage3RejectsMemoryIndirectTransfers)
{
    Assembler a;
    a.cfi_label(0);
    a.jmp_mem(mem_bd(1, 0));
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

TEST(Verifier, Stage1RejectsEmbeddedLabelMagic)
{
    // The cfi_label "nonexistence" property (paper §4.2): even an
    // *immediate* containing the 4 magic bytes becomes a disassembly
    // root and produces overlapping instructions — rejected.
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(isa::kScratch,
             static_cast<int64_t>(isa::cfi_label_value(0)));
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 1) << r.reason;
}

TEST(Verifier, Stage3RejectsDirectJumpIntoGuardInterior)
{
    // Attacker constructs the label value arithmetically (embedding
    // the magic bytes directly is caught by stage 1), then jumps to
    // the bndcl, skipping the cfi_guard's load.
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(isa::kScratch,
             static_cast<int64_t>(isa::cfi_label_value(0) >> 8));
    a.shl_ri(isa::kScratch, 8);
    a.or_ri(isa::kScratch,
            static_cast<int32_t>(isa::cfi_label_value(0) & 0xff));
    a.mov_ri(2, 0x2000);
    a.jmp("interior");
    // Hand-assembled cfi_guard with a label on its bndcl member.
    a.load(isa::kScratch, mem_bd(2, 0));
    a.bind("interior");
    a.bndcl_reg(isa::kBndCfi, isa::kScratch);
    a.bndcu_reg(isa::kBndCfi, isa::kScratch);
    a.jmp_reg(2);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3) << r.reason;
}

TEST(Verifier, Stage3RejectsJumpTargetingIndirectTransfer)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(2, 0x2000);
    a.jmp("the_jump");
    a.cfi_guard(2);
    a.bind("the_jump");
    a.jmp_reg(2);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 3);
}

// ---- stage 4: memory accesses ----------------------------------------------

TEST(Verifier, Stage4RejectsUnguardedStore)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.store(mem_bd(1, 0), 2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4AcceptsGuardedStore)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.store(mem_bd(1, 0), 2);
    a.bind("spin");
    a.jmp("spin");
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_TRUE(r.ok) << r.reason << " @" << r.fail_address;
}

TEST(Verifier, Stage4RejectsGuardThenClobberThenStore)
{
    // The guard's refinement dies when the register is rewritten.
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.mov_ri(1, 0x66660000); // clobber after the check
    a.store(mem_bd(1, 0), 2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4RejectsDriftBeyondGuardRegion)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.add_ri(1, 8192); // farther than the 4 KiB guard region
    a.store(mem_bd(1, 0), 2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4AcceptsSmallDriftWithinGuardRegion)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0x12345000);
    a.mem_guard(mem_bd(1, 0));
    a.store(mem_bd(1, 0), 2); // success pins the EA inside D
    a.add_ri(1, 512);
    a.store(mem_bd(1, 0), 2); // within the guard window
    a.bind("spin");
    a.jmp("spin");
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_TRUE(r.ok) << r.reason;
}

TEST(Verifier, Stage4RejectsDirectMemoryOffset)
{
    Assembler a;
    a.cfi_label(0);
    a.load(2, mem_abs(0x7000));
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4RejectsVectorSib)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(1, 0);
    a.mov_ri(2, 0);
    a.vgather(3, mem_sib(1, 2, 3, 0));
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

TEST(Verifier, Stage4RejectsRunawayStackPointer)
{
    Assembler a;
    a.cfi_label(0);
    a.mov_ri(isa::kSp, 0x40000000); // forge sp
    a.push(2);
    spin(a);
    Verifier v(test_key());
    VerifyReport r = v.verify(image_from(a));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed_stage, 4);
}

// ---- signing -----------------------------------------------------------------

TEST(Verifier, SignsOnlyVerifiedImages)
{
    auto good = toolchain::compile("func main() { return 1; }");
    ASSERT_TRUE(good.ok());
    Verifier v(test_key());
    auto signed_image = v.verify_and_sign(good.value().image);
    ASSERT_TRUE(signed_image.ok());
    EXPECT_TRUE(signed_image.value().check_signature(test_key()));

    CompileOptions plain;
    plain.instrument = InstrumentOptions::none();
    auto bad = toolchain::compile("func main() { return 1; }", plain);
    ASSERT_TRUE(bad.ok());
    EXPECT_FALSE(v.verify_and_sign(bad.value().image).ok());
}

// ---- pinned reports ----------------------------------------------------------

/** The report fields a verifier rewrite must leave unchanged. */
std::string
describe(const VerifyReport &r)
{
    std::ostringstream out;
    out << "ok=" << r.ok << " stage=" << r.failed_stage << " reason='"
        << r.reason << "' at=" << r.fail_address
        << " reach=" << r.reachable_instructions
        << " labels=" << r.cfi_labels;
    return out.str();
}

/** Compare `actual` against `golden`; print every entry on a miss so a
 *  deliberate re-pin is a copy-paste. */
void
expect_golden(const std::map<std::string, std::string> &golden,
              const std::map<std::string, std::string> &actual)
{
    EXPECT_EQ(golden.size(), actual.size());
    bool all_match = golden.size() == actual.size();
    for (const auto &[name, desc] : actual) {
        auto it = golden.find(name);
        bool match = it != golden.end() && it->second == desc;
        EXPECT_TRUE(match) << name << ": " << desc;
        all_match = all_match && match;
    }
    if (!all_match) {
        for (const auto &[name, desc] : actual) {
            std::cout << "        {\"" << name << "\",\n         \""
                      << desc << "\"},\n";
        }
    }
}

/** Every workload program, with the padding perfbench builds it with
 *  where that differs from none. */
std::vector<std::tuple<std::string, std::string, uint64_t>>
workload_programs()
{
    std::vector<std::tuple<std::string, std::string, uint64_t>> programs = {
        {"fish_driver", workloads::fish_driver_source(), 0},
        {"gcc_driver", workloads::gcc_driver_source(), 512 << 10},
        {"httpd_master", workloads::httpd_master_source(), 0},
        {"httpd_worker", workloads::httpd_worker_source(), 0},
        {"httpd_poll", workloads::httpd_poll_source(), 0},
        {"httpd_epoll", workloads::httpd_epoll_source(), 0},
        {"proxy_frontend", workloads::proxy_frontend_source(), 0},
        {"proxy_backend", workloads::proxy_backend_source(), 0},
        {"spawn_noop", workloads::spawn_noop_source(), 0},
        {"pipe_writer", workloads::pipe_writer_source(), 0},
        {"pipe_reader", workloads::pipe_reader_source(), 0},
        {"file_write_bench", workloads::file_write_bench_source(), 0},
        {"file_read_bench", workloads::file_read_bench_source(), 0},
    };
    for (const char *name : {"gen", "sort", "grep", "od", "wc"}) {
        programs.emplace_back(std::string("fish_") + name,
                              workloads::fish_utility_source(name), 0);
    }
    for (const char *stage : {"cpp", "as", "ld"}) {
        programs.emplace_back(std::string("gcc_") + stage,
                              workloads::gcc_stage_source(stage), 1 << 20);
    }
    programs.emplace_back("gcc_cc1", workloads::gcc_stage_source("cc1"),
                          14 << 20);
    for (const std::string &name : workloads::spec_kernel_names()) {
        programs.emplace_back("spec_" + name,
                              workloads::spec_kernel_source(name), 0);
    }
    return programs;
}

TEST(VerifierGolden, WorkloadProgramReportsArePinned)
{
    static const std::map<std::string, std::string> golden = {
        {"file_read_bench",
         "ok=1 stage=0 reason='' at=0 reach=1699 labels=105"},
        {"file_write_bench",
         "ok=1 stage=0 reason='' at=0 reach=1741 labels=109"},
        {"fish_driver",
         "ok=1 stage=0 reason='' at=0 reach=2103 labels=125"},
        {"fish_gen",
         "ok=1 stage=0 reason='' at=0 reach=1658 labels=94"},
        {"fish_grep",
         "ok=1 stage=0 reason='' at=0 reach=1696 labels=95"},
        {"fish_od",
         "ok=1 stage=0 reason='' at=0 reach=1676 labels=95"},
        {"fish_sort",
         "ok=1 stage=0 reason='' at=0 reach=1805 labels=95"},
        {"fish_wc",
         "ok=1 stage=0 reason='' at=0 reach=1668 labels=98"},
        {"gcc_as",
         "ok=1 stage=0 reason='' at=0 reach=1711 labels=95"},
        {"gcc_cc1",
         "ok=1 stage=0 reason='' at=0 reach=1711 labels=95"},
        {"gcc_cpp",
         "ok=1 stage=0 reason='' at=0 reach=1711 labels=95"},
        {"gcc_driver",
         "ok=1 stage=0 reason='' at=0 reach=1964 labels=117"},
        {"gcc_ld",
         "ok=1 stage=0 reason='' at=0 reach=1726 labels=98"},
        {"httpd_epoll",
         "ok=1 stage=0 reason='' at=0 reach=1829 labels=108"},
        {"httpd_master",
         "ok=1 stage=0 reason='' at=0 reach=1766 labels=101"},
        {"httpd_poll",
         "ok=1 stage=0 reason='' at=0 reach=1908 labels=105"},
        {"httpd_worker",
         "ok=1 stage=0 reason='' at=0 reach=1690 labels=101"},
        {"pipe_reader",
         "ok=1 stage=0 reason='' at=0 reach=1686 labels=103"},
        {"pipe_writer",
         "ok=1 stage=0 reason='' at=0 reach=1679 labels=99"},
        {"proxy_backend",
         "ok=1 stage=0 reason='' at=0 reach=1691 labels=98"},
        {"proxy_frontend",
         "ok=1 stage=0 reason='' at=0 reach=2285 labels=121"},
        {"spawn_noop",
         "ok=1 stage=0 reason='' at=0 reach=1599 labels=93"},
        {"spec_astar",
         "ok=1 stage=0 reason='' at=0 reach=1762 labels=93"},
        {"spec_bzip2",
         "ok=1 stage=0 reason='' at=0 reach=1761 labels=93"},
        {"spec_gcc",
         "ok=1 stage=0 reason='' at=0 reach=1711 labels=93"},
        {"spec_gobmk",
         "ok=1 stage=0 reason='' at=0 reach=1748 labels=93"},
        {"spec_h264ref",
         "ok=1 stage=0 reason='' at=0 reach=1725 labels=93"},
        {"spec_hmmer",
         "ok=1 stage=0 reason='' at=0 reach=1754 labels=93"},
        {"spec_libquantum",
         "ok=1 stage=0 reason='' at=0 reach=1712 labels=93"},
        {"spec_mcf",
         "ok=1 stage=0 reason='' at=0 reach=1786 labels=93"},
        {"spec_omnetpp",
         "ok=1 stage=0 reason='' at=0 reach=1988 labels=98"},
        {"spec_perlbench",
         "ok=1 stage=0 reason='' at=0 reach=1697 labels=93"},
        {"spec_sjeng",
         "ok=1 stage=0 reason='' at=0 reach=1752 labels=96"},
        {"spec_xalancbmk",
         "ok=1 stage=0 reason='' at=0 reach=1775 labels=94"},
    };
    Verifier verifier(test_key());
    std::map<std::string, std::string> actual;
    for (const auto &[name, source, pad] : workload_programs()) {
        CompileOptions options;
        options.pad_code_to = pad;
        if (pad != 0) {
            options.code_reserve = 16 << 20; // perfbench's reserve
        }
        auto out = toolchain::compile(source, options);
        ASSERT_TRUE(out.ok()) << name << ": " << out.error().message;
        actual[name] = describe(verifier.verify(out.value().image));
    }
    expect_golden(golden, actual);
}

TEST(VerifierGolden, RipeAttackReportsArePinned)
{
    static const std::map<std::string, std::string> golden = {
        {"cross_domain_jump",
         "ok=1 stage=0 reason='' at=0 reach=9 labels=1"},
        {"cross_domain_jump/plain",
         "ok=0 stage=3 reason='register-indirect transfer without cfi_guard' at=26 reach=6 labels=1"},
        {"inject_data",
         "ok=1 stage=0 reason='' at=0 reach=24 labels=1"},
        {"inject_data/plain",
         "ok=0 stage=3 reason='register-indirect transfer without cfi_guard' at=85 reach=15 labels=1"},
        {"inject_heap",
         "ok=1 stage=0 reason='' at=0 reach=24 labels=1"},
        {"inject_heap/plain",
         "ok=0 stage=3 reason='register-indirect transfer without cfi_guard' at=85 reach=15 labels=1"},
        {"inject_stack",
         "ok=1 stage=0 reason='' at=0 reach=24 labels=1"},
        {"inject_stack/plain",
         "ok=0 stage=3 reason='register-indirect transfer without cfi_guard' at=85 reach=15 labels=1"},
        {"ret2libc",
         "ok=1 stage=0 reason='' at=0 reach=22 labels=3"},
        {"ret2libc/plain",
         "ok=0 stage=3 reason='register-indirect transfer without cfi_guard' at=24 reach=14 labels=3"},
        {"rop_function_tail",
         "ok=1 stage=0 reason='' at=0 reach=11 labels=2"},
        {"rop_function_tail/plain",
         "ok=0 stage=2 reason='dangerous instruction: hlt' at=44 reach=8 labels=2"},
        {"rop_mid_instruction",
         "ok=1 stage=0 reason='' at=0 reach=9 labels=1"},
        {"rop_mid_instruction/plain",
         "ok=0 stage=3 reason='register-indirect transfer without cfi_guard' at=30 reach=6 labels=1"},
    };
    Verifier verifier(test_key());
    std::map<std::string, std::string> actual;
    for (const std::string &name : workloads::ripe_attack_names()) {
        actual[name] =
            describe(verifier.verify(workloads::ripe_attack(name, true)));
        actual[name + "/plain"] =
            describe(verifier.verify(workloads::ripe_attack(name, false)));
    }
    expect_golden(golden, actual);
}

TEST(VerifierGolden, LabelMagicInsideADomainIdFieldIsASecondRoot)
{
    // A label whose domain-ID field is itself the magic: the scan
    // finds both occurrences, so the second one becomes a root that
    // overlaps the first label and stage 1 rejects at offset 4.
    Assembler a;
    a.cfi_label(isa::cfi_label_value(0) & 0xffffffffu);
    spin(a);
    oelf::Image image = image_from(a);
    ASSERT_TRUE(std::equal(std::begin(isa::kCfiMagic),
                           std::end(isa::kCfiMagic),
                           image.code.begin() + 4));
    Verifier verifier(test_key());
    VerifyReport r = verifier.verify(image);
    EXPECT_EQ(describe(r),
              "ok=0 stage=1 reason='overlapping reachable instructions' "
              "at=4 reach=0 labels=0");
}

} // namespace
} // namespace occlum::verifier

/**
 * @file
 * Unit tests for the VM: address-space mapping/permissions, CPU
 * arithmetic and control flow, stack ops, bound-register faults, and
 * the guard-region fault behaviour MMDSFI relies on.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "base/rng.h"
#include "isa/assembler.h"
#include "vm/address_space.h"
#include "vm/cpu.h"

namespace occlum::vm {
namespace {

using isa::Cond;
using isa::mem_abs;
using isa::mem_bd;
using isa::mem_rip;
using isa::mem_sib;

constexpr uint64_t kCode = 0x10000;
constexpr uint64_t kData = 0x20000;
constexpr uint64_t kStackTop = 0x30000;

/** Map code+data+stack and run the assembled program until exit. */
class VmHarness
{
  public:
    VmHarness() : cpu(space)
    {
        EXPECT_TRUE(space.map(kCode, 0x1000, kPermRX).ok());
        EXPECT_TRUE(space.map(kData, 0x1000, kPermRW).ok());
        EXPECT_TRUE(space.map(kStackTop - 0x2000, 0x2000, kPermRW).ok());
        cpu.set_sp(kStackTop - 8);
    }

    CpuExit
    run(isa::Assembler &a, uint64_t budget = 1'000'000)
    {
        Bytes code = a.finish();
        EXPECT_LE(code.size(), 0x1000u);
        EXPECT_EQ(space.write_raw(kCode, code.data(), code.size()),
                  AccessFault::kNone);
        space.touch_code();
        cpu.set_rip(kCode);
        return cpu.run(budget);
    }

    AddressSpace space;
    Cpu cpu;
};

TEST(AddressSpace, MapUnmapProtect)
{
    AddressSpace space;
    EXPECT_TRUE(space.map(0x1000, 0x2000, kPermRW).ok());
    EXPECT_FALSE(space.map(0x2000, 0x1000, kPermRW).ok()); // overlap
    EXPECT_FALSE(space.map(0x1234, 0x1000, kPermRW).ok()); // unaligned
    EXPECT_TRUE(space.is_mapped(0x1000, 0x2000));
    EXPECT_EQ(space.perms_at(0x1fff), kPermRW);
    EXPECT_TRUE(space.protect(0x1000, 0x1000, kPermR).ok());
    EXPECT_EQ(space.perms_at(0x1000), kPermR);
    space.unmap(0x1000, 0x1000);
    EXPECT_FALSE(space.is_mapped(0x1000, 0x1000));
    EXPECT_TRUE(space.is_mapped(0x2000, 0x1000));
}

TEST(AddressSpace, PermissionEnforcement)
{
    AddressSpace space;
    ASSERT_TRUE(space.map(0x1000, 0x1000, kPermR).ok());
    uint64_t v = 42;
    EXPECT_EQ(space.write(0x1000, &v, 8), AccessFault::kNoWrite);
    EXPECT_EQ(space.read(0x1000, &v, 8), AccessFault::kNone);
    EXPECT_EQ(space.fetch(0x1000, &v, 1), AccessFault::kNoExec);
    EXPECT_EQ(space.read(0x5000, &v, 8), AccessFault::kUnmapped);
    // Trusted raw access bypasses permissions but not mapping.
    EXPECT_EQ(space.write_raw(0x1000, &v, 8), AccessFault::kNone);
    EXPECT_EQ(space.write_raw(0x5000, &v, 8), AccessFault::kUnmapped);
}

TEST(AddressSpace, CrossPageAccess)
{
    AddressSpace space;
    ASSERT_TRUE(space.map(0x1000, 0x2000, kPermRW).ok());
    uint64_t v = 0x1122334455667788ull;
    EXPECT_EQ(space.write(0x1ffc, &v, 8), AccessFault::kNone);
    uint64_t back = 0;
    EXPECT_EQ(space.read(0x1ffc, &back, 8), AccessFault::kNone);
    EXPECT_EQ(back, v);
    // Partially unmapped cross-page access faults.
    EXPECT_EQ(space.write(0x2ffc, &v, 8), AccessFault::kUnmapped);
}

TEST(AddressSpace, TrustedZeroWritesKeepLazyPagesLazy)
{
    AddressSpace space;
    ASSERT_TRUE(space.map(0x1000, 0x4000, kPermRX).ok());
    // Page 0x1000 was fetched under the current generation: a write
    // that changes it must bump, one that cannot change it must not.
    uint8_t window[8];
    ASSERT_EQ(space.fetch(0x1000, window, 8), AccessFault::kNone);
    uint64_t gen = space.code_generation();

    // Four pages: zeros, zeros with one 0xAB byte, zeros, zeros.
    Bytes chunk(0x4000, 0);
    chunk[0x1800] = 0xAB;
    ASSERT_EQ(space.write_raw(0x1000, chunk.data(), chunk.size()),
              AccessFault::kNone);
    EXPECT_EQ(space.resident_pages(0x1000, 0x4000), 1u);
    EXPECT_EQ(space.resident_pages(0x2000, 0x1000), 1u);
    EXPECT_EQ(space.code_generation(), gen);
    Bytes back(chunk.size(), 0xFF);
    ASSERT_EQ(space.read_raw(0x1000, back.data(), back.size()),
              AccessFault::kNone);
    EXPECT_EQ(back, chunk);

    // Single-page path, and zeros into a materialized page are
    // written (they clear the 0xAB).
    uint64_t zero = 0;
    EXPECT_EQ(space.write_raw(0x3000, &zero, 8), AccessFault::kNone);
    EXPECT_EQ(space.write_raw(0x2800, &zero, 8), AccessFault::kNone);
    EXPECT_EQ(space.resident_pages(0x1000, 0x4000), 1u);
    uint8_t cleared = 0xFF;
    ASSERT_EQ(space.read_raw(0x2800, &cleared, 1), AccessFault::kNone);
    EXPECT_EQ(cleared, 0);

    // A non-zero write into the fetched page materializes and bumps.
    uint8_t one = 1;
    EXPECT_EQ(space.write_raw(0x1004, &one, 1), AccessFault::kNone);
    EXPECT_EQ(space.resident_pages(0x1000, 0x1000), 1u);
    EXPECT_GT(space.code_generation(), gen);

    // Guest writes of zeros still materialize (checked path unchanged).
    ASSERT_TRUE(space.map(0x8000, 0x1000, kPermRW).ok());
    EXPECT_EQ(space.write(0x8000, &zero, 8), AccessFault::kNone);
    EXPECT_EQ(space.resident_pages(0x8000, 0x1000), 1u);
}

TEST(Cpu, ArithmeticAndMov)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 10);
    a.mov_ri(2, 3);
    a.add_rr(1, 2);   // 13
    a.mul_ri(1, 4);   // 52
    a.sub_ri(1, 2);   // 50
    a.mov_rr(3, 1);
    a.div_rr(3, 2);   // 16 (50/3)
    a.mod_rr(1, 2);   // 2
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(3), 16u);
    EXPECT_EQ(h.cpu.reg(1), 2u);
}

TEST(Cpu, SignedDivision)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, -50);
    a.mov_ri(2, 3);
    a.div_rr(1, 2);
    a.mov_ri(3, -50);
    a.mod_rr(3, 2);
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(static_cast<int64_t>(h.cpu.reg(1)), -16);
    EXPECT_EQ(static_cast<int64_t>(h.cpu.reg(3)), -2);
}

TEST(Cpu, DivideByZeroFaults)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 5);
    a.mov_ri(2, 0);
    a.div_rr(1, 2);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kDivide);
}

TEST(Cpu, ShiftsAndBitwise)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0xf0);
    a.shl_ri(1, 4);       // 0xf00
    a.or_ri(1, 0x0f);     // 0xf0f
    a.and_ri(1, 0xff);    // 0x0f
    a.xor_ri(1, 0xff);    // 0xf0
    a.mov_ri(2, -8);
    a.sar_ri(2, 1);       // -4
    a.mov_ri(3, -8);
    a.shr_ri(3, 60);      // high bits of two's complement
    a.not_(1);
    a.neg(2);
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), ~0xf0ull);
    EXPECT_EQ(static_cast<int64_t>(h.cpu.reg(2)), 4);
    EXPECT_EQ(h.cpu.reg(3), 0xfull);
}

TEST(Cpu, LoadStoreAllWidths)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kData);
    a.mov_ri(2, static_cast<int64_t>(0x1122334455667788ull));
    a.store(mem_bd(1, 0), 2);
    a.load(3, mem_bd(1, 0));
    a.store8(mem_bd(1, 16), 2);
    a.load8(4, mem_bd(1, 16));
    a.store32(mem_bd(1, 32), 2);
    a.load32(5, mem_bd(1, 32));
    // SIB addressing: kData + 2*8 + 0
    a.mov_ri(6, 2);
    a.store(mem_sib(1, 6, 3, 0), 2);
    a.load(7, mem_bd(1, 16)); // overlaps store8 slot; check little endian
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(3), 0x1122334455667788ull);
    EXPECT_EQ(h.cpu.reg(4), 0x88ull);
    EXPECT_EQ(h.cpu.reg(5), 0x55667788ull);
    EXPECT_EQ(h.cpu.reg(7), 0x1122334455667788ull);
}

TEST(Cpu, AbsoluteAndRipRelative)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(2, 777);
    a.store(mem_abs(kData + 8), 2);
    a.load(3, mem_abs(kData + 8));
    a.lea(4, mem_rip(0)); // address after the lea
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(3), 777u);
    // lea rip+0 = end of that instruction = ltrap address.
    EXPECT_EQ(h.cpu.reg(4), exit.rip);
}

TEST(Cpu, ConditionalBranchMatrix)
{
    struct Case {
        int64_t a, b;
        Cond cond;
        bool taken;
    };
    const Case cases[] = {
        {5, 5, Cond::kEq, true},    {5, 6, Cond::kEq, false},
        {5, 6, Cond::kNe, true},    {-1, 1, Cond::kLt, true},
        {1, -1, Cond::kLt, false},  {-1, -1, Cond::kLe, true},
        {2, 1, Cond::kGt, true},    {-5, -4, Cond::kGe, false},
        {-1, 1, Cond::kB, false},   // unsigned: -1 is huge
        {1, 2, Cond::kB, true},     {2, 2, Cond::kBe, true},
        {-1, 1, Cond::kA, true},    {3, 3, Cond::kAe, true},
    };
    for (const auto &c : cases) {
        VmHarness h;
        isa::Assembler a(kCode);
        a.mov_ri(1, c.a);
        a.mov_ri(2, c.b);
        a.mov_ri(3, 0);
        a.cmp_rr(1, 2);
        a.jcc(c.cond, "taken");
        a.mov_ri(3, 1); // fallthrough marker
        a.jmp("out");
        a.bind("taken");
        a.mov_ri(3, 2);
        a.bind("out");
        a.ltrap();
        CpuExit exit = h.run(a);
        ASSERT_EQ(exit.kind, ExitKind::kLtrap);
        EXPECT_EQ(h.cpu.reg(3), c.taken ? 2u : 1u)
            << c.a << " " << c.b << " " << isa::cond_name(c.cond);
    }
}

TEST(Cpu, CallRetAndStack)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 5);
    a.call("double_it");
    a.ltrap();
    a.bind("double_it");
    a.push(2);
    a.mov_ri(2, 2);
    a.mul_rr(1, 2);
    a.pop(2);
    a.ret();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 10u);
    EXPECT_EQ(h.cpu.sp(), kStackTop - 8); // balanced
}

TEST(Cpu, IndirectJumpAndCall)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_rl(4, "target");
    a.call_reg(4);
    a.ltrap();
    a.bind("target");
    a.mov_ri(1, 99);
    a.ret();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 99u);
}

TEST(Cpu, LoopExecutesExactly)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0);
    a.mov_ri(2, 100);
    a.bind("loop");
    a.add_ri(1, 3);
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 300u);
}

TEST(Cpu, GuardRegionFaultsLikeMmdsfiExpects)
{
    // Unmapped pages adjacent to data fault on access: the mechanism
    // behind guard regions G1/G2 (paper §4.1).
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kData + 0x1000); // first byte past the data page
    a.store(mem_bd(1, 0), 2);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kPageFault);
    EXPECT_EQ(exit.fault_addr, kData + 0x1000);
}

TEST(Cpu, StorePermissionFault)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kCode); // code is RX
    a.store(mem_bd(1, 0), 2);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kPermFault);
}

TEST(Cpu, ExecuteDataFaults)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, kData);
    a.jmp_reg(1);
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kExecFault);
    EXPECT_EQ(exit.rip, kData);
}

TEST(Cpu, BoundCheckPassAndFail)
{
    VmHarness h;
    h.cpu.set_bnd(0, {kData, kData + 0xfff});
    isa::Assembler a(kCode);
    a.mov_ri(1, kData + 100);
    a.bndcl_mem(0, mem_bd(1, 0));
    a.bndcu_mem(0, mem_bd(1, 0));
    a.store(mem_bd(1, 0), 2);  // guarded access succeeds
    a.mov_ri(1, kData + 0x1000);
    a.bndcu_mem(0, mem_bd(1, 0)); // out of bounds: #BR
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kBoundRange);
    EXPECT_EQ(exit.fault_addr, kData + 0x1000);
}

TEST(Cpu, BoundCheckRegisterEquality)
{
    // cfi_guard semantics: bnd1 = [v, v] is an equality test.
    VmHarness h;
    uint64_t label = isa::cfi_label_value(7);
    h.cpu.set_bnd(1, {label, label});
    isa::Assembler a(kCode);
    a.mov_ri(1, static_cast<int64_t>(label));
    a.bndcl_reg(1, 1);
    a.bndcu_reg(1, 1);
    a.mov_ri(2, static_cast<int64_t>(label + 1));
    a.bndcu_reg(1, 2); // fails
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kFault);
    EXPECT_EQ(exit.fault, FaultKind::kBoundRange);
}

TEST(Cpu, PrivilegedInstructionsExit)
{
    for (auto make : {+[](isa::Assembler &a) { a.hlt(); },
                      +[](isa::Assembler &a) { a.eexit(); },
                      +[](isa::Assembler &a) { a.xrstor(); },
                      +[](isa::Assembler &a) { a.wrfsbase(3); },
                      +[](isa::Assembler &a) { a.bndmk(0, mem_bd(1, 0)); }}) {
        VmHarness h;
        isa::Assembler a(kCode);
        make(a);
        CpuExit exit = h.run(a);
        EXPECT_EQ(exit.kind, ExitKind::kPrivileged);
    }
}

TEST(Cpu, LtrapResumesAfterTrap)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 1);
    a.ltrap();
    a.mov_ri(1, 2);
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    h.cpu.set_rip(kCode);
    CpuExit first = h.cpu.run(1000);
    EXPECT_EQ(first.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 1u);
    CpuExit second = h.cpu.run(1000);
    EXPECT_EQ(second.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 2u);
}

TEST(Cpu, InstructionBudgetStopsLoops)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.bind("spin");
    a.jmp("spin");
    CpuExit exit = h.run(a, 1000);
    EXPECT_EQ(exit.kind, ExitKind::kInstrBudget);
}

TEST(Cpu, CyclesAccumulate)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 7);
    a.ltrap();
    h.run(a);
    EXPECT_GT(h.cpu.cycles(), 0u);
    EXPECT_EQ(h.cpu.instructions(), 2u);
}

TEST(Cpu, JumpIntoMiddleOfInstructionDecodesDifferently)
{
    // The variable-length property: a mov_ri whose immediate encodes a
    // valid instruction stream can be entered mid-instruction. Here
    // the middle bytes decode as `nop`s; landing there must NOT be an
    // invalid-opcode fault but execute *different* instructions —
    // exactly the hazard MMDSFI's CFI closes.
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0); // 10 bytes: opcode, reg, 8x 0x00 (nop opcodes)
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    h.cpu.set_rip(kCode + 2); // into the immediate: eight nops
    CpuExit exit = h.cpu.run(100);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap); // fell through to ltrap
    EXPECT_EQ(h.cpu.instructions(), 9u);    // 8 nops + ltrap
}

// ---- predecoded basic-block cache -------------------------------------

/** Encoded length of one instruction (encodings are fixed per op). */
template <typename EmitFn>
size_t
encoded_len(EmitFn emit)
{
    isa::Assembler a(0);
    emit(a);
    return a.finish().size();
}

TEST(BlockCache, HitsAccumulateAcrossLoopIterations)
{
    VmHarness h;
    // This test asserts tier-1 dispatch-counter mechanics; with the
    // superblock tier on, the loop would promote at the threshold and
    // bb-hit accumulation would freeze at ~kPromoteThreshold.
    h.cpu.set_superblock_enabled(false);
    isa::Assembler a(kCode);
    a.mov_ri(1, 0);
    a.mov_ri(2, 100);
    a.bind("loop");
    a.add_ri(1, 1);
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 100u);
    // The loop body re-enters the same block ~99 times; only a
    // handful of distinct entry rips ever need decoding.
    EXPECT_GT(h.cpu.block_cache_hits(), 90u);
    EXPECT_LT(h.cpu.block_cache_misses(), 10u);
    EXPECT_EQ(h.cpu.block_cache_invalidations(), 0u);
}

TEST(BlockCache, WriteToCodePageInvalidatesWithoutTouchCode)
{
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 1);
    a.ltrap();
    EXPECT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 1u);

    // Rewrite the code bytes *without* calling touch_code: the write
    // into the executable page the code just ran from must advance
    // the generation by itself.
    isa::Assembler b(kCode);
    b.mov_ri(1, 2);
    b.ltrap();
    Bytes code = b.finish();
    uint64_t gen_before = h.space.code_generation();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    EXPECT_GT(h.space.code_generation(), gen_before);

    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 2u);
    EXPECT_GE(h.cpu.block_cache_invalidations(), 1u);
}

TEST(BlockCache, PermissionChangesInvolvingExecBumpGeneration)
{
    AddressSpace space;
    ASSERT_TRUE(space.map(0x1000, 0x1000, kPermRX).ok());
    ASSERT_TRUE(space.map(0x2000, 0x1000, kPermRW).ok());
    uint64_t gen = space.code_generation();

    // RW-only traffic leaves code caches alone.
    ASSERT_TRUE(space.protect(0x2000, 0x1000, kPermR).ok());
    uint32_t v = 7;
    ASSERT_TRUE(space.protect(0x2000, 0x1000, kPermRW).ok());
    ASSERT_EQ(space.write(0x2000, &v, sizeof(v)), AccessFault::kNone);
    EXPECT_EQ(space.code_generation(), gen);

    // Dropping X (the SGX runtime_protect path) invalidates.
    ASSERT_TRUE(space.protect(0x1000, 0x1000, kPermR).ok());
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();

    // Regaining X invalidates again.
    ASSERT_TRUE(space.protect(0x1000, 0x1000, kPermRX).ok());
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();

    // Mapping and unmapping executable pages both invalidate (new
    // pages can complete previously truncated instruction fetches).
    ASSERT_TRUE(space.map(0x3000, 0x1000, kPermRX).ok());
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    space.unmap(0x3000, 0x1000);
    EXPECT_GT(space.code_generation(), gen);
    gen = space.code_generation();
    ASSERT_TRUE(space.map(0x4000, 0x1000, kPermRW).ok());
    space.unmap(0x4000, 0x1000);
    EXPECT_EQ(space.code_generation(), gen);
}

TEST(BlockCache, SelfModifyingStoreTakesEffectMidBlock)
{
    // A store that patches the immediate of a *later* instruction in
    // the same straight-line run: the interpreter must notice the
    // generation bump mid-block and re-decode instead of replaying
    // the stale predecoded op.
    VmHarness h;
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermRWX).ok());

    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(2, 0x41); });
    size_t store_len = encoded_len(
        [](isa::Assembler &a) { a.store8(mem_bd(3, 0), 2); });
    // Layout: mov r2 | mov r3 | store8 | mov r1, 0 | ltrap.
    // The patch target is the first immediate byte of `mov r1, 0`.
    uint64_t patch_addr = kCode + 2 * mov_len + store_len + 2;

    isa::Assembler a(kCode);
    a.mov_ri(2, 0x41);
    a.mov_ri(3, static_cast<int64_t>(patch_addr));
    a.store8(mem_bd(3, 0), 2);
    a.mov_ri(1, 0); // immediate patched to 0x41 by the store above
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 0x41u);
}

TEST(BlockCache, OffModeIsBitIdenticalInCyclesAndState)
{
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 50);
        a.bind("loop");
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.add_rr(1, 3);
        a.push(1);
        a.pop(4);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_block_cache_enabled(false);
    ASSERT_TRUE(on.cpu.block_cache_enabled());
    ASSERT_FALSE(off.cpu.block_cache_enabled());

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(on.cpu.reg(r), off.cpu.reg(r)) << "reg " << r;
    }
    EXPECT_EQ(off.cpu.block_cache_hits(), 0u);
    EXPECT_EQ(off.cpu.block_cache_misses(), 0u);
}

TEST(BlockCache, InstructionBudgetStopsMidBlockAndResumes)
{
    VmHarness h;
    size_t nop_len = encoded_len([](isa::Assembler &a) { a.nop(); });
    isa::Assembler a(kCode);
    for (int i = 0; i < 10; ++i) {
        a.nop();
    }
    a.ltrap();
    CpuExit exit = h.run(a, 4);
    EXPECT_EQ(exit.kind, ExitKind::kInstrBudget);
    EXPECT_EQ(h.cpu.instructions(), 4u);
    EXPECT_EQ(h.cpu.rip(), kCode + 4 * nop_len);
    // Resuming mid-block re-enters at rip and finishes the run.
    exit = h.cpu.run(1000);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.instructions(), 11u);
}

TEST(BlockCache, EntryPointKeyedBlocksPreserveOverlappingDecode)
{
    // Same bytes, two entry points (the JumpIntoMiddle scenario), now
    // exercised repeatedly so both decodings live in the cache at
    // once. Blocks are keyed by entry rip, so neither view clobbers
    // the other.
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0); // bytes 2..9 are eight nops when entered at +2
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);

    auto run_from = [&](uint64_t rip) {
        uint64_t before = h.cpu.instructions();
        h.cpu.set_rip(rip);
        CpuExit exit = h.cpu.run(100);
        EXPECT_EQ(exit.kind, ExitKind::kLtrap);
        return h.cpu.instructions() - before;
    };
    EXPECT_EQ(run_from(kCode), 2u);     // mov + ltrap
    EXPECT_EQ(run_from(kCode + 2), 9u); // 8 nops + ltrap
    EXPECT_EQ(run_from(kCode), 2u);     // cached, still the mov view
    EXPECT_EQ(run_from(kCode + 2), 9u);
    EXPECT_EQ(h.cpu.block_cache_invalidations(), 0u);
    EXPECT_GE(h.cpu.block_cache_hits(), 2u);
}

TEST(BlockCache, CfiLabelStartsANewBlock)
{
    // A cfi_label mid-stream ends the preceding block (it is a
    // potential indirect-entry point); entered directly it simply
    // begins its own block.
    VmHarness h;
    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(1, 5); });
    isa::Assembler a(kCode);
    a.mov_ri(1, 5);
    a.cfi_label(3);
    a.mov_ri(2, 7);
    a.ltrap();
    CpuExit exit = h.run(a);
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 5u);
    EXPECT_EQ(h.cpu.reg(2), 7u);
    // Straight-line execution still crossed a block boundary.
    EXPECT_EQ(h.cpu.block_cache_misses(), 2u);

    // Entering at the label replays only the second block.
    uint64_t before = h.cpu.instructions();
    h.cpu.set_rip(kCode + mov_len);
    EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.instructions() - before, 3u); // cfi, mov, ltrap
    EXPECT_EQ(h.cpu.block_cache_misses(), 2u);    // no new decode
}

// ---- fetch-stamped invalidation ---------------------------------------
//
// A write into an executable page advances the code generation only
// when an instruction fetch read that page under the current
// generation: no usable block can hold bytes from any other page.

/** `mov r1, value; ltrap` assembled at kCode. */
Bytes
mov_r1_program(int64_t value)
{
    isa::Assembler a(kCode);
    a.mov_ri(1, value);
    a.ltrap();
    return a.finish();
}

/** Run from kCode to the ltrap; returns r1. */
uint64_t
run_from_code(VmHarness &h)
{
    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
    return h.cpu.reg(1);
}

/** Install `mov r1, 1; ltrap` at kCode and run it once. */
void
load_and_run_mov_r1(VmHarness &h)
{
    Bytes code = mov_r1_program(1);
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    EXPECT_EQ(run_from_code(h), 1u);
}

TEST(FetchStamp, WriteToPageFetchedBeforeAnUnrelatedBumpKeepsGeneration)
{
    VmHarness h;
    load_and_run_mov_r1(h); // the code page is stamped with G

    h.space.touch_code(); // unrelated bump to G+1
    const uint64_t gen = h.space.code_generation();
    Bytes code = mov_r1_program(2);
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen);

    // The blocks of generation G are stale anyway: the rerun decodes
    // the new bytes.
    EXPECT_EQ(run_from_code(h), 2u);
    EXPECT_GE(h.cpu.block_cache_invalidations(), 1u);
}

TEST(FetchStamp, WriteAfterRedecodeUnderNewGenerationBumps)
{
    VmHarness h;
    load_and_run_mov_r1(h);
    h.space.touch_code();
    EXPECT_EQ(run_from_code(h), 1u); // re-decoded: stamped with G+1

    const uint64_t gen = h.space.code_generation();
    Bytes code = mov_r1_program(3);
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen + 1);
    EXPECT_EQ(run_from_code(h), 3u);
}

TEST(FetchStamp, MultiPageWritesBumpWhenAnyPageWasFetched)
{
    VmHarness h;
    // Two executable pages after the code page that no fetch reads.
    ASSERT_TRUE(h.space.map(kCode + 0x1000, 0x2000, kPermRX).ok());
    load_and_run_mov_r1(h);
    uint64_t gen = h.space.code_generation();
    const uint64_t v = 0x1122334455667788ull;

    // Unfetched | unfetched: no usable block covers either page.
    ASSERT_EQ(h.space.write_raw(kCode + 0x1ffc, &v, 8), AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen);

    // Fetched | unfetched: exactly one bump.
    ASSERT_EQ(h.space.write_raw(kCode + 0xffc, &v, 8), AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen + 1);

    // A write that faults on its second page has already modified the
    // fetched first page, so it still bumps.
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermRWX).ok());
    EXPECT_EQ(run_from_code(h), 1u); // re-stamp under the new generation
    gen = h.space.code_generation();
    EXPECT_EQ(h.space.write(kCode + 0xffc, &v, 8), AccessFault::kNoWrite);
    EXPECT_EQ(h.space.code_generation(), gen + 1);
    uint32_t head = 0;
    ASSERT_EQ(h.space.read_raw(kCode + 0xffc, &head, 4), AccessFault::kNone);
    EXPECT_EQ(head, 0x55667788u);
}

TEST(FetchStamp, InstructionStraddlingPagesStampsBothPages)
{
    // `jmp_reg r2` sits on the last byte of the code page, so its
    // register operand is the only byte ever fetched from the next
    // page. Patching that byte must still invalidate the block.
    VmHarness h;
    ASSERT_TRUE(h.space.map(kCode + 0x1000, 0x1000, kPermRX).ok());
    size_t jmp_len = encoded_len([](isa::Assembler &a) { a.jmp_reg(2); });
    ASSERT_EQ(jmp_len, 2u);
    isa::Assembler a(kCode);
    a.mov_rl(2, "two");
    a.mov_rl(3, "three");
    a.jmp("tail");
    a.bind("two");
    a.mov_ri(1, 2);
    a.ltrap();
    a.bind("three");
    a.mov_ri(1, 3);
    a.ltrap();
    a.raw(Bytes(0x1000 - 1 - a.size_estimate(), 0));
    a.bind("tail");
    a.jmp_reg(2);
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    EXPECT_EQ(run_from_code(h), 2u);

    const uint64_t gen = h.space.code_generation();
    const uint8_t r3 = 3;
    ASSERT_EQ(h.space.write_raw(kCode + 0x1000, &r3, 1), AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen + 1);
    EXPECT_EQ(run_from_code(h), 3u);
}

TEST(FetchStamp, ZeroRawOverFetchedMaterializedCodeBumps)
{
    VmHarness h;
    ASSERT_TRUE(h.space.map(kCode + 0x1000, 0x1000, kPermRX).ok());
    load_and_run_mov_r1(h);
    const uint64_t v = ~0ull;
    ASSERT_EQ(h.space.write_raw(kCode + 0x1000, &v, 8), AccessFault::kNone);
    const uint64_t gen = h.space.code_generation();

    // A materialized page that was never fetched: no bump.
    ASSERT_EQ(h.space.zero_raw(kCode + 0x1000, 0x1000), AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen);

    // The fetched code page: one bump, and the zeros (nops) run
    // instead of the cached `mov r1, 1`.
    ASSERT_EQ(h.space.zero_raw(kCode, 0x1000), AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen + 1);
    h.cpu.set_reg(1, 99);
    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(4).kind, ExitKind::kInstrBudget);
    EXPECT_EQ(h.cpu.reg(1), 99u);
}

// ---- superblock tier (tier 2) -----------------------------------------

/**
 * The superblock battery tests the tier itself, so it must run with
 * the tier available even when OCCLUM_VM_SUPERBLOCK=0 pins the
 * process default off (CI bisection legs run the whole suite that
 * way). The fixture forces the default on and restores the
 * env-derived value afterwards; tier-off comparisons inside the
 * tests still use the per-cpu set_superblock_enabled(false).
 */
class Superblock : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_default_ = Cpu::default_superblock_enabled();
        Cpu::set_default_superblock_enabled(true);
    }
    void TearDown() override
    {
        Cpu::set_default_superblock_enabled(saved_default_);
    }

  private:
    bool saved_default_ = true;
};

TEST_F(Superblock, OnOffBitIdenticalInCyclesAndState)
{
    // A hot loop well past the promotion threshold, mixing ALU ops,
    // memory traffic, stack ops, and rdcycle. rdcycle snapshots the
    // cycle counter *mid-trace* into an architectural register, so
    // equality of the final registers proves cycle accounting is
    // exact at every instruction boundary, not just at exit.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 200);
        a.bind("loop");
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.add_rr(1, 3);
        a.shl_ri(3, 1);
        a.push(3);
        a.pop(4);
        a.xor_rr(4, 1);
        a.rdcycle(5);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_superblock_enabled(false);
    ASSERT_TRUE(on.cpu.superblock_enabled());

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(on.cpu.reg(r), off.cpu.reg(r)) << "reg " << r;
    }
    // One trace entry replays the whole remaining loop via its back
    // edge, so hits count entries, not iterations.
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    EXPECT_GE(on.cpu.superblock_exec_hits(), 1u);
    EXPECT_EQ(off.cpu.superblock_promotions(), 0u);
    EXPECT_EQ(off.cpu.superblock_exec_hits(), 0u);
}

TEST_F(Superblock, SmcInsideStitchedTraceDemotesToTier1)
{
    // A store buried mid-trace patches the immediate of a *later*
    // instruction in the same stitched loop body. The store executes
    // long after promotion; the trace must notice the generation bump
    // at the store uop, exit, and demote, and the patched byte must
    // take effect on the very next instruction — same as tier 1.
    auto build = [](isa::Assembler &a, uint64_t patch_addr) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(patch_addr));
        a.mov_ri(5, 5);
        a.bind("loop");
        a.cmp_ri(2, 40);
        a.jcc(Cond::kNe, "skip"); // store runs exactly once, at r2==40
        a.store8(mem_bd(3, 0), 5);
        a.bind("skip");
        a.mov_ri(4, 7); // immediate patched 7 -> 5 mid-run
        a.add_rr(1, 4);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    size_t mov_len =
        encoded_len([](isa::Assembler &a) { a.mov_ri(4, 7); });
    size_t cmp_len =
        encoded_len([](isa::Assembler &a) { a.cmp_ri(2, 40); });
    size_t jcc_len = encoded_len([](isa::Assembler &a) {
        a.bind("l");
        a.jcc(Cond::kNe, "l");
    });
    size_t store_len = encoded_len(
        [](isa::Assembler &a) { a.store8(mem_bd(3, 0), 5); });
    // The first immediate byte of `mov r4, 7` sits 2 bytes into it.
    uint64_t patch_addr =
        kCode + 4 * mov_len + cmp_len + jcc_len + store_len + 2;

    VmHarness on;
    VmHarness off;
    ASSERT_TRUE(on.space.protect(kCode, 0x1000, kPermRWX).ok());
    ASSERT_TRUE(off.space.protect(kCode, 0x1000, kPermRWX).ok());
    off.cpu.set_superblock_enabled(false);

    isa::Assembler a1(kCode);
    build(a1, patch_addr);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    build(a2, patch_addr);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, ExitKind::kLtrap);
    EXPECT_EQ(e2.kind, ExitKind::kLtrap);
    // 60 iterations at 7, then the patch lands, then 40 at 5.
    EXPECT_EQ(on.cpu.reg(1), 60u * 7 + 40u * 5);
    EXPECT_EQ(off.cpu.reg(1), on.cpu.reg(1));
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    EXPECT_GE(on.cpu.superblock_invalidations(), 1u);
}

TEST_F(Superblock, MprotectOnExecPagesDemotesAndRepromotes)
{
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.add_ri(1, 2);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness h;
    isa::Assembler a(kCode);
    program(a);
    EXPECT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 200u);
    uint64_t promos = h.cpu.superblock_promotions();
    EXPECT_GE(promos, 1u);
    EXPECT_GE(h.cpu.superblock_count(), 1u);

    // An X-permission round trip (the SGX runtime_protect path) must
    // demote every installed trace.
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermR).ok());
    ASSERT_TRUE(h.space.protect(kCode, 0x1000, kPermRX).ok());

    h.cpu.set_reg(1, 0);
    h.cpu.set_reg(2, 100);
    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    EXPECT_EQ(h.cpu.reg(1), 200u);
    EXPECT_GE(h.cpu.superblock_invalidations(), 1u);
    // The loop is hot again, so the rebuilt block re-promotes.
    EXPECT_GT(h.cpu.superblock_promotions(), promos);
}

TEST_F(Superblock, TierTogglesResetDispatchCounters)
{
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.add_ri(1, 1);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    auto expect_all_zero = [](const Cpu &cpu, const char *where) {
        EXPECT_EQ(cpu.block_cache_hits(), 0u) << where;
        EXPECT_EQ(cpu.block_cache_misses(), 0u) << where;
        EXPECT_EQ(cpu.block_cache_invalidations(), 0u) << where;
        EXPECT_EQ(cpu.superblock_promotions(), 0u) << where;
        EXPECT_EQ(cpu.superblock_invalidations(), 0u) << where;
        EXPECT_EQ(cpu.superblock_exec_hits(), 0u) << where;
        EXPECT_EQ(cpu.superblock_guards_folded(), 0u) << where;
        EXPECT_EQ(cpu.superblock_count(), 0u) << where;
    };
    VmHarness h;
    isa::Assembler a(kCode);
    program(a);
    EXPECT_EQ(h.run(a).kind, ExitKind::kLtrap);
    EXPECT_GT(h.cpu.block_cache_misses(), 0u);
    EXPECT_GE(h.cpu.superblock_promotions(), 1u);

    // Disabling the tier drops all cached state and zeroes every
    // dispatch counter — ablation rows never mix configurations.
    h.cpu.set_superblock_enabled(false);
    expect_all_zero(h.cpu, "after superblock off");
    EXPECT_EQ(h.cpu.block_cache_blocks(), 0u);

    h.cpu.set_reg(1, 0);
    h.cpu.set_reg(2, 100);
    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    EXPECT_GT(h.cpu.block_cache_hits(), 90u); // tier-1 counts resume
    EXPECT_EQ(h.cpu.superblock_promotions(), 0u);

    h.cpu.set_superblock_enabled(true);
    expect_all_zero(h.cpu, "after superblock on");

    h.cpu.set_block_cache_enabled(false);
    expect_all_zero(h.cpu, "after block cache off");
}

TEST(SuperblockDefault, FollowsEnvAndStaticSetter)
{
    // Mirrors the crypto reference-mode pattern: the static default
    // (seeded from OCCLUM_VM_SUPERBLOCK, on unless set to "0")
    // applies at construction. Runs outside the Superblock fixture so
    // the env-derived value is still observable here.
    const bool saved = Cpu::default_superblock_enabled();
    const char *env = std::getenv("OCCLUM_VM_SUPERBLOCK");
    const bool env_on = env == nullptr || env[0] == '\0' || env[0] != '0';
    EXPECT_EQ(saved, env_on);
    Cpu::set_default_superblock_enabled(false);
    {
        AddressSpace space;
        Cpu cpu(space);
        EXPECT_FALSE(cpu.superblock_enabled());
    }
    Cpu::set_default_superblock_enabled(true);
    {
        AddressSpace space;
        Cpu cpu(space);
        EXPECT_TRUE(cpu.superblock_enabled());
    }
    Cpu::set_default_superblock_enabled(saved);
}

TEST_F(Superblock, BudgetSlicesNeverOvershootAndMatchOneShot)
{
    // AEX/quantum slicing: running the same hot program in budget
    // slices of 7 must consume exactly min(7, remaining) instructions
    // per slice and land on bit-identical final state.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.add_ri(1, 3);
        a.store(mem_abs(kData), 1);
        a.load(3, mem_abs(kData));
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness sliced;
    VmHarness oneshot;
    isa::Assembler a1(kCode);
    program(a1);
    CpuExit exit = sliced.run(a1, 7);
    while (exit.kind == ExitKind::kInstrBudget) {
        uint64_t before = sliced.cpu.instructions();
        exit = sliced.cpu.run(7);
        uint64_t used = sliced.cpu.instructions() - before;
        ASSERT_GE(used, 1u);
        ASSERT_LE(used, 7u);
    }
    EXPECT_EQ(exit.kind, ExitKind::kLtrap);

    isa::Assembler a2(kCode);
    program(a2);
    EXPECT_EQ(oneshot.run(a2).kind, ExitKind::kLtrap);

    EXPECT_EQ(sliced.cpu.cycles(), oneshot.cpu.cycles());
    EXPECT_EQ(sliced.cpu.instructions(), oneshot.cpu.instructions());
    EXPECT_EQ(sliced.cpu.rip(), oneshot.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(sliced.cpu.reg(r), oneshot.cpu.reg(r)) << "reg " << r;
    }
}

TEST_F(Superblock, GuardFoldingPreservesStateAndCycles)
{
    // Two identical mem_guard pairs per iteration: the translator
    // fuses the first bndcl+bndcu pair and elides the duplicate pair
    // outright. Simulated time must not move by a single cycle.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.bind("loop");
        a.mem_guard(mem_bd(3, 0));
        a.load(4, mem_bd(3, 0));
        a.mem_guard(mem_bd(3, 0)); // exact duplicate -> folded
        a.add_ri(4, 1);
        a.store(mem_bd(3, 0), 4);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_superblock_enabled(false);

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, ExitKind::kLtrap);
    EXPECT_EQ(e2.kind, ExitKind::kLtrap);
    EXPECT_EQ(on.cpu.reg(4), 100u);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    // Fused pair + two elided duplicates per promotion.
    EXPECT_GE(on.cpu.superblock_guards_folded(), 3u);
    EXPECT_EQ(off.cpu.superblock_guards_folded(), 0u);
}

TEST_F(Superblock, FusedGuardFaultPointsAreExact)
{
    // A pointer walks forward under a mem_guard until it crosses the
    // upper bound — well after promotion, so the #BR is raised from
    // inside the fused bndcl+bndcu uop. Fault rip, fault address,
    // cycles, and instruction count must match tier 1 exactly (the
    // upper fault charges both halves; rip is the bndcu).
    auto forward = [](isa::Assembler &a) {
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.bind("loop");
        a.mem_guard(mem_bd(3, 0));
        a.load8(4, mem_bd(3, 0));
        a.add_ri(3, 8);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    auto run_pair = [](auto &program, BoundReg bnd) {
        VmHarness on;
        VmHarness off;
        off.cpu.set_superblock_enabled(false);
        on.cpu.set_bnd(isa::kBndData, bnd);
        off.cpu.set_bnd(isa::kBndData, bnd);
        isa::Assembler a1(kCode);
        program(a1);
        CpuExit e1 = on.run(a1);
        isa::Assembler a2(kCode);
        program(a2);
        CpuExit e2 = off.run(a2);
        EXPECT_EQ(e1.kind, ExitKind::kFault);
        EXPECT_EQ(e1.fault, FaultKind::kBoundRange);
        EXPECT_EQ(e1.kind, e2.kind);
        EXPECT_EQ(e1.fault, e2.fault);
        EXPECT_EQ(e1.rip, e2.rip);
        EXPECT_EQ(e1.fault_addr, e2.fault_addr);
        EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
        EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
        EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
        EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    };
    // Upper-bound fault at iteration 51 (addr kData+408 > hi).
    run_pair(forward, BoundReg{0, kData + 50 * 8});

    // Lower-bound fault: walk down through lo at iteration ~51. The
    // #BR comes from the bndcl half, which charges only its own cost.
    auto backward = [](isa::Assembler &a) {
        a.mov_ri(2, 100);
        a.mov_ri(3, static_cast<int64_t>(kData + 800));
        a.bind("loop");
        a.mem_guard(mem_bd(3, 0));
        a.load8(4, mem_bd(3, 0));
        a.add_ri(3, -8);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    run_pair(backward, BoundReg{kData + 400, ~0ull});
}

TEST_F(Superblock, LoadAluFusionFaultPointsAreExact)
{
    // A load feeding a lone ALU op (the kLoadAlu fusion, with the ALU
    // destination different from the loaded register) walks a pointer
    // off the end of the mapped data page — well past promotion, so
    // the page fault is raised from inside the fused uop. Fault rip,
    // fault address, cycles, and state must match tier 1 exactly (the
    // fault charges the load alone; the appended ALU never ran).
    auto program = [](isa::Assembler &a) {
        a.mov_ri(2, 1000);
        a.mov_ri(3, static_cast<int64_t>(kData));
        a.mov_ri(5, 0);
        a.bind("loop");
        a.load8(4, mem_bd(3, 0)); // fuses with the add_rr below
        a.add_rr(5, 4);
        a.store(mem_abs(kData), 5); // keeps the ALU out of a pack
        a.add_ri(3, 8);
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_superblock_enabled(false);
    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);
    // The data page is 0x1000 bytes: iteration 513 reads kData+0x1000.
    EXPECT_EQ(e1.kind, ExitKind::kFault);
    EXPECT_EQ(e1.fault, FaultKind::kPageFault);
    EXPECT_EQ(e1.fault_addr, kData + 0x1000);
    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(e1.fault, e2.fault);
    EXPECT_EQ(e1.rip, e2.rip);
    EXPECT_EQ(e1.fault_addr, e2.fault_addr);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.rip(), off.cpu.rip());
    for (int r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(on.cpu.reg(r), off.cpu.reg(r)) << "reg " << r;
    }
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
}

TEST_F(Superblock, StitchedCallRetTracesAreExact)
{
    // The hot loop calls a leaf function; the trace stitches through
    // the call and the guarded return. 100 round trips well past the
    // threshold must be bit-identical to tier 1.
    auto program = [](isa::Assembler &a) {
        a.mov_ri(1, 0);
        a.mov_ri(2, 100);
        a.bind("loop");
        a.call("fn");
        a.sub_ri(2, 1);
        a.cmp_ri(2, 0);
        a.jcc(Cond::kNe, "loop");
        a.ltrap();
        a.bind("fn");
        a.add_ri(1, 3);
        a.ret();
    };
    VmHarness on;
    VmHarness off;
    off.cpu.set_superblock_enabled(false);

    isa::Assembler a1(kCode);
    program(a1);
    CpuExit e1 = on.run(a1);
    isa::Assembler a2(kCode);
    program(a2);
    CpuExit e2 = off.run(a2);

    EXPECT_EQ(e1.kind, ExitKind::kLtrap);
    EXPECT_EQ(e2.kind, ExitKind::kLtrap);
    EXPECT_EQ(on.cpu.reg(1), 300u);
    EXPECT_EQ(on.cpu.cycles(), off.cpu.cycles());
    EXPECT_EQ(on.cpu.instructions(), off.cpu.instructions());
    EXPECT_EQ(on.cpu.sp(), off.cpu.sp());
    EXPECT_GE(on.cpu.superblock_promotions(), 1u);
    EXPECT_GE(on.cpu.superblock_exec_hits(), 1u);
}

TEST_F(Superblock, OverlappingDecodesPromoteIndependently)
{
    // The two-entry-point scenario, hot enough that *both* views get
    // promoted. Traces are keyed by entry rip like blocks, so the
    // mov-view and the nop-view never clobber each other.
    VmHarness h;
    isa::Assembler a(kCode);
    a.mov_ri(1, 0); // bytes 2..9 decode as eight nops when entered at +2
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);

    auto run_from = [&](uint64_t rip) {
        uint64_t before = h.cpu.instructions();
        h.cpu.set_rip(rip);
        EXPECT_EQ(h.cpu.run(100).kind, ExitKind::kLtrap);
        return h.cpu.instructions() - before;
    };
    for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(run_from(kCode), 2u) << "iteration " << i;
        ASSERT_EQ(run_from(kCode + 2), 9u) << "iteration " << i;
    }
    EXPECT_GE(h.cpu.superblock_promotions(), 2u);
    EXPECT_GE(h.cpu.superblock_count(), 2u);
    EXPECT_EQ(h.cpu.superblock_invalidations(), 0u);
}

TEST_F(Superblock, StoresIntoUnfetchedRwxDataKeepCodeGeneration)
{
    // The EIP baseline's layout: code runs from an RX page, and the
    // data region is an RWX pool that no instruction fetch reads.
    // Stores into that pool through every store path (tier-1 write,
    // write_fast, a promoted trace's StoreChk) must leave the code
    // generation, and so every cached block and trace, alone.
    VmHarness h;
    ASSERT_TRUE(h.space.protect(kData, 0x1000, kPermRWX).ok());
    isa::Assembler a(kCode);
    a.mov_ri(2, 100);
    a.mov_ri(3, static_cast<int64_t>(kData));
    a.bind("loop");
    a.mem_guard(mem_bd(3, 0));
    a.store(mem_bd(3, 0), 2); // fused into a StoreChk once promoted
    a.sub_ri(2, 1);
    a.cmp_ri(2, 0);
    a.jcc(Cond::kNe, "loop");
    a.ltrap();
    Bytes code = a.finish();
    ASSERT_EQ(h.space.write_raw(kCode, code.data(), code.size()),
              AccessFault::kNone);
    h.space.touch_code();
    const uint64_t gen = h.space.code_generation();

    h.cpu.set_rip(kCode);
    EXPECT_EQ(h.cpu.run(1'000'000).kind, ExitKind::kLtrap);
    EXPECT_GE(h.cpu.superblock_exec_hits(), 1u);
    EXPECT_GE(h.cpu.superblock_guards_folded(), 1u);
    uint64_t last = 0;
    ASSERT_EQ(h.space.read(kData, &last, 8), AccessFault::kNone);
    EXPECT_EQ(last, 1u);

    const uint64_t v = 7;
    EXPECT_EQ(h.space.write(kData + 8, &v, 8), AccessFault::kNone);
    EXPECT_EQ(h.space.write_fast<8>(kData + 16, &v), AccessFault::kNone);
    EXPECT_EQ(h.space.code_generation(), gen);
    EXPECT_EQ(h.cpu.block_cache_invalidations(), 0u);
    EXPECT_EQ(h.cpu.superblock_invalidations(), 0u);
}

// ---- differential self-modifying-code oracle ----------------------------
//
// Seeded random programs on a data_rwx-style layout (code and data
// both RWX) that patch immediates of code that already ran, patch
// code that has not run yet, and store to plain data. The decode
// loop, the block cache, and the superblock tier must agree on
// CpuState, cycles, instruction count, and exit at every quantum.

/** Code spans two RWX pages: the hot loop, then a cold routine. */
constexpr uint64_t kSmcCold = kCode + 0x1000;

/**
 * One seeded self-modifying program. Registers: r0 holds patch
 * addresses, r1..r5 carry values, r6 is the data base, r7 counts loop
 * iterations down. Only r1..r5 are ALU destinations and only their
 * immediates are patched, so control flow stays well formed whatever
 * the patches write.
 */
Bytes
smc_program(uint64_t seed)
{
    Rng rng(seed);
    isa::Assembler a(kCode);
    auto value_reg = [&] {
        return static_cast<uint8_t>(1 + rng.next_below(5));
    };
    int labels = 0;
    auto fresh = [&](const char *stem) {
        return std::string(stem) + std::to_string(labels++);
    };

    // A patchable immediate starts 2 bytes into its instruction.
    struct Site {
        std::string label;
        uint64_t imm_bytes;
    };
    std::vector<Site> sites;
    auto alu = [&] {
        uint8_t rd = value_reg();
        switch (rng.next_below(8)) {
          case 0: {
            sites.push_back({fresh("site"), 8});
            a.bind(sites.back().label);
            a.mov_ri(rd, static_cast<int64_t>(rng.next()));
            break;
          }
          case 1: case 2: case 3: {
            sites.push_back({fresh("site"), 4});
            a.bind(sites.back().label);
            auto imm = static_cast<int32_t>(rng.next_range(-999, 999));
            switch (rng.next_below(4)) {
              case 0: a.add_ri(rd, imm); break;
              case 1: a.xor_ri(rd, imm); break;
              case 2: a.mul_ri(rd, imm); break;
              default: a.or_ri(rd, imm); break;
            }
            break;
          }
          case 4: a.add_rr(rd, value_reg()); break;
          case 5: a.sub_rr(rd, value_reg()); break;
          case 6:
            a.shr_ri(rd, static_cast<uint8_t>(rng.next_below(13)));
            break;
          default: a.rdcycle(rd); break;
        }
    };
    // A patch stores 1 or 4 bytes of a value register into some site's
    // immediate. The site is picked once every site exists, so a patch
    // may target code that runs before it, after it, or never.
    std::vector<std::pair<std::string, uint8_t>> patches; // label, width
    auto patch = [&] {
        patches.push_back({fresh("patch"), rng.next_below(2) ? 4 : 1});
        a.mov_rl(0, patches.back().first);
        if (patches.back().second == 4) {
            a.store32(mem_bd(0, 0), value_reg());
        } else {
            a.store8(mem_bd(0, 0), value_reg());
        }
    };
    auto data = [&] {
        return mem_bd(6, static_cast<int32_t>(rng.next_below(kPageSize - 8)));
    };

    const int iterations = static_cast<int>(rng.next_range(30, 90));
    a.mov_ri(7, iterations);
    a.mov_ri(6, static_cast<int64_t>(kData));
    for (uint8_t r = 1; r <= 5; ++r) {
        a.mov_ri(r, static_cast<int64_t>(rng.next()));
    }
    a.bind("loop");
    const int n_hot = static_cast<int>(rng.next_range(6, 18));
    for (int i = 0; i < n_hot; ++i) {
        auto gate = static_cast<int32_t>(rng.next_range(1, iterations));
        switch (rng.next_below(8)) {
          case 0: case 1: alu(); break;
          case 2: a.load(value_reg(), data()); break;
          case 3:
            // Plain data stores into the RWX data page.
            if (rng.next_below(2)) {
                a.store(data(), value_reg());
            } else {
                a.push(value_reg());
                a.pop(value_reg());
            }
            break;
          case 4: case 5: patch(); break;
          case 6: {
            // First (and only) run at iteration `gate`: code that
            // earlier patches may rewrite before it ever executes.
            std::string skip = fresh("skip");
            a.cmp_ri(7, gate);
            a.jcc(Cond::kNe, skip);
            alu();
            patch();
            a.bind(skip);
            break;
          }
          default: {
            // From iteration `gate` down, call the cold routine.
            std::string skip = fresh("skip");
            a.cmp_ri(7, gate);
            a.jcc(Cond::kGt, skip);
            a.call("cold");
            a.bind(skip);
            break;
          }
        }
    }
    a.sub_ri(7, 1);
    a.cmp_ri(7, 0);
    a.jcc(Cond::kNe, "loop");
    a.ltrap();
    EXPECT_LE(a.size_estimate(), kSmcCold - kCode);
    a.raw(Bytes(kSmcCold - kCode - a.size_estimate(), 0));
    a.bind("cold");
    for (int i = static_cast<int>(rng.next_range(2, 6)); i > 0; --i) {
        alu();
    }
    a.ret();
    if (sites.empty()) {
        // Unreachable: gives the patches a target.
        sites.push_back({fresh("site"), 8});
        a.bind(sites.back().label);
        a.mov_ri(1, 0);
    }
    for (const auto &[label, width] : patches) {
        const Site &site = sites[rng.next_below(sites.size())];
        a.define_value(label, a.label_offset(site.label) + 2 +
                                  rng.next_below(site.imm_bytes - width + 1));
    }
    return a.finish();
}

/** One tier configuration of the data_rwx-style machine. */
struct SmcMachine {
    AddressSpace space;
    Cpu cpu{space};

    SmcMachine(const Bytes &code, bool block_cache, bool superblock)
    {
        EXPECT_TRUE(space.map(kCode, 0x2000, kPermRWX).ok());
        EXPECT_TRUE(space.map(kData, 0x1000, kPermRWX).ok());
        EXPECT_TRUE(space.map(kStackTop - 0x2000, 0x2000, kPermRW).ok());
        EXPECT_EQ(space.write_raw(kCode, code.data(), code.size()),
                  AccessFault::kNone);
        cpu.set_block_cache_enabled(block_cache);
        cpu.set_superblock_enabled(superblock);
        cpu.set_sp(kStackTop - 8);
        cpu.set_rip(kCode);
    }
};

void
expect_same_state(const SmcMachine &ref, const SmcMachine &m,
                  const char *tier)
{
    const CpuState &x = ref.cpu.state();
    const CpuState &y = m.cpu.state();
    EXPECT_EQ(x.regs, y.regs) << tier;
    EXPECT_EQ(x.rip, y.rip) << tier;
    EXPECT_EQ(x.flags.zf, y.flags.zf) << tier;
    EXPECT_EQ(x.flags.sf, y.flags.sf) << tier;
    EXPECT_EQ(x.flags.cf, y.flags.cf) << tier;
    EXPECT_EQ(x.flags.of, y.flags.of) << tier;
    for (int b = 0; b < isa::kNumBndRegs; ++b) {
        EXPECT_EQ(x.bnds[b].lo, y.bnds[b].lo) << tier;
        EXPECT_EQ(x.bnds[b].hi, y.bnds[b].hi) << tier;
    }
    EXPECT_EQ(ref.cpu.cycles(), m.cpu.cycles()) << tier;
    EXPECT_EQ(ref.cpu.instructions(), m.cpu.instructions()) << tier;
}

TEST_F(Superblock, SelfModifyingProgramsAgreeAcrossTiers)
{
    constexpr uint64_t kSeeds = 48;
    uint64_t block_invalidations = 0;
    uint64_t trace_hits = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Bytes code = smc_program(seed);
        SmcMachine decode(code, false, false);
        SmcMachine block(code, true, false);
        SmcMachine trace(code, true, true);
        Rng slices(seed ^ 0x5eedull);
        CpuExit exit;
        int slice = 0;
        do {
            ASSERT_LT(++slice, 10'000) << "program did not finish";
            uint64_t budget = 1 + slices.next_below(
                                      slices.next_below(4) ? 40 : 2000);
            exit = decode.cpu.run(budget);
            CpuExit b = block.cpu.run(budget);
            CpuExit t = trace.cpu.run(budget);
            for (auto [m, e, tier] :
                 {std::tuple{&block, &b, "block cache"},
                  std::tuple{&trace, &t, "superblock"}}) {
                ASSERT_EQ(e->kind, exit.kind) << tier << " slice " << slice;
                EXPECT_EQ(e->fault, exit.fault) << tier;
                EXPECT_EQ(e->fault_addr, exit.fault_addr) << tier;
                EXPECT_EQ(e->rip, exit.rip) << tier;
                expect_same_state(decode, *m, tier);
            }
            if (HasFailure()) {
                return;
            }
        } while (exit.kind == ExitKind::kInstrBudget);
        EXPECT_EQ(exit.kind, ExitKind::kLtrap);

        // The patched code and the data page end up identical too.
        auto memory = [](SmcMachine &m) {
            Bytes bytes(0x3000);
            EXPECT_EQ(m.space.read_raw(kCode, bytes.data(), 0x2000),
                      AccessFault::kNone);
            EXPECT_EQ(m.space.read_raw(kData, bytes.data() + 0x2000, 0x1000),
                      AccessFault::kNone);
            return bytes;
        };
        EXPECT_TRUE(memory(block) == memory(decode));
        EXPECT_TRUE(memory(trace) == memory(decode));
        block_invalidations += block.cpu.block_cache_invalidations();
        trace_hits += trace.cpu.superblock_exec_hits();
    }
    // The generator really exercises the invalidation surface.
    EXPECT_GT(block_invalidations, kSeeds);
    EXPECT_GT(trace_hits, kSeeds);
}

} // namespace
} // namespace occlum::vm

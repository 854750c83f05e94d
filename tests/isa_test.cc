/**
 * @file
 * Unit and property tests for the OVM ISA: encode/decode round trips,
 * cfi_label encoding invariants, operand validation, and the
 * classification tables the verifier depends on.
 */
#include <gtest/gtest.h>

#include "base/rng.h"
#include "isa/assembler.h"
#include "isa/isa.h"

namespace occlum::isa {
namespace {

TEST(Encoding, CfiLabelLayout)
{
    Instruction instr;
    instr.op = Opcode::kCfiLabel;
    instr.label_id = 0xdeadbeef;
    Bytes out;
    size_t len = encode(instr, out);
    ASSERT_EQ(len, kCfiLabelSize);
    EXPECT_EQ(out[0], kCfiMagic[0]);
    EXPECT_EQ(out[1], kCfiMagic[1]);
    EXPECT_EQ(out[2], kCfiMagic[2]);
    EXPECT_EQ(out[3], kCfiMagic[3]);
    // Last four bytes carry the domain ID little-endian.
    EXPECT_EQ(get_le<uint32_t>(out.data() + 4), 0xdeadbeefu);
}

TEST(Encoding, CfiLabelValueMatchesEncodedBytes)
{
    // The 64-bit value cfi_guard loads must equal the encoded bytes.
    Instruction instr;
    instr.op = Opcode::kCfiLabel;
    instr.label_id = 42;
    Bytes out;
    encode(instr, out);
    EXPECT_EQ(get_le<uint64_t>(out.data()), cfi_label_value(42));
}

TEST(Encoding, DecodeRejectsPartialCfiMagic)
{
    Bytes bad = {kCfiMagic[0], kCfiMagic[1], 0x00, kCfiMagic[3],
                 0, 0, 0, 0};
    auto r = decode(bad.data(), bad.size(), 0, 0x1000);
    EXPECT_FALSE(r.ok());
}

TEST(Encoding, DecodeRejectsTruncatedCfiLabel)
{
    Bytes bad = {kCfiMagic[0], kCfiMagic[1], kCfiMagic[2], kCfiMagic[3]};
    auto r = decode(bad.data(), bad.size(), 0, 0x1000);
    EXPECT_FALSE(r.ok());
}

TEST(Encoding, DecodeRejectsUnknownOpcode)
{
    Bytes bad = {0xee, 0, 0, 0};
    EXPECT_FALSE(decode(bad.data(), bad.size(), 0, 0).ok());
}

TEST(Encoding, DecodeErrorNamesTheFailingAddress)
{
    // The address is printed as a number, not as its in-memory bytes.
    Bytes bad = {0xee, 0, 0, 0};
    auto r = decode(bad.data(), bad.size(), 0, 0x112a);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message, "decode @0x112a: invalid opcode");
}

TEST(Encoding, DecodeRejectsBadRegister)
{
    Bytes bad = {static_cast<uint8_t>(Opcode::kPush), 16};
    EXPECT_FALSE(decode(bad.data(), bad.size(), 0, 0).ok());
}

TEST(Encoding, DecodeRejectsBadBoundRegister)
{
    Bytes bad = {static_cast<uint8_t>(Opcode::kBndclReg), 4, 0};
    EXPECT_FALSE(decode(bad.data(), bad.size(), 0, 0).ok());
}

TEST(Encoding, DecodeRejectsTruncatedImmediate)
{
    Bytes bad = {static_cast<uint8_t>(Opcode::kMovRI), 1, 0x11, 0x22};
    EXPECT_FALSE(decode(bad.data(), bad.size(), 0, 0).ok());
}

TEST(Encoding, DirectTargetArithmetic)
{
    Instruction instr;
    instr.op = Opcode::kJmp;
    instr.imm = -5; // jump to own start: len 5, rel -5
    instr.address = 0x2000;
    instr.length = 5;
    EXPECT_EQ(instr.direct_target(), 0x2000u);
}

/** Round-trip every representative instruction form. */
TEST(Encoding, RoundTripAllForms)
{
    std::vector<Instruction> forms;
    auto add = [&](Instruction i) { forms.push_back(i); };

    Instruction i;
    i.op = Opcode::kNop; add(i);
    i = {}; i.op = Opcode::kRet; add(i);
    i = {}; i.op = Opcode::kPush; i.reg1 = 7; add(i);
    i = {}; i.op = Opcode::kMovRI; i.reg1 = 3;
    i.imm = static_cast<int64_t>(0x123456789abcdef0ull); add(i);
    i = {}; i.op = Opcode::kAddRI; i.reg1 = 2; i.imm = -12345; add(i);
    i = {}; i.op = Opcode::kShlRI; i.reg1 = 9; i.imm = 13; add(i);
    i = {}; i.op = Opcode::kMovRR; i.reg1 = 1; i.reg2 = 14; add(i);
    i = {}; i.op = Opcode::kLoad; i.reg1 = 4;
    i.mem = mem_bd(5, -64); add(i);
    i = {}; i.op = Opcode::kStore; i.reg1 = 4;
    i.mem = mem_sib(5, 6, 3, 1024); add(i);
    i = {}; i.op = Opcode::kLoad32; i.reg1 = 4;
    i.mem = mem_rip(-4096); add(i);
    i = {}; i.op = Opcode::kStore8; i.reg1 = 4;
    i.mem = mem_abs(0x11223344556677ull); add(i);
    i = {}; i.op = Opcode::kVGather; i.reg1 = 2;
    i.mem = mem_sib(1, 2, 2, 0); add(i);
    i = {}; i.op = Opcode::kJmp; i.imm = 0x1000; add(i);
    i = {}; i.op = Opcode::kJcc; i.cond = Cond::kBe; i.imm = -20; add(i);
    i = {}; i.op = Opcode::kCall; i.imm = 256; add(i);
    i = {}; i.op = Opcode::kJmpMem; i.mem = mem_bd(3, 8); add(i);
    i = {}; i.op = Opcode::kRetImm; i.imm = 16; add(i);
    i = {}; i.op = Opcode::kPushImm; i.imm = -7; add(i);
    i = {}; i.op = Opcode::kBndclMem; i.bnd = 0;
    i.mem = mem_bd(2, 8); add(i);
    i = {}; i.op = Opcode::kBndcuReg; i.bnd = 1; i.reg1 = 13; add(i);
    i = {}; i.op = Opcode::kBndmov; i.bnd = 2; i.reg1 = 3; add(i);
    i = {}; i.op = Opcode::kCfiLabel; i.label_id = 77; add(i);
    i = {}; i.op = Opcode::kWrfsbase; i.reg1 = 5; add(i);

    for (const auto &form : forms) {
        Bytes out;
        size_t len = encode(form, out);
        ASSERT_EQ(len, encoded_length(form)) << to_string(form);
        auto decoded = decode(out.data(), out.size(), 0, 0x4000);
        ASSERT_TRUE(decoded.ok()) << to_string(form);
        const Instruction &d = decoded.value();
        EXPECT_EQ(d.op, form.op) << to_string(form);
        EXPECT_EQ(d.length, len);
        EXPECT_EQ(d.reg1, form.reg1) << to_string(form);
        EXPECT_EQ(d.imm, form.imm) << to_string(form);
        EXPECT_TRUE(d.mem == form.mem) << to_string(form);
    }
}

/** Property: random byte soup never crashes the decoder. */
TEST(Encoding, FuzzDecodeNeverCrashes)
{
    Rng rng(1234);
    for (int trial = 0; trial < 5000; ++trial) {
        Bytes soup(1 + rng.next_below(24));
        for (auto &b : soup) {
            b = static_cast<uint8_t>(rng.next());
        }
        auto r = decode(soup.data(), soup.size(), 0, 0x1000);
        if (r.ok()) {
            EXPECT_LE(r.value().length, soup.size());
            EXPECT_GT(r.value().length, 0u);
        }
    }
}

/** Property: decoding a valid encoding at offset 0 consumes exactly
 *  the encoded length (self-synchronization at offset 0). */
TEST(Encoding, FuzzRoundTripRandomInstrs)
{
    Rng rng(99);
    const Opcode ops[] = {Opcode::kMovRI, Opcode::kAddRR, Opcode::kLoad,
                          Opcode::kStore, Opcode::kJmp, Opcode::kPush,
                          Opcode::kBndclMem, Opcode::kJcc};
    for (int trial = 0; trial < 2000; ++trial) {
        Instruction instr;
        instr.op = ops[rng.next_below(std::size(ops))];
        instr.reg1 = static_cast<uint8_t>(rng.next_below(16));
        instr.reg2 = static_cast<uint8_t>(rng.next_below(16));
        instr.bnd = static_cast<uint8_t>(rng.next_below(4));
        instr.cond = static_cast<Cond>(rng.next_below(kNumConds));
        instr.imm = static_cast<int32_t>(rng.next());
        if (instr.op == Opcode::kMovRI) {
            instr.imm = static_cast<int64_t>(rng.next());
        }
        instr.mem = mem_sib(static_cast<uint8_t>(rng.next_below(16)),
                            static_cast<uint8_t>(rng.next_below(16)),
                            static_cast<uint8_t>(rng.next_below(4)),
                            static_cast<int32_t>(rng.next()));
        Bytes out;
        size_t len = encode(instr, out);
        auto decoded = decode(out.data(), out.size(), 0, 0);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value().length, len);
        EXPECT_EQ(decoded.value().op, instr.op);
    }
}

// ---- classification tables ------------------------------------------

TEST(Classify, DangerousInstructions)
{
    EXPECT_TRUE(is_dangerous(Opcode::kHlt));
    EXPECT_TRUE(is_dangerous(Opcode::kLtrap));
    EXPECT_TRUE(is_dangerous(Opcode::kEexit));
    EXPECT_TRUE(is_dangerous(Opcode::kEaccept));
    EXPECT_TRUE(is_dangerous(Opcode::kXrstor));
    EXPECT_TRUE(is_dangerous(Opcode::kWrfsbase));
    EXPECT_TRUE(is_dangerous(Opcode::kBndmk));
    EXPECT_TRUE(is_dangerous(Opcode::kBndmov));
    EXPECT_FALSE(is_dangerous(Opcode::kBndclMem));
    EXPECT_FALSE(is_dangerous(Opcode::kLoad));
    EXPECT_FALSE(is_dangerous(Opcode::kRdcycle));
}

TEST(Classify, TransferKinds)
{
    EXPECT_EQ(transfer_kind(Opcode::kJmp), TransferKind::kDirect);
    EXPECT_EQ(transfer_kind(Opcode::kJcc), TransferKind::kDirect);
    EXPECT_EQ(transfer_kind(Opcode::kCall), TransferKind::kDirect);
    EXPECT_EQ(transfer_kind(Opcode::kJmpReg),
              TransferKind::kRegisterIndirect);
    EXPECT_EQ(transfer_kind(Opcode::kCallReg),
              TransferKind::kRegisterIndirect);
    EXPECT_EQ(transfer_kind(Opcode::kJmpMem),
              TransferKind::kMemoryIndirect);
    EXPECT_EQ(transfer_kind(Opcode::kCallMem),
              TransferKind::kMemoryIndirect);
    EXPECT_EQ(transfer_kind(Opcode::kRet), TransferKind::kReturn);
    EXPECT_EQ(transfer_kind(Opcode::kRetImm), TransferKind::kReturn);
    EXPECT_EQ(transfer_kind(Opcode::kAddRR), TransferKind::kNone);
}

TEST(Classify, MemAccessPredicates)
{
    EXPECT_TRUE(explicit_mem_access(Opcode::kLoad));
    EXPECT_TRUE(explicit_mem_access(Opcode::kVGather));
    EXPECT_FALSE(explicit_mem_access(Opcode::kLea));
    EXPECT_TRUE(is_store(Opcode::kStore8));
    EXPECT_FALSE(is_store(Opcode::kLoad8));
    EXPECT_TRUE(implicit_stack_access(Opcode::kPush));
    EXPECT_TRUE(implicit_stack_access(Opcode::kCallReg));
    EXPECT_FALSE(implicit_stack_access(Opcode::kJmpReg));
}

// ---- assembler ---------------------------------------------------------

TEST(Assembler, ForwardAndBackwardLabels)
{
    Assembler a(0x1000);
    a.bind("start");
    a.mov_ri(1, 0);
    a.bind("loop");
    a.add_ri(1, 1);
    a.cmp_ri(1, 10);
    a.jcc(Cond::kLt, "loop");
    a.jmp("done");
    a.nop();
    a.bind("done");
    a.ret();
    Bytes code = a.finish();

    // Decode the whole stream and check the branch targets.
    std::vector<Instruction> instrs;
    size_t off = 0;
    while (off < code.size()) {
        auto d = decode(code.data(), code.size(), off, 0x1000 + off);
        ASSERT_TRUE(d.ok());
        instrs.push_back(d.value());
        off += d.value().length;
    }
    ASSERT_EQ(instrs.size(), 7u);
    EXPECT_EQ(instrs[3].direct_target(),
              0x1000 + a.label_offset("loop"));
    EXPECT_EQ(instrs[4].direct_target(),
              0x1000 + a.label_offset("done"));
}

TEST(Assembler, MovLabelAddress)
{
    Assembler a(0x8000);
    a.mov_rl(2, "func");
    a.jmp_reg(2);
    a.bind("func");
    a.cfi_label(0);
    Bytes code = a.finish();
    auto d = decode(code.data(), code.size(), 0, 0x8000);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(static_cast<uint64_t>(d.value().imm),
              0x8000 + a.label_offset("func"));
}

TEST(Assembler, MemGuardExpansion)
{
    Assembler a;
    a.mem_guard(mem_bd(3, 16));
    Bytes code = a.finish();
    auto first = decode(code.data(), code.size(), 0, 0);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().op, Opcode::kBndclMem);
    EXPECT_EQ(first.value().bnd, kBndData);
    auto second = decode(code.data(), code.size(), first.value().length,
                         first.value().length);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().op, Opcode::kBndcuMem);
}

TEST(Assembler, CfiGuardExpansion)
{
    Assembler a;
    a.cfi_guard(4);
    Bytes code = a.finish();
    auto first = decode(code.data(), code.size(), 0, 0);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().op, Opcode::kLoad);
    EXPECT_EQ(first.value().reg1, kScratch);
    EXPECT_EQ(first.value().mem.base, 4);
}

} // namespace
} // namespace occlum::isa

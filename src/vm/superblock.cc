/**
 * @file
 * Superblock translation (trace stitching + micro-op lowering) and
 * the tier-2 execution loop (Cpu::exec_superblock / promote).
 *
 * The stitcher follows static control flow from the hot entry:
 * collapsed direct jumps, stitched direct calls with a static return
 * stack, guarded returns (plain `ret` and the MMDSFI `jmp *reg`
 * rewrite), intra-trace conditional back edges. Everything it cannot
 * prove becomes a guarded exit carrying the exact architectural rip,
 * so a mispredicted trace is merely slow, never wrong.
 */
#include "vm/superblock.h"

#include <cstring>

#include "base/log.h"
#include "vm/cpu.h"

namespace occlum::vm {

using isa::Instruction;
using isa::Opcode;

namespace {

/**
 * Dispatch-label table published by the first (probe) call into
 * exec_superblock. Label addresses are per-function constants, so one
 * table serves every Cpu instance.
 */
const void *const *g_sb_label_table = nullptr;

/**
 * Evaluate `cond` of a compare of (a, b) directly from the operands.
 * Exactly equivalent to eval_cond() over set_cmp_flags(a, b) by the
 * x86 flag identities (sf != of <=> signed a < b, cf <=> unsigned
 * a < b, zf <=> a == b); fused compare-branches use this so the
 * branch decision does not round-trip through the flags store.
 */
inline bool
cond_holds(isa::Cond cond, uint64_t a, uint64_t b)
{
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    switch (cond) {
      case isa::Cond::kEq: return a == b;
      case isa::Cond::kNe: return a != b;
      case isa::Cond::kLt: return sa < sb;
      case isa::Cond::kLe: return sa <= sb;
      case isa::Cond::kGt: return sa > sb;
      case isa::Cond::kGe: return sa >= sb;
      case isa::Cond::kB: return a < b;
      case isa::Cond::kBe: return a <= b;
      case isa::Cond::kA: return a > b;
      case isa::Cond::kAe: return a >= b;
    }
    OCC_PANIC("bad cond");
}

FaultKind
sb_fault_kind(AccessFault fault)
{
    switch (fault) {
      case AccessFault::kUnmapped: return FaultKind::kPageFault;
      case AccessFault::kNoRead:
      case AccessFault::kNoWrite:
      case AccessFault::kNoExec: return FaultKind::kPermFault;
      case AccessFault::kNone: return FaultKind::kNone;
    }
    return FaultKind::kNone;
}

/** Bind a memory operand: rip-relative/absolute fold to a constant. */
void
bind_ea(Uop *u, const isa::MemOperand &mem, uint64_t instr_end)
{
    switch (mem.mode) {
      case isa::AddrMode::kBaseDisp:
        u->ea = kEaBaseDisp;
        u->base = mem.base;
        u->disp = static_cast<int64_t>(mem.disp);
        break;
      case isa::AddrMode::kSib:
        u->ea = kEaSib;
        u->base = mem.base;
        u->index = mem.index;
        u->scale = mem.scale_log2;
        u->disp = static_cast<int64_t>(mem.disp);
        break;
      case isa::AddrMode::kRipRel:
        u->ea = kEaConst;
        u->disp =
            static_cast<int64_t>(instr_end + static_cast<int64_t>(mem.disp));
        break;
      case isa::AddrMode::kAbs:
        u->ea = kEaConst;
        u->disp = static_cast<int64_t>(mem.abs_addr);
        break;
    }
}

/**
 * rip -> uop index for the trace being built: open-addressed, linear
 * probing, epoch-stamped so reset() is O(1) instead of clearing the
 * arrays. Translation does one allocation-free O(1) probe per
 * instruction where a node-based unordered_map would malloc per
 * insert — the map was the single largest slice of promotion cost.
 * Capacity is 4x kMaxTraceInstrs, so the table never fills.
 */
class RipIndex
{
  public:
    void reset()
    {
        if (++epoch_ == 0) { // stamp wrapped: hard-clear once
            std::memset(stamps_, 0, sizeof(stamps_));
            epoch_ = 1;
        }
    }
    int32_t find(uint64_t rip) const
    {
        for (size_t s = slot(rip);; s = (s + 1) & (kSlots - 1)) {
            if (stamps_[s] != epoch_) {
                return -1;
            }
            if (rips_[s] == rip) {
                return index_[s];
            }
        }
    }
    void insert(uint64_t rip, int32_t index)
    {
        for (size_t s = slot(rip);; s = (s + 1) & (kSlots - 1)) {
            if (stamps_[s] != epoch_ || rips_[s] == rip) {
                stamps_[s] = epoch_;
                rips_[s] = rip;
                index_[s] = index;
                return;
            }
        }
    }

  private:
    static constexpr size_t kSlots = 2048;
    static_assert(kSlots >= 4 * kMaxTraceInstrs, "keep the table sparse");
    static size_t slot(uint64_t rip)
    {
        return (rip * 0x9e3779b97f4a7c15ull >> 32) & (kSlots - 1);
    }
    uint32_t epoch_ = 0;
    uint32_t stamps_[kSlots] = {};
    uint64_t rips_[kSlots] = {};
    int32_t index_[kSlots] = {};
};

} // namespace

bool
translate_superblock(const SbDecodeFn &decode, uint64_t entry_rip,
                     uint64_t generation, Superblock *out)
{
    std::vector<Uop> uops;
    uops.reserve(32);
    // Instruction rip -> uop index, for intra-trace branch targets and
    // the merge check (control re-entering already-stitched code).
    static thread_local RipIndex index_at;
    index_at.reset();
    // Static return stack: pushed at stitched direct calls, consumed
    // by ret / jmp-reg guards so returns continue at the call site.
    std::vector<uint64_t> ret_stack;

    uint64_t pc = entry_rip;
    size_t instr_count = 0;
    bool done = false;

    auto exit_to = [&](uint64_t rip) {
        Uop u;
        u.kind = UopKind::kExitTo;
        u.exit_rip = rip;
        u.n_instrs = 0;
        u.cost = 0;
        u.address = rip;
        u.next_rip = rip;
        uops.push_back(u);
    };

    while (!done) {
        int32_t seen = index_at.find(pc);
        if (seen >= 0) {
            // Control flowed back into already-stitched code: close
            // the trace with an intra-trace jump (zero instructions —
            // no original instruction corresponds to this uop).
            Uop u;
            u.kind = UopKind::kGoto;
            u.target = seen;
            u.n_instrs = 0;
            u.cost = 0;
            u.address = pc;
            u.next_rip = pc;
            uops.push_back(u);
            break;
        }
        if (instr_count >= kMaxTraceInstrs) {
            exit_to(pc);
            break;
        }
        Instruction in;
        if (!decode(pc, &in)) {
            // Undecodable ahead of execution: if control really gets
            // here, tier 1 raises the architectural fault.
            exit_to(pc);
            break;
        }
        index_at.insert(pc, static_cast<int32_t>(uops.size()));
        ++instr_count;

        Uop u;
        u.address = in.address;
        u.address2 = in.address;
        u.next_rip = in.end();
        u.cost = in.cost;
        u.n_instrs = 1;
        uint64_t next_pc = in.end();

        switch (in.op) {
          case Opcode::kNop:
          case Opcode::kCfiLabel:
            u.kind = UopKind::kCharge;
            break;

          case Opcode::kHlt:
          case Opcode::kEexit:
          case Opcode::kEaccept:
          case Opcode::kXrstor:
          case Opcode::kWrfsbase:
          case Opcode::kBndmk:
          case Opcode::kBndmov:
            u.kind = UopKind::kPriv;
            u.imm = static_cast<int64_t>(in.op);
            done = true;
            break;

          case Opcode::kLtrap:
            u.kind = UopKind::kLtrap;
            done = true;
            break;

          case Opcode::kRdcycle:
            u.kind = UopKind::kRdcycle;
            u.reg1 = in.reg1;
            break;

          case Opcode::kMovRI:
            u.kind = UopKind::kMovRI;
            u.reg1 = in.reg1;
            u.imm = in.imm;
            break;
          case Opcode::kMovRR:
            u.kind = UopKind::kMovRR;
            u.reg1 = in.reg1;
            u.reg2 = in.reg2;
            break;

          case Opcode::kLoad:
          case Opcode::kLoad8:
          case Opcode::kLoad32:
          case Opcode::kVGather: // executes as a plain 64-bit load
            u.kind = UopKind::kLoad;
            u.reg1 = in.reg1;
            u.size = in.op == Opcode::kLoad8 ? 1
                   : in.op == Opcode::kLoad32 ? 4 : 8;
            bind_ea(&u, in.mem, in.end());
            break;
          case Opcode::kStore:
          case Opcode::kStore8:
          case Opcode::kStore32:
            u.kind = UopKind::kStore;
            u.reg1 = in.reg1;
            u.size = in.op == Opcode::kStore8 ? 1
                   : in.op == Opcode::kStore32 ? 4 : 8;
            bind_ea(&u, in.mem, in.end());
            break;
          case Opcode::kLea:
            u.kind = UopKind::kLea;
            u.reg1 = in.reg1;
            bind_ea(&u, in.mem, in.end());
            if (u.ea == kEaConst) {
                // A rip-relative/absolute lea folds to a constant at
                // translation time, so it is just a register move —
                // and kMovRI is packable where kLea is not (packs
                // reuse the EA fields).
                u.kind = UopKind::kMovRI;
                u.imm = u.disp;
            }
            break;

          case Opcode::kAddRR: u.kind = UopKind::kAddRR; goto rr;
          case Opcode::kSubRR: u.kind = UopKind::kSubRR; goto rr;
          case Opcode::kMulRR: u.kind = UopKind::kMulRR; goto rr;
          case Opcode::kDivRR: u.kind = UopKind::kDivRR; goto rr;
          case Opcode::kModRR: u.kind = UopKind::kModRR; goto rr;
          case Opcode::kAndRR: u.kind = UopKind::kAndRR; goto rr;
          case Opcode::kOrRR:  u.kind = UopKind::kOrRR;  goto rr;
          case Opcode::kXorRR: u.kind = UopKind::kXorRR; goto rr;
          case Opcode::kShlRR: u.kind = UopKind::kShlRR; goto rr;
          case Opcode::kShrRR: u.kind = UopKind::kShrRR; goto rr;
          case Opcode::kSarRR: u.kind = UopKind::kSarRR; goto rr;
          case Opcode::kCmpRR: u.kind = UopKind::kCmpRR; goto rr;
          case Opcode::kTestRR: u.kind = UopKind::kTestRR; goto rr;
          rr:
            u.reg1 = in.reg1;
            u.reg2 = in.reg2;
            break;

          case Opcode::kAddRI: u.kind = UopKind::kAddRI; goto ri;
          case Opcode::kSubRI: u.kind = UopKind::kSubRI; goto ri;
          case Opcode::kMulRI: u.kind = UopKind::kMulRI; goto ri;
          case Opcode::kAndRI: u.kind = UopKind::kAndRI; goto ri;
          case Opcode::kOrRI:  u.kind = UopKind::kOrRI;  goto ri;
          case Opcode::kXorRI: u.kind = UopKind::kXorRI; goto ri;
          case Opcode::kShlRI: u.kind = UopKind::kShlRI; goto ri;
          case Opcode::kShrRI: u.kind = UopKind::kShrRI; goto ri;
          case Opcode::kSarRI: u.kind = UopKind::kSarRI; goto ri;
          case Opcode::kCmpRI: u.kind = UopKind::kCmpRI; goto ri;
          ri:
            u.reg1 = in.reg1;
            u.imm = in.imm;
            break;

          case Opcode::kNeg:
            u.kind = UopKind::kNeg;
            u.reg1 = in.reg1;
            break;
          case Opcode::kNot:
            u.kind = UopKind::kNot;
            u.reg1 = in.reg1;
            break;

          case Opcode::kJmp: {
            uint64_t target = in.direct_target();
            int32_t t = index_at.find(target);
            if (t >= 0) {
                u.kind = UopKind::kGoto; // back edge: trace is closed
                u.target = t;
                u.next_rip = target;
                done = true;
            } else {
                // Collapsed: charge the jump, keep stitching at the
                // target — the branch chain disappears from dispatch.
                u.kind = UopKind::kCharge;
                u.next_rip = target;
                next_pc = target;
            }
            break;
          }
          case Opcode::kJcc: {
            uint64_t taken = in.direct_target();
            u.cond = in.cond;
            int32_t t = index_at.find(taken);
            if (t >= 0) {
                u.kind = UopKind::kJccGoto; // loop back edge
                u.target = t;
            } else {
                u.kind = UopKind::kJccExit;
                u.exit_rip = taken;
            }
            break; // fall-through path continues the trace
          }
          case Opcode::kCall: {
            uint64_t target = in.direct_target();
            u.imm = static_cast<int64_t>(in.end()); // pushed return rip
            if (ret_stack.size() >=
                static_cast<size_t>(kMaxStitchDepth)) {
                u.kind = UopKind::kCallExit;
                u.exit_rip = target;
                done = true;
            } else {
                u.kind = UopKind::kCall;
                u.next_rip = target; // control continues in the callee
                ret_stack.push_back(in.end());
                next_pc = target;
            }
            break;
          }
          case Opcode::kCallReg:
            u.kind = UopKind::kCallRegExit;
            u.reg1 = in.reg1;
            u.imm = static_cast<int64_t>(in.end());
            done = true;
            break;
          case Opcode::kCallMem:
            u.kind = UopKind::kCallMemExit;
            u.imm = static_cast<int64_t>(in.end());
            bind_ea(&u, in.mem, in.end());
            done = true;
            break;
          case Opcode::kJmpReg:
            u.reg1 = in.reg1;
            if (!ret_stack.empty()) {
                // The MMDSFI return rewrite (`pop r; cfi_guard; jmp
                // *r`): predict the statically paired return site and
                // guard on it — a mismatch exits with the true rip.
                u.kind = UopKind::kJmpRegGuard;
                u.exit_rip = ret_stack.back();
                ret_stack.pop_back();
                next_pc = u.exit_rip;
            } else {
                u.kind = UopKind::kJmpRegExit;
                done = true;
            }
            break;
          case Opcode::kJmpMem:
            u.kind = UopKind::kJmpMemExit;
            bind_ea(&u, in.mem, in.end());
            done = true;
            break;
          case Opcode::kRet:
          case Opcode::kRetImm:
            u.imm = in.imm; // extra pop bytes (kRetImm)
            u.reg1 = 0;
            if (!ret_stack.empty()) {
                u.kind = UopKind::kRetGuard;
                u.exit_rip = ret_stack.back();
                ret_stack.pop_back();
                next_pc = u.exit_rip;
            } else {
                u.kind = UopKind::kRetExit;
                done = true;
            }
            break;

          case Opcode::kPush:
            u.kind = UopKind::kPush;
            u.reg1 = in.reg1;
            break;
          case Opcode::kPushImm:
            u.kind = UopKind::kPushImm;
            u.imm = in.imm;
            break;
          case Opcode::kPop:
            u.kind = UopKind::kPop;
            u.reg1 = in.reg1;
            break;

          case Opcode::kBndclMem:
          case Opcode::kBndcuMem:
            u.kind = UopKind::kBndChkMem;
            u.mask = in.op == Opcode::kBndclMem ? 1 : 2;
            u.bnd = in.bnd;
            bind_ea(&u, in.mem, in.end());
            break;
          case Opcode::kBndclReg:
          case Opcode::kBndcuReg:
            u.kind = UopKind::kBndChkReg;
            u.mask = in.op == Opcode::kBndclReg ? 1 : 2;
            u.bnd = in.bnd;
            u.reg1 = in.reg1;
            break;
        }

        uops.push_back(u);
        pc = next_pc;
    }

    if (uops.empty() || uops[0].kind == UopKind::kExitTo) {
        return false; // no useful trace at this entry
    }

    std::vector<uint8_t> is_target(uops.size(), 0);
    for (const Uop &u : uops) {
        if (u.target >= 0) {
            is_target[static_cast<size_t>(u.target)] = 1;
        }
    }

    uint32_t folded = 0;
    peephole::elide_duplicate_guards(uops, is_target, &folded);
    peephole::fuse_bound_pairs(uops, is_target, &folded);
    peephole::fuse_compare_branches(uops, is_target);
    peephole::collapse_charge_runs(uops, is_target);
    // After charge runs are merged, so a collapsed run in front of an
    // access is absorbed whole.
    peephole::fuse_bound_accesses(uops, is_target, &folded);
    peephole::fuse_alu_packs(uops, is_target);
    // After packing, so ALU runs keep the pack encoding and only a
    // lone leftover ALU merges into the load feeding it.
    peephole::fuse_load_alu(uops, is_target);
    peephole::compact(uops);

    out->uops = std::move(uops);
    out->entry_rip = entry_rip;
    out->generation = generation;
    out->first_n_instrs = std::max<uint32_t>(1, out->uops[0].n_instrs);
    out->guards_folded = folded;
    return true;
}

Superblock *
Cpu::promote_superblock(uint64_t entry_rip)
{
    Superblock sb;
    // Serve decodes from predecoded tier-1 blocks when possible: the
    // trace mostly walks the promoted block itself (plus linked
    // successors), all already decoded under the current generation.
    // Stale-generation blocks are skipped — their bytes may differ.
    const Block *src = nullptr;
    size_t cursor = 0;
    const uint64_t gen = mem_->code_generation();
    auto decode = [&, this](uint64_t rip, Instruction *instr) {
        if (src != nullptr) {
            const std::vector<Instruction> &ins = src->instrs;
            if (cursor < ins.size() && ins[cursor].address == rip) {
                *instr = ins[cursor++];
                return true;
            }
            for (size_t k = 0; k < ins.size(); ++k) {
                if (ins[k].address == rip) {
                    *instr = ins[k];
                    cursor = k + 1;
                    return true;
                }
            }
        }
        auto it = block_cache_.find(rip);
        if (it != block_cache_.end() && it->second.generation == gen &&
            !it->second.instrs.empty()) {
            src = &it->second;
            cursor = 1;
            *instr = src->instrs[0];
            return true;
        }
        return decode_at(rip, instr) == FaultKind::kNone;
    };
    if (!translate_superblock(decode, entry_rip, gen, &sb)) {
        return nullptr;
    }
    // Direct threading: bind each uop to its dispatch label. The
    // first promotion probes exec_superblock (exit == nullptr) to
    // publish the function-local label table.
    if (g_sb_label_table == nullptr) {
        uint64_t none = 0;
        exec_superblock(sb, 0, &none, nullptr);
    }
    for (Uop &u : sb.uops) {
        u.handler = g_sb_label_table[static_cast<size_t>(u.kind)];
        // Memory uops bind the width-constant body variant (the
        // extension slots past kNumUopKinds) so the hot loop never
        // branches on op->size.
        int group;
        switch (u.kind) {
          case UopKind::kLoad:     group = 0; break;
          case UopKind::kStore:    group = 1; break;
          case UopKind::kLoadChk:  group = 2; break;
          case UopKind::kStoreChk: group = 3; break;
          case UopKind::kLoadAlu:  group = 4; break;
          default:                 group = -1; break;
        }
        if (group >= 0) {
            int w = u.size == 8 ? 0 : u.size == 4 ? 1 : 2;
            u.handler = g_sb_label_table
                [kNumUopKinds + static_cast<size_t>(group * 3 + w)];
        }
    }
    ++sb_promotions_;
    sb_guards_folded_ += sb.guards_folded;
    // Map nodes are stable; insert_or_assign replaces a stale trace
    // for the same entry in place (no Block points at it anymore —
    // re-promotion only happens after the pointing block was rebuilt).
    auto [it, inserted] = superblocks_.insert_or_assign(entry_rip,
                                                        std::move(sb));
    (void)inserted;
    return &it->second;
}

/*
 * Dispatch strategy: with a single switch, every uop would funnel
 * through one indirect branch whose target rotates with the kinds
 * inside the trace loop, so the predictor would eat a mispredict per
 * uop — which is most of an interpreter's per-op cost. With the GNU
 * labels-as-values extension (GCC and Clang, which the build requires)
 * each op body ends in its *own* dispatch jump, and inside a trace
 * each of those sites has a stable successor, so the replayed loop
 * runs nearly branch-miss-free.
 */
#define SB_OP(name) lbl_##name
#define SB_DISPATCH()                                                   \
    do {                                                                \
        op = uops + i;                                                  \
        if (budget - done < op->n_instrs) {                             \
            goto budget_stop;                                           \
        }                                                               \
        goto *op->handler;                                              \
    } while (0)

/*
 * kAluPack inner dispatch. Each pack slot goes through its own label
 * table so each slot's indirect branch has a stable per-trace target;
 * a single shared table (or an inlined switch the compiler
 * cross-jumps into one) would give one branch site whose target
 * rotates across slots every pack. Tables are indexed by raw UopKind
 * code; fuse_alu_packs only stores packable codes (<= kNot), the
 * kDivRR/kModRR and non-ALU slots map to the panic label.
 */
#define SB_ALU_TABLE(S)                                                 \
    static const void *const kAlu##S[] = {                              \
        &&alu##S##_Bad, &&alu##S##_Bad, &&alu##S##_MovRI,               \
        &&alu##S##_MovRR, &&alu##S##_AddRI, &&alu##S##_AddRR,           \
        &&alu##S##_SubRI, &&alu##S##_SubRR, &&alu##S##_MulRI,           \
        &&alu##S##_MulRR, &&alu##S##_Bad, &&alu##S##_Bad,               \
        &&alu##S##_AndRI, &&alu##S##_AndRR, &&alu##S##_OrRI,            \
        &&alu##S##_OrRR, &&alu##S##_XorRI, &&alu##S##_XorRR,            \
        &&alu##S##_ShlRI, &&alu##S##_ShrRI, &&alu##S##_SarRI,           \
        &&alu##S##_ShlRR, &&alu##S##_ShrRR, &&alu##S##_SarRR,           \
        &&alu##S##_Neg, &&alu##S##_Not,                                 \
    }

/** One packed mini-op body per packable kind, for slot S. */
#define SB_ALU_BODIES(S, RD, RS, IMM, NEXT)                             \
    alu##S##_MovRI: regs[RD] = static_cast<uint64_t>(IMM); NEXT;        \
    alu##S##_MovRR: regs[RD] = regs[RS]; NEXT;                          \
    alu##S##_AddRI: regs[RD] += static_cast<uint64_t>(IMM); NEXT;       \
    alu##S##_AddRR: regs[RD] += regs[RS]; NEXT;                         \
    alu##S##_SubRI: regs[RD] -= static_cast<uint64_t>(IMM); NEXT;       \
    alu##S##_SubRR: regs[RD] -= regs[RS]; NEXT;                         \
    alu##S##_MulRI: regs[RD] *= static_cast<uint64_t>(IMM); NEXT;       \
    alu##S##_MulRR: regs[RD] *= regs[RS]; NEXT;                         \
    alu##S##_AndRI: regs[RD] &= static_cast<uint64_t>(IMM); NEXT;       \
    alu##S##_AndRR: regs[RD] &= regs[RS]; NEXT;                         \
    alu##S##_OrRI: regs[RD] |= static_cast<uint64_t>(IMM); NEXT;        \
    alu##S##_OrRR: regs[RD] |= regs[RS]; NEXT;                          \
    alu##S##_XorRI: regs[RD] ^= static_cast<uint64_t>(IMM); NEXT;       \
    alu##S##_XorRR: regs[RD] ^= regs[RS]; NEXT;                         \
    alu##S##_ShlRI: regs[RD] <<= ((IMM) & 63); NEXT;                    \
    alu##S##_ShrRI: regs[RD] >>= ((IMM) & 63); NEXT;                    \
    alu##S##_SarRI:                                                     \
        regs[RD] = static_cast<uint64_t>(                               \
            static_cast<int64_t>(regs[RD]) >> ((IMM) & 63));            \
        NEXT;                                                           \
    alu##S##_ShlRR: regs[RD] <<= (regs[RS] & 63); NEXT;                 \
    alu##S##_ShrRR: regs[RD] >>= (regs[RS] & 63); NEXT;                 \
    alu##S##_SarRR:                                                     \
        regs[RD] = static_cast<uint64_t>(                               \
            static_cast<int64_t>(regs[RD]) >> (regs[RS] & 63));         \
        NEXT;                                                           \
    alu##S##_Neg: regs[RD] = 0 - regs[RD]; NEXT;                        \
    alu##S##_Not: regs[RD] = ~regs[RD]; NEXT;                           \
    alu##S##_Bad: OCC_PANIC("non-packable code in kAluPack")

Cpu::SbResult
Cpu::exec_superblock(const Superblock &sb, uint64_t max_instructions,
                     uint64_t *executed_io, CpuExit *exit)
{
    // __restrict: uops/regs point into disjoint allocations (the
    // installed trace vs. this Cpu's register file), and installed
    // uops are immutable while executing — without the qualifier
    // every regs/flags/memory store forces the compiler to reload
    // op-> fields, which dominates the straight-line dispatch cost.
    // Not const: trace linking (link_or_leave below) swaps in the
    // uop buffer of a successor trace without leaving this frame.
    const Uop *__restrict uops = sb.uops.data();
    uint64_t *__restrict const regs = state_.regs.data();
    AddressSpace &mem = *mem_;

    // Counters live in locals for the duration of the trace and are
    // flushed on every exit path; the deltas are exactly what the
    // per-instruction tiers would have produced.
    uint64_t cycles = cycles_;
    uint64_t done = 0;
    const uint64_t budget = max_instructions - *executed_io;
    // Deferred compare: fused compare-branches park their operands in
    // locals instead of writing state_.flags inside the hot loop; any
    // trace exit (every path goes through flush) or unfused flag
    // reader materializes the architectural flags first, so exits are
    // bit-identical to the per-instruction tiers.
    uint64_t flag_a = 0, flag_b = 0;
    bool flags_deferred = false;

    auto flush = [&]() {
        if (flags_deferred) {
            set_cmp_flags(flag_a, flag_b);
        }
        cycles_ = cycles;
        instructions_ += done;
        *executed_io += done;
    };
    auto do_fault = [&](FaultKind kind, uint64_t addr, uint64_t rip) {
        state_.rip = rip;
        exit->kind = ExitKind::kFault;
        exit->fault = kind;
        exit->fault_addr = addr;
        exit->rip = rip;
    };
    auto ea = [&regs](const Uop &op) -> uint64_t {
        switch (op.ea) {
          case kEaBaseDisp:
            return regs[op.base] + static_cast<uint64_t>(op.disp);
          case kEaSib:
            return regs[op.base] + (regs[op.index] << op.scale) +
                   static_cast<uint64_t>(op.disp);
          default:
            return static_cast<uint64_t>(op.disp);
        }
    };
    const Uop *__restrict op;
    int32_t i = 0;
    // One label per UopKind, in enum order (count asserted below;
    // every op body is reached by the full test battery, so an
    // ordering slip cannot survive a test run).
    static const void *const kLabels[] = {
        &&lbl_Dead, &&lbl_Charge,
        &&lbl_MovRI, &&lbl_MovRR,
        &&lbl_AddRI, &&lbl_AddRR, &&lbl_SubRI, &&lbl_SubRR,
        &&lbl_MulRI, &&lbl_MulRR, &&lbl_DivRR, &&lbl_ModRR,
        &&lbl_AndRI, &&lbl_AndRR, &&lbl_OrRI, &&lbl_OrRR,
        &&lbl_XorRI, &&lbl_XorRR,
        &&lbl_ShlRI, &&lbl_ShrRI, &&lbl_SarRI,
        &&lbl_ShlRR, &&lbl_ShrRR, &&lbl_SarRR,
        &&lbl_Neg, &&lbl_Not,
        &&lbl_CmpRI, &&lbl_CmpRR, &&lbl_TestRR,
        &&lbl_Lea, &&lbl_Rdcycle,
        &&lbl_Unbound, &&lbl_Unbound, // kLoad, kStore
        &&lbl_Push, &&lbl_PushImm, &&lbl_Pop,
        &&lbl_BndChkMem, &&lbl_BndChkReg,
        &&lbl_Goto, &&lbl_JccGoto, &&lbl_JccExit,
        &&lbl_CmpRIJccGoto, &&lbl_CmpRRJccGoto,
        &&lbl_CmpRIJccExit, &&lbl_CmpRRJccExit,
        &&lbl_Call, &&lbl_CallExit, &&lbl_CallRegExit, &&lbl_CallMemExit,
        &&lbl_JmpRegGuard, &&lbl_RetGuard, &&lbl_RetExit,
        &&lbl_JmpRegExit, &&lbl_JmpMemExit, &&lbl_ExitTo,
        &&lbl_Ltrap, &&lbl_Priv,
        &&lbl_AluPack, &&lbl_AluPackBr,
        &&lbl_Unbound, &&lbl_Unbound, // kLoadChk, kStoreChk
        &&lbl_Unbound,                // kLoadAlu
        // Width-constant memory bodies, past the UopKind-indexed
        // range. promote_superblock binds every memory uop (kLoad,
        // kStore, kLoadChk, kStoreChk, kLoadAlu) to the variant
        // matching its install-time width, so those kinds' own slots
        // are never dispatched. Order: group-major (Load, Store,
        // LoadChk, StoreChk, LoadAlu), width 8/4/1.
        &&lbl_Load8, &&lbl_Load4, &&lbl_Load1,
        &&lbl_Store8, &&lbl_Store4, &&lbl_Store1,
        &&lbl_LoadChk8, &&lbl_LoadChk4, &&lbl_LoadChk1,
        &&lbl_StoreChk8, &&lbl_StoreChk4, &&lbl_StoreChk1,
        &&lbl_LoadAlu8, &&lbl_LoadAlu4, &&lbl_LoadAlu1,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      kNumUopKinds + 15,
                  "dispatch table must cover every UopKind plus the "
                  "width-specialized memory slots");
    SB_ALU_TABLE(0);
    SB_ALU_TABLE(1);
    SB_ALU_TABLE(2);
    SB_ALU_TABLE(3);
    SB_ALU_TABLE(4);
    SB_ALU_TABLE(5);
    SB_ALU_TABLE(6); // kLoadAlu's appended mini-op
    if (exit == nullptr) {
        g_sb_label_table = kLabels; // probe from promote_superblock
        return SbResult::kLeft;
    }
    SB_DISPATCH();

    SB_OP(Charge):
        cycles += op->cost;
        done += op->n_instrs;
        ++i;
        SB_DISPATCH();

    SB_OP(MovRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(MovRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = regs[op->reg2];
        ++i;
        SB_DISPATCH();

    SB_OP(AddRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] += static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(AddRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] += regs[op->reg2];
        ++i;
        SB_DISPATCH();
    SB_OP(SubRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] -= static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(SubRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] -= regs[op->reg2];
        ++i;
        SB_DISPATCH();
    SB_OP(MulRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] *= static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(MulRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] *= regs[op->reg2];
        ++i;
        SB_DISPATCH();
    SB_OP(DivRR):
    SB_OP(ModRR): {
        cycles += op->cost;
        ++done;
        int64_t divisor = static_cast<int64_t>(regs[op->reg2]);
        if (divisor == 0) {
            do_fault(FaultKind::kDivide, op->address, op->address);
            flush();
            return SbResult::kExit;
        }
        int64_t dividend = static_cast<int64_t>(regs[op->reg1]);
        if (dividend == INT64_MIN && divisor == -1) {
            regs[op->reg1] = op->kind == UopKind::kDivRR
                                 ? static_cast<uint64_t>(INT64_MIN) : 0;
        } else if (op->kind == UopKind::kDivRR) {
            regs[op->reg1] = static_cast<uint64_t>(dividend / divisor);
        } else {
            regs[op->reg1] = static_cast<uint64_t>(dividend % divisor);
        }
        ++i;
        SB_DISPATCH();
    }
    SB_OP(AndRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] &= static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(AndRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] &= regs[op->reg2];
        ++i;
        SB_DISPATCH();
    SB_OP(OrRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] |= static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(OrRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] |= regs[op->reg2];
        ++i;
        SB_DISPATCH();
    SB_OP(XorRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] ^= static_cast<uint64_t>(op->imm);
        ++i;
        SB_DISPATCH();
    SB_OP(XorRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] ^= regs[op->reg2];
        ++i;
        SB_DISPATCH();
    SB_OP(ShlRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] <<= (op->imm & 63);
        ++i;
        SB_DISPATCH();
    SB_OP(ShrRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] >>= (op->imm & 63);
        ++i;
        SB_DISPATCH();
    SB_OP(SarRI):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = static_cast<uint64_t>(
            static_cast<int64_t>(regs[op->reg1]) >> (op->imm & 63));
        ++i;
        SB_DISPATCH();
    SB_OP(ShlRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] <<= (regs[op->reg2] & 63);
        ++i;
        SB_DISPATCH();
    SB_OP(ShrRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] >>= (regs[op->reg2] & 63);
        ++i;
        SB_DISPATCH();
    SB_OP(SarRR):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = static_cast<uint64_t>(
            static_cast<int64_t>(regs[op->reg1]) >>
            (regs[op->reg2] & 63));
        ++i;
        SB_DISPATCH();
    SB_OP(Neg):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = 0 - regs[op->reg1];
        ++i;
        SB_DISPATCH();
    SB_OP(Not):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = ~regs[op->reg1];
        ++i;
        SB_DISPATCH();

    SB_OP(CmpRI):
        cycles += op->cost;
        ++done;
        set_cmp_flags(regs[op->reg1], static_cast<uint64_t>(op->imm));
        flags_deferred = false;
        ++i;
        SB_DISPATCH();
    SB_OP(CmpRR):
        cycles += op->cost;
        ++done;
        set_cmp_flags(regs[op->reg1], regs[op->reg2]);
        flags_deferred = false;
        ++i;
        SB_DISPATCH();
    SB_OP(TestRR): {
        cycles += op->cost;
        ++done;
        flags_deferred = false;
        uint64_t r = regs[op->reg1] & regs[op->reg2];
        state_.flags.zf = (r == 0);
        state_.flags.sf = (static_cast<int64_t>(r) < 0);
        state_.flags.cf = false;
        state_.flags.of = false;
        ++i;
        SB_DISPATCH();
    }

    SB_OP(Lea):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = ea(*op);
        ++i;
        SB_DISPATCH();
    SB_OP(Rdcycle):
        cycles += op->cost;
        ++done;
        regs[op->reg1] = cycles; // after charging, like execute()
        ++i;
        SB_DISPATCH();

    /*
     * Memory bodies, one width-constant clone per access width
     * (reached only through the extension slots of kLabels). A shared
     * body would pick the width with data-dependent branches, and since
     * one body serves every trace, those branches would mispredict
     * whenever the workload mixes widths — memory uops are the bulk of
     * hot-loop dispatches.
     */
#define SB_LOAD_W(SZ)                                                   \
    lbl_Load##SZ: {                                                     \
        cycles += op->cost;                                             \
        ++done;                                                         \
        uint64_t addr = ea(*op);                                        \
        uint64_t value = 0;                                             \
        AccessFault f = mem.read_fast<SZ>(addr, &value);                \
        if (f != AccessFault::kNone) {                                  \
            do_fault(sb_fault_kind(f), addr, op->address);              \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        regs[op->reg1] = value;                                         \
        ++i;                                                            \
        SB_DISPATCH();                                                  \
    }
    SB_LOAD_W(8)
    SB_LOAD_W(4)
    SB_LOAD_W(1)
#undef SB_LOAD_W

    // Bound check(s) folded into the access: one EA, one dispatch.
    // Charge tiers mirror the unfused sequence exactly — a lo fail
    // charges only the head check, a hi fail the whole check portion,
    // an access fault the full group (the access itself charged, as
    // in the plain load/store bodies).

#define SB_STORE_W(SZ)                                                  \
    lbl_Store##SZ: {                                                    \
        cycles += op->cost;                                             \
        ++done;                                                         \
        uint64_t addr = ea(*op);                                        \
        uint64_t value = regs[op->reg1];                                \
        AccessFault f = mem.write_fast<SZ>(addr, &value);               \
        if (f != AccessFault::kNone) {                                  \
            do_fault(sb_fault_kind(f), addr, op->address);              \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        if (mem.code_generation() != sb.generation) {                   \
            state_.rip = op->next_rip;                                  \
            flush();                                                    \
            return SbResult::kLeft;                                     \
        }                                                               \
        ++i;                                                            \
        SB_DISPATCH();                                                  \
    }
    SB_STORE_W(8)
    SB_STORE_W(4)
    SB_STORE_W(1)
#undef SB_STORE_W

#define SB_LOADCHK_W(SZ)                                                \
    lbl_LoadChk##SZ: {                                                  \
        uint64_t addr = ea(*op);                                        \
        const BoundReg &bc = state_.bnds[op->bnd];                      \
        if ((op->mask & 1) && addr < bc.lo) {                           \
            cycles += op->cost_head;                                    \
            ++done;                                                     \
            do_fault(FaultKind::kBoundRange, addr, op->address);        \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        if ((op->mask & 2) && addr > bc.hi) {                           \
            cycles += static_cast<uint32_t>(op->target);                \
            done += static_cast<uint8_t>(op->n_instrs - 1);             \
            do_fault(FaultKind::kBoundRange, addr, op->address2);       \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        cycles += op->cost;                                             \
        done += op->n_instrs;                                           \
        uint64_t value = 0;                                             \
        AccessFault f = mem.read_fast<SZ>(addr, &value);                \
        if (f != AccessFault::kNone) {                                  \
            do_fault(sb_fault_kind(f), addr, op->exit_rip);             \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        regs[op->reg1] = value;                                         \
        ++i;                                                            \
        SB_DISPATCH();                                                  \
    }
    SB_LOADCHK_W(8)
    SB_LOADCHK_W(4)
    SB_LOADCHK_W(1)
#undef SB_LOADCHK_W

#define SB_STORECHK_W(SZ)                                               \
    lbl_StoreChk##SZ: {                                                 \
        uint64_t addr = ea(*op);                                        \
        const BoundReg &bc = state_.bnds[op->bnd];                      \
        if ((op->mask & 1) && addr < bc.lo) {                           \
            cycles += op->cost_head;                                    \
            ++done;                                                     \
            do_fault(FaultKind::kBoundRange, addr, op->address);        \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        if ((op->mask & 2) && addr > bc.hi) {                           \
            cycles += static_cast<uint32_t>(op->target);                \
            done += static_cast<uint8_t>(op->n_instrs - 1);             \
            do_fault(FaultKind::kBoundRange, addr, op->address2);       \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        cycles += op->cost;                                             \
        done += op->n_instrs;                                           \
        uint64_t value = regs[op->reg1];                                \
        AccessFault f = mem.write_fast<SZ>(addr, &value);               \
        if (f != AccessFault::kNone) {                                  \
            do_fault(sb_fault_kind(f), addr, op->exit_rip);             \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        if (mem.code_generation() != sb.generation) {                   \
            state_.rip = op->next_rip;                                  \
            flush();                                                    \
            return SbResult::kLeft;                                     \
        }                                                               \
        ++i;                                                            \
        SB_DISPATCH();                                                  \
    }
    SB_STORECHK_W(8)
    SB_STORECHK_W(4)
    SB_STORECHK_W(1)
#undef SB_STORECHK_W

    // A load with one ALU mini-op appended (see the Uop doc). Only
    // the load can fault, and it is the first component, so a fault
    // charges the load alone (cost_head) at the load's rip.
#define SB_LOADALU_W(SZ)                                                \
    lbl_LoadAlu##SZ: {                                                  \
        uint64_t addr = ea(*op);                                        \
        uint64_t value = 0;                                             \
        AccessFault f = mem.read_fast<SZ>(addr, &value);                \
        if (f != AccessFault::kNone) {                                  \
            cycles += op->cost_head;                                    \
            ++done;                                                     \
            do_fault(sb_fault_kind(f), addr, op->address);              \
            flush();                                                    \
            return SbResult::kExit;                                     \
        }                                                               \
        regs[op->reg1] = value;                                         \
        cycles += op->cost;                                             \
        done += op->n_instrs;                                           \
        goto *kAlu6[op->bnd];                                           \
    }
    SB_LOADALU_W(8)
    SB_LOADALU_W(4)
    SB_LOADALU_W(1)
#undef SB_LOADALU_W
    SB_ALU_BODIES(6, op->mask, op->reg2, op->imm,
                  do {
                      ++i;
                      SB_DISPATCH();
                  } while (0));

    // Memory kinds' own table slots (see kLabels).
  lbl_Unbound:
    OCC_PANIC("memory uop without a width-bound handler");

    SB_OP(Push):
    SB_OP(PushImm): {
        cycles += op->cost;
        ++done;
        uint64_t value = op->kind == UopKind::kPush
                             ? regs[op->reg1]
                             : static_cast<uint64_t>(op->imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        AccessFault f = mem.write_fast<8>(new_sp, &value);
        if (f != AccessFault::kNone) {
            do_fault(sb_fault_kind(f), new_sp, op->address);
            flush();
            return SbResult::kExit;
        }
        regs[isa::kSp] = new_sp;
        if (mem.code_generation() != sb.generation) {
            state_.rip = op->next_rip;
            flush();
            return SbResult::kLeft;
        }
        ++i;
        SB_DISPATCH();
    }
    SB_OP(Pop): {
        cycles += op->cost;
        ++done;
        uint64_t value = 0;
        AccessFault f = mem.read_fast<8>(regs[isa::kSp], &value);
        if (f != AccessFault::kNone) {
            do_fault(sb_fault_kind(f), regs[isa::kSp], op->address);
            flush();
            return SbResult::kExit;
        }
        regs[isa::kSp] += 8;
        regs[op->reg1] = value;
        ++i;
        SB_DISPATCH();
    }

    SB_OP(BndChkMem):
    SB_OP(BndChkReg): {
        uint64_t value = op->kind == UopKind::kBndChkMem
                             ? ea(*op) : regs[op->reg1];
        const BoundReg &b = state_.bnds[op->bnd];
        if ((op->mask & 1) && value < b.lo) {
            // First component of a fused pair: charge only the
            // head — the upper check never executed.
            cycles += op->mask == 3 ? op->cost_head : op->cost;
            ++done;
            do_fault(FaultKind::kBoundRange, value, op->address);
            flush();
            return SbResult::kExit;
        }
        if ((op->mask & 2) && value > b.hi) {
            cycles += op->cost;
            done += op->n_instrs;
            do_fault(FaultKind::kBoundRange, value, op->address2);
            flush();
            return SbResult::kExit;
        }
        cycles += op->cost;
        done += op->n_instrs;
        ++i;
        SB_DISPATCH();
    }

    SB_OP(Goto):
        cycles += op->cost;
        done += op->n_instrs;
        i = op->target;
        SB_DISPATCH();
    SB_OP(JccGoto):
        cycles += op->cost;
        ++done;
        if (flags_deferred) {
            set_cmp_flags(flag_a, flag_b);
            flags_deferred = false;
        }
        if (eval_cond(op->cond)) {
            i = op->target;
            SB_DISPATCH();
        }
        ++i;
        SB_DISPATCH();
    SB_OP(JccExit):
        cycles += op->cost;
        ++done;
        if (flags_deferred) {
            set_cmp_flags(flag_a, flag_b);
            flags_deferred = false;
        }
        if (eval_cond(op->cond)) {
            state_.rip = op->exit_rip;
            goto link_or_leave;
        }
        ++i;
        SB_DISPATCH();
    // Fused compare-branches decide the branch with cond_holds() on
    // the operands and only park the compared pair; the architectural
    // flags materialize lazily at the next unfused reader or at any
    // trace exit (flush), keeping four dead byte-stores per loop
    // iteration off the hot path.
    // The taken/not-taken split is a real branch, not a select: `i`
    // then comes from op->target (a constant per uop) instead of a
    // data-dependent cmov, which keeps the compared register's
    // store-to-load chain out of the next dispatch's address.
    SB_OP(CmpRIJccGoto): {
        cycles += op->cost;
        done += op->n_instrs;
        uint64_t a = regs[op->reg1], b = static_cast<uint64_t>(op->imm);
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            i = op->target;
            SB_DISPATCH();
        }
        ++i;
        SB_DISPATCH();
    }
    SB_OP(CmpRRJccGoto): {
        cycles += op->cost;
        done += op->n_instrs;
        uint64_t a = regs[op->reg1], b = regs[op->reg2];
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            i = op->target;
            SB_DISPATCH();
        }
        ++i;
        SB_DISPATCH();
    }
    SB_OP(CmpRIJccExit): {
        cycles += op->cost;
        done += op->n_instrs;
        uint64_t a = regs[op->reg1], b = static_cast<uint64_t>(op->imm);
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            goto fused_exit;
        }
        ++i;
        SB_DISPATCH();
    }
    SB_OP(CmpRRJccExit): {
        cycles += op->cost;
        done += op->n_instrs;
        uint64_t a = regs[op->reg1], b = regs[op->reg2];
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            goto fused_exit;
        }
        ++i;
        SB_DISPATCH();
    }
    fused_exit:
        state_.rip = op->exit_rip;
        goto link_or_leave;

    SB_OP(Call):
    SB_OP(CallExit): {
        cycles += op->cost;
        ++done;
        uint64_t value = static_cast<uint64_t>(op->imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        AccessFault f = mem.write_fast<8>(new_sp, &value);
        if (f != AccessFault::kNone) {
            do_fault(sb_fault_kind(f), new_sp, op->address);
            flush();
            return SbResult::kExit;
        }
        regs[isa::kSp] = new_sp;
        if (op->kind == UopKind::kCallExit) {
            // Linking re-validates the generation, so a push that
            // landed in an executable page cannot chain into a trace
            // that just went stale.
            state_.rip = op->exit_rip;
            goto link_or_leave;
        }
        if (mem.code_generation() != sb.generation) {
            state_.rip = op->next_rip;
            flush();
            return SbResult::kLeft;
        }
        ++i;
        SB_DISPATCH();
    }
    SB_OP(CallRegExit):
    SB_OP(CallMemExit): {
        cycles += op->cost;
        ++done;
        uint64_t target;
        if (op->kind == UopKind::kCallRegExit) {
            target = regs[op->reg1];
        } else {
            uint64_t addr = ea(*op);
            AccessFault f = mem.read_fast<8>(addr, &target);
            if (f != AccessFault::kNone) {
                do_fault(sb_fault_kind(f), addr, op->address);
                flush();
                return SbResult::kExit;
            }
        }
        uint64_t value = static_cast<uint64_t>(op->imm);
        uint64_t new_sp = regs[isa::kSp] - 8;
        AccessFault f = mem.write_fast<8>(new_sp, &value);
        if (f != AccessFault::kNone) {
            do_fault(sb_fault_kind(f), new_sp, op->address);
            flush();
            return SbResult::kExit;
        }
        regs[isa::kSp] = new_sp;
        state_.rip = target;
        goto link_or_leave;
    }
    SB_OP(RetGuard):
    SB_OP(RetExit): {
        cycles += op->cost;
        ++done;
        uint64_t target;
        AccessFault f = mem.read_fast<8>(regs[isa::kSp], &target);
        if (f != AccessFault::kNone) {
            do_fault(sb_fault_kind(f), regs[isa::kSp], op->address);
            flush();
            return SbResult::kExit;
        }
        regs[isa::kSp] += 8 + static_cast<uint64_t>(op->imm);
        if (op->kind == UopKind::kRetGuard && target == op->exit_rip) {
            ++i; // predicted return: keep running the trace
            SB_DISPATCH();
        }
        state_.rip = target;
        goto link_or_leave;
    }
    SB_OP(JmpRegGuard):
        cycles += op->cost;
        ++done;
        if (regs[op->reg1] == op->exit_rip) {
            ++i; // predicted (MMDSFI return rewrite)
            SB_DISPATCH();
        }
        state_.rip = regs[op->reg1];
        goto link_or_leave;
    SB_OP(JmpRegExit):
        cycles += op->cost;
        ++done;
        state_.rip = regs[op->reg1];
        goto link_or_leave;
    SB_OP(JmpMemExit): {
        cycles += op->cost;
        ++done;
        uint64_t addr = ea(*op);
        uint64_t target;
        AccessFault f = mem.read_fast<8>(addr, &target);
        if (f != AccessFault::kNone) {
            do_fault(sb_fault_kind(f), addr, op->address);
            flush();
            return SbResult::kExit;
        }
        state_.rip = target;
        goto link_or_leave;
    }
    SB_OP(ExitTo):
        state_.rip = op->exit_rip;
        goto link_or_leave;

    SB_OP(Ltrap):
        cycles += op->cost;
        ++done;
        state_.rip = op->next_rip; // resume past the trap
        exit->kind = ExitKind::kLtrap;
        exit->fault = FaultKind::kNone;
        exit->rip = op->address;
        flush();
        return SbResult::kExit;
    SB_OP(Priv):
        cycles += op->cost;
        ++done;
        state_.rip = op->address;
        exit->kind = ExitKind::kPrivileged;
        exit->fault = FaultKind::kNone;
        exit->priv_op = static_cast<Opcode>(op->imm);
        exit->rip = op->address;
        flush();
        return SbResult::kExit;

    SB_OP(AluPack):
        cycles += op->cost;
        done += op->n_instrs;
        goto *kAlu0[op->bnd];
        SB_ALU_BODIES(0, op->reg1, op->reg2, op->imm,
                      goto *kAlu1[op->mask]);
        SB_ALU_BODIES(1, op->base, op->index, op->disp,
                      do {
                          if (op->n_instrs != 3) {
                              ++i;
                              SB_DISPATCH();
                          }
                          goto *kAlu2[op->scale];
                      } while (0));
        SB_ALU_BODIES(2, op->ea, op->size,
                      static_cast<int64_t>(op->exit_rip),
                      do {
                          ++i;
                          SB_DISPATCH();
                      } while (0));

    // A pack with a merged compare + intra-trace branch: a tight loop
    // body in one uop, one dispatch per iteration. n_instrs counts the
    // compare+branch pair, so a 3-slot pack has n_instrs == 5.
    SB_OP(AluPackBr):
        cycles += op->cost;
        done += op->n_instrs;
        goto *kAlu3[op->bnd];
        SB_ALU_BODIES(3, op->reg1, op->reg2, op->imm,
                      goto *kAlu4[op->mask]);
        SB_ALU_BODIES(4, op->base, op->index, op->disp,
                      do {
                          if (op->n_instrs != 5) {
                              goto alupack_cmpbr;
                          }
                          goto *kAlu5[op->scale];
                      } while (0));
        SB_ALU_BODIES(5, op->ea, op->size,
                      static_cast<int64_t>(op->exit_rip),
                      goto alupack_cmpbr);
    alupack_cmpbr: {
        uint64_t a = regs[op->cost_head & 0xff];
        uint64_t b = (op->cost_head & 0x10000u)
                         ? regs[(op->cost_head >> 8) & 0xff]
                         : op->address2;
        flag_a = a;
        flag_b = b;
        flags_deferred = true;
        if (cond_holds(op->cond, a, b)) {
            i = op->target; // real branch: see the JccGoto comment
            SB_DISPATCH();
        }
        ++i;
        SB_DISPATCH();
    }

    SB_OP(Dead):
        OCC_PANIC("dead uop reached execution");

  link_or_leave:
    // Trace linking: a guard or branch exit whose continuation rip is
    // itself a promoted trace entry chains straight into that trace's
    // uops instead of bouncing through run_blocks (block lookup, tier
    // dispatch, re-entry) — call-heavy guests spend most exits on
    // exactly such trace-to-trace edges. The generation is checked
    // against the address space (not the departing trace) so a store
    // that just invalidated code can never chain into a stale trace,
    // and the counter-flush/budget semantics are unchanged: counters
    // stay in locals, and the budget check at the first dispatched uop
    // refuses entry exactly like run_blocks' first_n_instrs guard
    // (state_.rip already names the entry).
    {
        auto linked = superblocks_.find(state_.rip);
        if (linked != superblocks_.end() &&
            linked->second.generation == mem.code_generation()) {
            uops = linked->second.uops.data();
            ++sb_exec_hits_;
            i = 0;
            SB_DISPATCH();
        }
    }
    flush();
    return SbResult::kLeft;

  budget_stop:
    // Budget lands inside this uop: leave with rip at its first
    // instruction; tier 1 finishes the tail one instruction at a
    // time, so quantum slicing (AEX) sees exactly the same boundaries
    // as the other tiers.
    state_.rip = op->address;
    flush();
    return SbResult::kLeft;
}

} // namespace occlum::vm

/**
 * @file
 * The OVM CPU: an interpreter for the OVM ISA with MPX-style bound
 * registers and cycle accounting.
 *
 * One Cpu object models one hardware thread (one SGX thread when run
 * under the sgx substrate). Its full register state — including the
 * bound registers, which real SGX saves/restores through the SSA on
 * AEX (paper §2.1/§2.3) — can be snapshotted and restored, which is
 * how the scheduler context-switches SIPs.
 *
 * Dispatch uses a predecoded basic-block cache: the first execution
 * at an entry rip decodes a straight-line run of instructions (ending
 * at a control transfer, a dangerous/ltrap instruction, or the next
 * cfi_label) into a flat array; later executions replay the array in
 * a tight indexed loop. Blocks are keyed by their entry rip, so a
 * jump into the middle of a variable-length instruction builds its
 * own, differently-decoded block — the overlapping-instruction
 * semantics that make the disassembly problem real are preserved.
 * Blocks are invalidated by the AddressSpace generation counter,
 * which advances automatically on writes to executable pages that an
 * instruction fetch read under the current generation, and on
 * mapping-permission changes involving X. Cycle accounting is
 * identical with the cache on or off: the same per-instruction
 * isa::cycle_cost is charged by the shared execute step.
 *
 * On top of the block cache sits the superblock tier (tier 2, see
 * superblock.h): blocks that reach kPromoteThreshold dispatches are
 * stitched into traces of pre-resolved micro-ops and replayed by a
 * straight-line loop. The tier is wall-clock-only — simulated cycles,
 * instruction counts, fault points, and quantum-slice boundaries are
 * bit-identical to the other tiers — and rides the same generation
 * counter for invalidation: self-modifying code and X-permission
 * changes demote traces back to tier 1. The tier requires the block
 * cache (promotion counts block dispatches); with the cache off it is
 * inert.
 */
#ifndef OCCLUM_VM_CPU_H
#define OCCLUM_VM_CPU_H

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/isa.h"
#include "vm/address_space.h"
#include "vm/superblock.h"

namespace occlum::vm {

/** One MPX-style bound register: [lo, hi], inclusive. */
struct BoundReg {
    uint64_t lo = 0;
    uint64_t hi = ~0ull;
};

/** Comparison flags produced by cmp/test. */
struct Flags {
    bool zf = false;
    bool sf = false;
    bool cf = false;
    bool of = false;
};

/** Why the CPU stopped executing. */
enum class ExitKind {
    kInstrBudget, // executed the requested number of instructions
    kLtrap,       // hit ltrap (LibOS syscall trampoline)
    kPrivileged,  // hit a dangerous instruction (hlt/eexit/bndmk/...)
    kFault,       // memory / bound-range / decode / divide fault
};

/** Fault detail for ExitKind::kFault. */
enum class FaultKind {
    kNone,
    kPageFault,   // unmapped page (e.g. a guard region)
    kPermFault,   // mapped but wrong permission
    kExecFault,   // fetch from non-executable or unmapped page
    kBoundRange,  // #BR from bndcl/bndcu
    kInvalidInstr,// undecodable bytes
    kDivide,      // divide by zero
};

struct CpuExit {
    ExitKind kind = ExitKind::kInstrBudget;
    FaultKind fault = FaultKind::kNone;
    uint64_t fault_addr = 0; // faulting memory address if applicable
    uint64_t rip = 0;        // address of the instruction that exited
    isa::Opcode priv_op = isa::Opcode::kNop; // for kPrivileged
};

/** Full architectural state (the SSA image under SGX). */
struct CpuState {
    std::array<uint64_t, isa::kNumRegs> regs{};
    std::array<BoundReg, isa::kNumBndRegs> bnds{};
    Flags flags;
    uint64_t rip = 0;
};

/** The interpreter. */
class Cpu
{
  public:
    explicit Cpu(AddressSpace &mem)
        : mem_(&mem), block_cache_enabled_(default_block_cache_enabled()),
          superblock_enabled_(default_superblock_enabled())
    {}

    // ---- state access ------------------------------------------------
    uint64_t reg(int i) const { return state_.regs[i]; }
    void set_reg(int i, uint64_t v) { state_.regs[i] = v; }
    uint64_t rip() const { return state_.rip; }
    void set_rip(uint64_t rip) { state_.rip = rip; }
    BoundReg bnd(int i) const { return state_.bnds[i]; }
    void set_bnd(int i, BoundReg b) { state_.bnds[i] = b; }
    uint64_t sp() const { return state_.regs[isa::kSp]; }
    void set_sp(uint64_t v) { state_.regs[isa::kSp] = v; }

    const CpuState &state() const { return state_; }
    void set_state(const CpuState &s) { state_ = s; }

    /** Cycles consumed since construction (monotonic). */
    uint64_t cycles() const { return cycles_; }
    /** Dynamic instruction count since construction. */
    uint64_t instructions() const { return instructions_; }

    AddressSpace &mem() { return *mem_; }

    // ---- block-cache control -----------------------------------------
    /**
     * Enable/disable the basic-block cache. Drops cached blocks and
     * superblocks and zeroes all dispatch counters, so ablation rows
     * never mix counts from two tier configurations.
     */
    void set_block_cache_enabled(bool on);
    bool block_cache_enabled() const { return block_cache_enabled_; }

    /**
     * Default for newly constructed Cpus. The ablation bench flips
     * this to run whole workloads in decode-every-time mode without
     * threading a flag through every personality.
     */
    static void set_default_block_cache_enabled(bool on);
    static bool default_block_cache_enabled();

    /** Block-cache statistics (per-Cpu; also mirrored in the trace
     *  registry as vm.block_cache.{hits,misses,invalidations}). */
    uint64_t block_cache_hits() const { return bb_hits_; }
    uint64_t block_cache_misses() const { return bb_misses_; }
    uint64_t block_cache_invalidations() const { return bb_invalidations_; }
    size_t block_cache_blocks() const { return block_cache_.size(); }

    // ---- superblock-tier control -------------------------------------
    /**
     * Enable/disable the superblock tier (tier 2). Drops all cached
     * state and zeroes the dispatch counters, like the block-cache
     * toggle. Mirrors the crypto reference-mode pattern: the
     * process-wide default comes from OCCLUM_VM_SUPERBLOCK ("0"
     * disables; default on), and the static setter overrides it for
     * ablation/bisection without threading a flag through every
     * personality.
     */
    void set_superblock_enabled(bool on);
    bool superblock_enabled() const { return superblock_enabled_; }
    static void set_default_superblock_enabled(bool on);
    static bool default_superblock_enabled();

    /** Superblock statistics (per-Cpu; mirrored in the trace registry
     *  as vm.superblock.{promotions,invalidations,exec_hits,
     *  guards_folded}). */
    uint64_t superblock_promotions() const { return sb_promotions_; }
    uint64_t superblock_invalidations() const { return sb_invalidations_; }
    uint64_t superblock_exec_hits() const { return sb_exec_hits_; }
    uint64_t superblock_guards_folded() const { return sb_guards_folded_; }
    size_t superblock_count() const { return superblocks_.size(); }

    // ---- execution -----------------------------------------------------
    /**
     * Execute up to `max_instructions`. Returns the reason for
     * stopping. On kLtrap, rip points *past* the ltrap so execution
     * can resume after the LibOS services the call. On faults, rip is
     * the faulting instruction.
     */
    CpuExit run(uint64_t max_instructions);

  private:
    /** A predecoded straight-line run, keyed by its entry rip. */
    struct Block {
        std::vector<isa::Instruction> instrs;
        uint64_t generation = ~0ull;
        /**
         * Inline successor cache ("block linking"): the last two
         * transfer targets taken out of this block, so the common
         * jump/branch chains to its target block without a hash
         * lookup. Entries are validated against the current code
         * generation before use; map nodes are never erased (only
         * replaced in place or cleared wholesale), so the pointers
         * stay valid as long as the cache itself lives.
         */
        std::array<uint64_t, 2> succ_rip{};
        std::array<Block *, 2> succ{};
        uint8_t succ_victim = 0;
        /** Dispatch count; at kPromoteThreshold the block is stitched
         *  into a superblock (tier 2). */
        uint32_t exec_count = 0;
        /** The promoted trace, or nullptr. Points into superblocks_;
         *  valid while the generations match (checked at dispatch). */
        Superblock *sb = nullptr;
    };

    /** What the shared execute step did with control flow. */
    enum class Step {
        kNext,     // fell through; rip not yet advanced by execute
        kMemWrite, // fell through after writing memory (recheck code)
        kTransfer, // control transfer; execute stored the new rip
        kExit,     // run() must return `exit`
    };

    /** How a superblock execution ended. */
    enum class SbResult {
        kLeft, // left the trace; rip is set, the outer loop continues
        kExit, // run() must return `exit`
    };

    /** Block-cached interpreter loop; run() wraps it with metrics. */
    CpuExit run_blocks(uint64_t max_instructions);
    /** Decode-every-time loop (cache off; the ablation baseline). */
    CpuExit run_decode_loop(uint64_t max_instructions);

    /** Translate + install a superblock at entry_rip (tier 2);
     *  nullptr when no useful trace exists. In superblock.cc. */
    Superblock *promote_superblock(uint64_t entry_rip);
    /** Replay a trace until it exits or the budget lands inside it.
     *  Charges exactly what the per-instruction tiers would. */
    SbResult exec_superblock(const Superblock &sb, uint64_t max_instructions,
                             uint64_t *executed_io, CpuExit *exit);
    /** Zero all bb/sb counters (tier toggles must not mix counts). */
    void reset_dispatch_counters();

    /** Fetch + decode one instruction; kNone on success. */
    FaultKind decode_at(uint64_t rip, isa::Instruction *out);
    /** Find or build the block entered at rip; nullptr = fault in
     *  the *first* instruction, with `exit` filled in. */
    Block *lookup_block(uint64_t rip, CpuExit *exit);
    /** Charge cycles and execute one decoded instruction. */
    Step execute(const isa::Instruction &instr, CpuExit *exit);

    /** Effective address of a memory operand (rip-relative uses end). */
    uint64_t effective_address(const isa::MemOperand &mem,
                               uint64_t instr_end) const;

    // Inline: both sit on the per-instruction hot path of every
    // execution tier (tier 2 calls them from another TU).
    bool
    eval_cond(isa::Cond cond) const
    {
        const Flags &f = state_.flags;
        switch (cond) {
          case isa::Cond::kEq: return f.zf;
          case isa::Cond::kNe: return !f.zf;
          case isa::Cond::kLt: return f.sf != f.of;
          case isa::Cond::kLe: return f.zf || (f.sf != f.of);
          case isa::Cond::kGt: return !f.zf && (f.sf == f.of);
          case isa::Cond::kGe: return f.sf == f.of;
          case isa::Cond::kB: return f.cf;
          case isa::Cond::kBe: return f.cf || f.zf;
          case isa::Cond::kA: return !f.cf && !f.zf;
          case isa::Cond::kAe: return !f.cf;
        }
        OCC_PANIC("bad cond");
    }

    void
    set_cmp_flags(uint64_t a, uint64_t b)
    {
        uint64_t diff = a - b;
        int64_t sa = static_cast<int64_t>(a);
        int64_t sb = static_cast<int64_t>(b);
        state_.flags.zf = (a == b);
        state_.flags.sf = (static_cast<int64_t>(diff) < 0);
        state_.flags.cf = (a < b);
        // Signed overflow of a - b.
        state_.flags.of = ((sa < 0) != (sb < 0)) &&
                          ((sa < 0) != (static_cast<int64_t>(diff) < 0));
    }

    AddressSpace *mem_;
    CpuState state_;
    uint64_t cycles_ = 0;
    uint64_t instructions_ = 0;
    std::unordered_map<uint64_t, Block> block_cache_;
    bool block_cache_enabled_;
    uint64_t bb_hits_ = 0;
    uint64_t bb_misses_ = 0;
    uint64_t bb_invalidations_ = 0;

    /** Installed traces, keyed by entry rip. Nodes are stable (never
     *  erased, only replaced in place or cleared wholesale), so the
     *  Block::sb pointers stay valid for the life of the cache. */
    std::unordered_map<uint64_t, Superblock> superblocks_;
    bool superblock_enabled_;
    uint64_t sb_promotions_ = 0;
    uint64_t sb_invalidations_ = 0;
    uint64_t sb_exec_hits_ = 0;
    uint64_t sb_guards_folded_ = 0;
};

} // namespace occlum::vm

#endif // OCCLUM_VM_CPU_H

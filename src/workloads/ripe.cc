#include "workloads/ripe.h"

#include "base/log.h"
#include "isa/assembler.h"
#include "oelf/abi.h"

namespace occlum::workloads {

using isa::Assembler;
using isa::Instruction;
using isa::Opcode;
using isa::mem_bd;

namespace {

constexpr uint64_t kHeap = 64 << 10;
constexpr uint64_t kStack = 16 << 10;

void
mov_ri(Assembler &a, uint8_t reg, int64_t imm)
{
    a.mov_ri(reg, imm);
}

/** Position-independent "address of label" via rip-relative lea. */
void
lea_label(Assembler &a, uint8_t reg, const std::string &label)
{
    Instruction lea;
    lea.op = Opcode::kLea;
    lea.reg1 = reg;
    lea.mem.mode = isa::AddrMode::kRipRel;
    a.emit_mem_ref(lea, label);
}

/**
 * Load the current domain's cfi_label value into `dst` without
 * embedding the magic bytes (stage 1 would reject the direct
 * constant): read the domain ID from the PCB and assemble the value
 * arithmetically — exactly what a real attacker would do.
 */
void
emit_label_value(Assembler &a, uint8_t dst, uint8_t pcb_reg,
                 bool instrumented)
{
    // dst = [pcb + kPcbDomainId] << 32 | magic
    if (instrumented) {
        a.mem_guard(mem_bd(pcb_reg, abi::kPcbDomainId));
    }
    a.load(dst, mem_bd(pcb_reg, static_cast<int32_t>(abi::kPcbDomainId)));
    a.shl_ri(dst, 32);
    uint64_t magic = isa::cfi_label_value(0); // low 32 bits
    mov_ri(a, 11, static_cast<int64_t>(magic >> 8));
    a.shl_ri(11, 8);
    a.or_ri(11, static_cast<int32_t>(magic & 0xff));
    a.or_rr(dst, 11);
}

/** r2 := D.begin, derived from the initial stack pointer. */
void
emit_dbegin(Assembler &a, const oelf::Image &shape)
{
    a.mov_rr(2, isa::kSp);
    a.sub_ri(2, static_cast<int32_t>(shape.data_region_size() - 16));
}

} // namespace

const std::vector<std::string> &
ripe_attack_names()
{
    static const std::vector<std::string> names = {
        "inject_stack",        "inject_heap",       "inject_data",
        "rop_mid_instruction", "rop_function_tail", "ret2libc",
        "cross_domain_jump",
    };
    return names;
}

oelf::Image
ripe_attack(const std::string &kind, bool instrumented)
{
    oelf::Image shape;
    shape.heap_size = kHeap;
    shape.stack_size = kStack;
    shape.code_reserve = 1 << 20;

    Assembler a;
    a.cfi_label(0);

    // r2 = D.begin (PCB base).
    emit_dbegin(a, shape);

    if (kind.rfind("inject", 0) == 0) {
        // Attack: write [label value][shellcode] into writable memory
        // and jump there. The label value bytes decode as a cfi_label
        // so the Occlum cfi_guard *passes* — the attack is stopped by
        // the missing X permission on D, not by CFI (paper §7).
        int32_t dst_off = kind == "inject_heap"
                              ? static_cast<int32_t>(abi::kPcbSize + 256)
                          : kind == "inject_data"
                              ? static_cast<int32_t>(abi::kPcbSize)
                              : static_cast<int32_t>(
                                    shape.data_region_size() - 1024);
        // r1 = target address in D.
        a.mov_rr(1, 2);
        a.add_ri(1, dst_off);
        // r3 = this domain's label value.
        emit_label_value(a, 3, 2, instrumented);
        if (instrumented) {
            a.mem_guard(mem_bd(1, 0));
        }
        a.store(mem_bd(1, 0), 3);
        // Shellcode after the fake label: hlt.
        Assembler sc;
        sc.hlt();
        Bytes shellcode = sc.finish();
        for (size_t i = 0; i < shellcode.size(); ++i) {
            mov_ri(a, 4, shellcode[i]);
            if (instrumented) {
                a.mem_guard(mem_bd(1, static_cast<int32_t>(8 + i)));
            }
            a.store8(mem_bd(1, static_cast<int32_t>(8 + i)), 4);
        }
        if (instrumented) {
            a.cfi_guard(1);
        }
        a.jmp_reg(1);
    } else if (kind == "rop_mid_instruction") {
        // Gadget hidden inside a mov immediate: jumping into the
        // middle of `victim` executes `hlt`.
        lea_label(a, 1, "victim");
        a.add_ri(1, 2 + 3); // into the immediate of the 10-byte mov
        if (instrumented) {
            a.cfi_guard(1);
        }
        a.jmp_reg(1);
        a.bind("victim");
        // mov r5, imm64 whose 4th immediate byte is the hlt opcode.
        Instruction trap_mov;
        trap_mov.op = Opcode::kMovRI;
        trap_mov.reg1 = 5;
        trap_mov.imm = 0x0000000001000000ll |
                       (static_cast<int64_t>(
                            static_cast<uint8_t>(Opcode::kHlt))
                        << 24);
        a.emit(trap_mov);
        a.bind("after");
        a.jmp("after");
    } else if (kind == "rop_function_tail") {
        // Gadget at a plain instruction boundary (not a cfi_label).
        lea_label(a, 1, "gadget");
        if (instrumented) {
            a.cfi_guard(1);
        }
        a.jmp_reg(1);
        a.bind("victim_entry");
        a.cfi_label(0);
        mov_ri(a, 5, 7);
        a.bind("gadget");
        if (instrumented) {
            // Verified code cannot contain hlt (stage 2 would reject
            // the binary outright); the gadget here is benign, and
            // the attack must die in the cfi_guard before reaching it.
            a.bind("gspin");
            a.jmp("gspin");
        } else {
            a.hlt();
        }
    } else if (kind == "ret2libc") {
        // Corrupt the "return slot" to a *legitimate* function entry:
        // a libc-exit stand-in that terminates with code 7 via the
        // gate — observable as a successful (but confined) hijack.
        lea_label(a, 1, "libc_exit");
        if (instrumented) {
            a.cfi_guard(1);
        }
        a.jmp_reg(1);
        a.bind("libc_exit");
        a.cfi_label(0);
        emit_dbegin(a, shape);
        // r14 = trampoline address from the PCB.
        if (instrumented) {
            a.mem_guard(mem_bd(2, 0));
        }
        a.load(14, mem_bd(2, 0));
        Instruction num;
        num.op = Opcode::kMovRI;
        num.reg1 = 0;
        num.imm = static_cast<int64_t>(abi::Sys::kExit);
        a.emit(num);
        mov_ri(a, 1, 7);
        if (instrumented) {
            a.cfi_guard(14);
        }
        a.call_reg(14);
        // Return site must be a cfi_label: the LibOS validates the
        // syscall return target (paper Sec 6).
        a.cfi_label(0);
        a.bind("spin");
        a.jmp("spin");
    } else if (kind == "cross_domain_jump") {
        // Guess the neighbouring SIP's code address (base + one slot
        // span in the shared Occlum enclave; an arbitrary address
        // under EIP) and jump there.
        a.mov_rr(1, isa::kSp);
        a.add_ri(1, 12 << 20); // beyond this domain
        if (instrumented) {
            a.cfi_guard(1);
        }
        a.jmp_reg(1);
    } else {
        OCC_PANIC("unknown attack " << kind);
    }

    shape.code = a.finish();
    shape.entry_offset = 0;
    if (instrumented) {
        shape.flags = oelf::kFlagInstrumented;
    }
    return shape;
}

} // namespace occlum::workloads

#include "isa/assembler.h"

#include "base/log.h"

namespace occlum::isa {

MemOperand
mem_bd(uint8_t base, int32_t disp)
{
    MemOperand m;
    m.mode = AddrMode::kBaseDisp;
    m.base = base;
    m.disp = disp;
    return m;
}

MemOperand
mem_sib(uint8_t base, uint8_t index, uint8_t scale_log2, int32_t disp)
{
    MemOperand m;
    m.mode = AddrMode::kSib;
    m.base = base;
    m.index = index;
    m.scale_log2 = scale_log2;
    m.disp = disp;
    return m;
}

MemOperand
mem_rip(int32_t disp)
{
    MemOperand m;
    m.mode = AddrMode::kRipRel;
    m.disp = disp;
    return m;
}

MemOperand
mem_abs(uint64_t addr)
{
    MemOperand m;
    m.mode = AddrMode::kAbs;
    m.abs_addr = addr;
    return m;
}

void
Assembler::bind(const std::string &name)
{
    OCC_CHECK_MSG(labels_.find(name) == labels_.end(),
                  "label bound twice: " << name);
    labels_[name] = cursor_;
}

void
Assembler::define_value(const std::string &name, uint64_t offset)
{
    OCC_CHECK_MSG(labels_.find(name) == labels_.end(),
                  "label bound twice: " << name);
    labels_[name] = offset;
}

bool
Assembler::is_bound(const std::string &name) const
{
    return labels_.find(name) != labels_.end();
}

void
Assembler::push_item(Item item)
{
    item.offset = cursor_;
    cursor_ += item.length;
    items_.push_back(std::move(item));
}

void
Assembler::raw(const Bytes &bytes)
{
    Item item;
    item.is_raw = true;
    item.raw_bytes = bytes;
    item.length = bytes.size();
    push_item(std::move(item));
}

void
Assembler::zero_fill(size_t len)
{
    Item item;
    item.is_raw = true;
    item.length = len;
    push_item(std::move(item));
}

void
Assembler::emit(Instruction instr)
{
    Item item;
    item.instr = instr;
    item.length = encoded_length(instr);
    push_item(std::move(item));
}

void
Assembler::emit_mem_ref(Instruction instr, const std::string &mem_label)
{
    OCC_CHECK(instr.mem.mode == AddrMode::kRipRel);
    Item item;
    item.instr = instr;
    item.mem_ref = mem_label;
    item.length = encoded_length(instr);
    push_item(std::move(item));
}

void
Assembler::emit_branch(Instruction instr, const std::string &target)
{
    Item item;
    item.instr = instr;
    item.label_ref = target;
    item.length = encoded_length(instr);
    push_item(std::move(item));
}

void
Assembler::emit_addr_of(Instruction instr, const std::string &label)
{
    OCC_CHECK(instr.op == Opcode::kMovRI);
    Item item;
    item.instr = instr;
    item.label_ref = label;
    item.ref_is_addr = true;
    item.length = encoded_length(instr);
    push_item(std::move(item));
}

void
Assembler::emit_simple(Opcode op)
{
    Instruction i;
    i.op = op;
    emit(i);
}

void
Assembler::emit_reg(Opcode op, uint8_t r)
{
    Instruction i;
    i.op = op;
    i.reg1 = r;
    emit(i);
}

void
Assembler::emit_rr(Opcode op, uint8_t rd, uint8_t rs)
{
    Instruction i;
    i.op = op;
    i.reg1 = rd;
    i.reg2 = rs;
    emit(i);
}

void
Assembler::emit_ri(Opcode op, uint8_t rd, int64_t imm)
{
    Instruction i;
    i.op = op;
    i.reg1 = rd;
    i.imm = imm;
    emit(i);
}

void
Assembler::emit_rm(Opcode op, uint8_t r, MemOperand m)
{
    Instruction i;
    i.op = op;
    i.reg1 = r;
    i.mem = m;
    emit(i);
}

void
Assembler::cfi_label(uint32_t id)
{
    Instruction i;
    i.op = Opcode::kCfiLabel;
    i.label_id = id;
    emit(i);
}

void
Assembler::mov_ri(uint8_t r, int64_t imm)
{
    Instruction i;
    i.op = Opcode::kMovRI;
    i.reg1 = r;
    i.imm = imm;
    emit(i);
}

void
Assembler::mov_rl(uint8_t r, const std::string &label)
{
    Item item;
    item.instr.op = Opcode::kMovRI;
    item.instr.reg1 = r;
    item.label_ref = label;
    item.ref_is_addr = true;
    item.length = encoded_length(item.instr);
    push_item(std::move(item));
}

void
Assembler::jmp(const std::string &label)
{
    Item item;
    item.instr.op = Opcode::kJmp;
    item.label_ref = label;
    item.length = encoded_length(item.instr);
    push_item(std::move(item));
}

void
Assembler::jcc(Cond cond, const std::string &label)
{
    Item item;
    item.instr.op = Opcode::kJcc;
    item.instr.cond = cond;
    item.label_ref = label;
    item.length = encoded_length(item.instr);
    push_item(std::move(item));
}

void
Assembler::call(const std::string &label)
{
    Item item;
    item.instr.op = Opcode::kCall;
    item.label_ref = label;
    item.length = encoded_length(item.instr);
    push_item(std::move(item));
}

void
Assembler::jmp_mem(MemOperand m)
{
    Instruction i;
    i.op = Opcode::kJmpMem;
    i.mem = m;
    emit(i);
}

void
Assembler::call_mem(MemOperand m)
{
    Instruction i;
    i.op = Opcode::kCallMem;
    i.mem = m;
    emit(i);
}

void
Assembler::push_imm(int32_t imm)
{
    Instruction i;
    i.op = Opcode::kPushImm;
    i.imm = imm;
    emit(i);
}

void
Assembler::bndcl_mem(uint8_t bnd, MemOperand m)
{
    Instruction i;
    i.op = Opcode::kBndclMem;
    i.bnd = bnd;
    i.mem = m;
    emit(i);
}

void
Assembler::bndcu_mem(uint8_t bnd, MemOperand m)
{
    Instruction i;
    i.op = Opcode::kBndcuMem;
    i.bnd = bnd;
    i.mem = m;
    emit(i);
}

void
Assembler::bndcl_reg(uint8_t bnd, uint8_t r)
{
    Instruction i;
    i.op = Opcode::kBndclReg;
    i.bnd = bnd;
    i.reg1 = r;
    emit(i);
}

void
Assembler::bndcu_reg(uint8_t bnd, uint8_t r)
{
    Instruction i;
    i.op = Opcode::kBndcuReg;
    i.bnd = bnd;
    i.reg1 = r;
    emit(i);
}

void
Assembler::bndmk(uint8_t bnd, MemOperand m)
{
    Instruction i;
    i.op = Opcode::kBndmk;
    i.bnd = bnd;
    i.mem = m;
    emit(i);
}

uint64_t
Assembler::label_offset(const std::string &name) const
{
    auto it = labels_.find(name);
    OCC_CHECK_MSG(it != labels_.end(), "unbound label: " << name);
    return it->second;
}

Bytes
Assembler::finish()
{
    Bytes out;
    out.reserve(cursor_);
    for (auto &item : items_) {
        if (item.is_raw) {
            out.insert(out.end(), item.raw_bytes.begin(),
                       item.raw_bytes.end());
            out.resize(item.offset + item.length);
            continue;
        }
        Instruction instr = item.instr;
        if (!item.mem_ref.empty()) {
            uint64_t target = base_ + label_offset(item.mem_ref);
            uint64_t end = base_ + item.offset + item.length;
            int64_t disp = static_cast<int64_t>(target - end);
            OCC_CHECK_MSG(disp >= INT32_MIN && disp <= INT32_MAX,
                          "rip-rel overflow to " << item.mem_ref);
            instr.mem.disp = static_cast<int32_t>(disp);
        }
        if (!item.label_ref.empty()) {
            uint64_t target = base_ + label_offset(item.label_ref);
            if (item.ref_is_addr) {
                instr.imm = static_cast<int64_t>(target);
            } else {
                uint64_t end = base_ + item.offset + item.length;
                instr.imm = static_cast<int64_t>(target - end);
                OCC_CHECK_MSG(instr.imm >= INT32_MIN &&
                              instr.imm <= INT32_MAX,
                              "rel32 overflow to " << item.label_ref);
            }
        }
        size_t len = encode(instr, out);
        OCC_CHECK(len == item.length);
        OCC_CHECK(out.size() == item.offset + item.length);
    }
    return out;
}

} // namespace occlum::isa

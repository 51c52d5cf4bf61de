#include "cpu/cpu.hh"

#include "common/log.hh"
#include "isa/alu.hh"

namespace nvmr
{

Cpu::Cpu(const Program &prog, DataPort &data_port)
    : program(prog), port(data_port)
{
    reset();
}

void
Cpu::reset()
{
    regs.fill(0);
    _pc = program.entry;
    _halted = false;
    _instret = 0;
    if (tracer)
        tracer->record(EventKind::CpuReset);
}

CpuSnapshot
Cpu::snapshot() const
{
    CpuSnapshot snap;
    snap.regs = regs;
    snap.pc = _pc;
    return snap;
}

void
Cpu::restore(const CpuSnapshot &snap)
{
    regs = snap.regs;
    _pc = snap.pc;
    _halted = false;
}

void
Cpu::writeReg(unsigned idx, Word value)
{
    // Decoded register fields and setReg callers share this bounds
    // check; the assembler/decoder guarantee the range, so it is a
    // debug-build invariant rather than a per-instruction branch.
    debug_assert(idx < kNumRegs, "bad register index ", idx);
    if (idx != kRegZero)
        regs[idx] = value;
}

void
Cpu::setReg(unsigned idx, Word value)
{
    writeReg(idx, value);
}

StepResult
Cpu::step()
{
    debug_assert(!_halted, "step() after HALT");
    // Fuzzed programs can JR out of the text section, so the PC
    // bounds check stays on in release builds.
    panic_if(_pc >= program.text.size(),
             "PC out of range: ", _pc, " in ", program.name);

    const Instruction &inst = program.text[_pc];
    StepResult res;
    res.cycles = 1;

    uint32_t next_pc = _pc + 1;
    const Word a = regs[inst.rs1];
    const Word b = regs[inst.rs2];
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    const Word imm = static_cast<Word>(inst.imm);
    const SWord simm = inst.imm;

    auto branch_to = [&](bool taken) {
        if (taken) {
            next_pc = static_cast<uint32_t>(inst.imm);
            res.cycles += 2; // 3-stage pipeline refill
        }
    };

    switch (inst.op) {
      case Op::ADD: writeReg(inst.rd, a + b); break;
      case Op::SUB: writeReg(inst.rd, a - b); break;
      case Op::MUL:
        writeReg(inst.rd, a * b);
        res.cycles += 1; // iterative multiplier on M0+-class cores
        break;
      case Op::DIV:
        // Edge semantics (x/0, INT_MIN/-1) live in isa/alu.hh,
        // shared with the execution engine.
        writeReg(inst.rd, alu::div(sa, sb));
        res.cycles += 7; // software-assisted divide
        break;
      case Op::REM:
        writeReg(inst.rd, alu::rem(sa, sb));
        res.cycles += 7;
        break;
      case Op::AND: writeReg(inst.rd, a & b); break;
      case Op::OR: writeReg(inst.rd, a | b); break;
      case Op::XOR: writeReg(inst.rd, a ^ b); break;
      case Op::SLL:
        writeReg(inst.rd, alu::sll(a, alu::shiftAmount(b)));
        break;
      case Op::SRL:
        writeReg(inst.rd, alu::srl(a, alu::shiftAmount(b)));
        break;
      case Op::SRA:
        writeReg(inst.rd, alu::sra(a, alu::shiftAmount(b)));
        break;
      case Op::SLT: writeReg(inst.rd, sa < sb ? 1 : 0); break;
      case Op::SLTU: writeReg(inst.rd, a < b ? 1 : 0); break;

      case Op::ADDI: writeReg(inst.rd, a + imm); break;
      case Op::ANDI: writeReg(inst.rd, a & imm); break;
      case Op::ORI: writeReg(inst.rd, a | imm); break;
      case Op::XORI: writeReg(inst.rd, a ^ imm); break;
      case Op::SLLI:
        writeReg(inst.rd, alu::sll(a, alu::shiftAmount(imm)));
        break;
      case Op::SRLI:
        writeReg(inst.rd, alu::srl(a, alu::shiftAmount(imm)));
        break;
      case Op::SRAI:
        writeReg(inst.rd, alu::sra(a, alu::shiftAmount(imm)));
        break;
      case Op::SLTI: writeReg(inst.rd, sa < simm ? 1 : 0); break;
      case Op::MULI:
        writeReg(inst.rd, a * imm);
        res.cycles += 1;
        break;

      case Op::LUI: writeReg(inst.rd, imm); break;

      case Op::LD:
        writeReg(inst.rd, port.loadWord(a + imm));
        res.cycles += 1;
        break;
      case Op::LDB:
        writeReg(inst.rd, port.loadByte(a + imm));
        res.cycles += 1;
        break;
      case Op::ST:
        port.storeWord(a + imm, b);
        res.cycles += 1;
        break;
      case Op::STB:
        port.storeByte(a + imm, static_cast<uint8_t>(b));
        res.cycles += 1;
        break;

      case Op::BEQ: branch_to(a == b); break;
      case Op::BNE: branch_to(a != b); break;
      case Op::BLT: branch_to(sa < sb); break;
      case Op::BGE: branch_to(sa >= sb); break;
      case Op::BLTU: branch_to(a < b); break;
      case Op::BGEU: branch_to(a >= b); break;

      case Op::JMP:
        next_pc = static_cast<uint32_t>(inst.imm);
        res.cycles += 2;
        break;
      case Op::JAL:
        writeReg(inst.rd, _pc + 1);
        next_pc = static_cast<uint32_t>(inst.imm);
        res.cycles += 2;
        break;
      case Op::JR:
        next_pc = a + static_cast<uint32_t>(inst.imm);
        res.cycles += 2;
        break;

      case Op::HALT:
        _halted = true;
        res.halted = true;
        next_pc = _pc;
        if (tracer)
            tracer->record(EventKind::CpuHalt, _instret + 1);
        break;

      case Op::TASK:
        port.taskBoundary();
        break;

      default:
        panic("bad opcode at pc=", _pc);
    }

    _pc = next_pc;
    ++_instret;
    return res;
}

} // namespace nvmr

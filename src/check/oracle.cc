#include "check/oracle.hh"

#include <algorithm>

#include "arch/arch.hh"
#include "common/log.hh"
#include "cpu/cpu.hh"
#include "mem/flat_port.hh"

namespace nvmr
{

OracleResult
runOracle(const Program &prog, uint64_t max_instructions)
{
    // Same memory sizing rule as the golden run, so the two execute
    // over identical address spaces.
    FlatPort port(prog.data, "oracle");
    Cpu cpu(prog, port);

    OracleResult result;
    while (!cpu.halted() && result.instructions < max_instructions) {
        cpu.step();
        ++result.instructions;
    }
    result.halted = cpu.halted();
    for (unsigned i = 0; i < kNumRegs; ++i)
        result.regs[i] = cpu.reg(i);
    result.pc = cpu.pc();
    result.data = port.takeBytes();
    return result;
}

StateDiff
diffFinalState(const IntermittentArch &arch, const Program &prog,
               const OracleResult &oracle, const Cpu *cpu,
               size_t max_report)
{
    StateDiff diff;
    uint32_t words = prog.dataSize() / kWordBytes;
    for (uint32_t i = 0; i < words; ++i) {
        Addr addr = i * kWordBytes;
        Word expect = 0;
        for (unsigned b = 0; b < kWordBytes; ++b)
            expect |= static_cast<Word>(oracle.data[addr + b])
                      << (8 * b);
        Word actual = arch.inspectWord(addr);
        if (actual == expect)
            continue;
        ++diff.totalWordDiffs;
        if (diff.words.size() < max_report)
            diff.words.push_back({addr, expect, actual});
    }
    if (cpu && oracle.halted) {
        diff.regsChecked = true;
        for (unsigned i = 0; i < kNumRegs; ++i)
            if (cpu->reg(i) != oracle.regs[i])
                diff.regMismatches.push_back(i);
        diff.pcMismatch = cpu->pc() != oracle.pc;
    }
    return diff;
}

} // namespace nvmr

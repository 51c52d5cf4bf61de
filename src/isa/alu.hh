/**
 * @file
 * The single source of truth for the iisa ALU edge paths. Cpu::step()
 * (cpu/cpu.cc, the oracle behind the golden run and the differential
 * checker) and the execution engine (sim/engine.cc) both evaluate
 * DIV/REM and the shift family through these helpers, so the tricky
 * cases (divide-by-zero, INT_MIN/-1, shift amounts masked to 5 bits,
 * shift-by-zero) cannot drift between them. test_cpu_properties
 * asserts the table below against Cpu::step(); the engine-equivalence
 * test holds the engine to the same results.
 *
 *   op   | rs2 == 0      | INT_MIN / -1 | otherwise
 *   -----+---------------+--------------+---------------------
 *   DIV  | -1            | INT_MIN      | trunc(rs1 / rs2)
 *   REM  | rs1           | 0            | rs1 - (rs1/rs2)*rs2
 *
 *   shifts use only the low 5 bits of the amount (RISC-V style);
 *   a shift by zero is the identity, SRA replicates the sign bit.
 */

#ifndef NVMR_ISA_ALU_HH
#define NVMR_ISA_ALU_HH

#include <cstdint>

#include "common/types.hh"

namespace nvmr::alu
{

/** Shift amounts use the low 5 bits only (word size 32). */
inline constexpr Word kShiftMask = 31;

/** Mask a register- or immediate-sourced shift amount. */
constexpr unsigned
shiftAmount(Word raw)
{
    return static_cast<unsigned>(raw & kShiftMask);
}

/** Signed division with RISC-V edge semantics: x/0 == -1,
 *  INT_MIN/-1 == INT_MIN (no trap, no UB). */
constexpr Word
div(SWord sa, SWord sb)
{
    if (sb == 0)
        return static_cast<Word>(-1);
    if (sa == INT32_MIN && sb == -1)
        return static_cast<Word>(INT32_MIN);
    return static_cast<Word>(sa / sb);
}

/** Signed remainder with RISC-V edge semantics: x%0 == x,
 *  INT_MIN%-1 == 0 (no trap, no UB). */
constexpr Word
rem(SWord sa, SWord sb)
{
    if (sb == 0)
        return static_cast<Word>(sa);
    if (sa == INT32_MIN && sb == -1)
        return 0;
    return static_cast<Word>(sa % sb);
}

/** Logical left shift of a (pre-)masked amount. */
constexpr Word
sll(Word a, unsigned amount)
{
    return a << amount;
}

/** Logical right shift of a (pre-)masked amount. */
constexpr Word
srl(Word a, unsigned amount)
{
    return a >> amount;
}

/** Arithmetic right shift of a (pre-)masked amount (sign
 *  replicating; implementation-defined in C++17-, defined
 *  sign-propagating since C++20). */
constexpr Word
sra(Word a, unsigned amount)
{
    return static_cast<Word>(static_cast<SWord>(a) >> amount);
}

} // namespace nvmr::alu

#endif // NVMR_ISA_ALU_HH

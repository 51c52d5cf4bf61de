/**
 * @file
 * Two-pass assembler for the iisa instruction set.
 *
 * Syntax overview (see tests/test_assembler.cc for worked examples):
 *
 *     # comment               ; also a comment
 *         .data
 *     arr:  .word 1 2 -3 0x10 arr       # words; labels allowed
 *     buf:  .space 64                   # zero-filled bytes
 *     rnd:  .rand 256 42 0 1023         # n words from XorShift(seed)
 *     msg:  .asciiz "hello"             # NUL-terminated bytes
 *           .align 4
 *         .text
 *     main:
 *         li   r1, arr                  # 32-bit load immediate
 *         ld   r2, 0(r1)
 *         addi r2, r2, 1
 *         st   r2, 0(r1)
 *         bne  r2, r0, main
 *         halt
 *
 * Registers: r0..r15, with aliases zero (r0), sp (r14), ra (r15).
 * Pseudo-instructions: li, mv, nop, neg, not, call, ret, bgt, ble,
 * bgtu, bleu, jr (1-operand form).
 */

#ifndef NVMR_ISA_ASSEMBLER_HH
#define NVMR_ISA_ASSEMBLER_HH

#include <cstdint>
#include <string>

#include "isa/program.hh"

namespace nvmr
{

/** Largest data segment the assembler builds: the 2 MB NVM of
 *  Table 2, which no program image can outgrow. */
constexpr uint64_t kMaxDataBytes = 2u << 20;

/**
 * Assemble iisa source text into a Program. Calls fatal() with a
 * line-numbered message on any syntax error, and on data directives
 * that would grow the data segment past kMaxDataBytes.
 *
 * @param name Program name recorded in the image (for diagnostics).
 * @param source Full assembly source text.
 * @return The assembled program image.
 */
Program assemble(const std::string &name, const std::string &source);

} // namespace nvmr

#endif // NVMR_ISA_ASSEMBLER_HH

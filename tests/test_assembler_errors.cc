/**
 * @file
 * Death tests for assembler and loader error handling: every
 * malformed input must die with a line-numbered, descriptive message
 * (fatal() exits with status 1), never silently mis-assemble.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "workloads/workloads.hh"

namespace nvmr
{
namespace
{

TEST(AssemblerErrors, SpaceBeyondTheNvmIsRejected)
{
    // Used to attempt the allocation and die of std::bad_alloc.
    EXPECT_EXIT(assemble("t", ".data\nbuf: .space 1099511627776\n"
                              ".text\nhalt\n"),
                ::testing::ExitedWithCode(2), "t.asm:2: .space grows");
}

TEST(AssemblerErrors, RandBeyondTheNvmIsRejected)
{
    EXPECT_EXIT(assemble("t", ".data\nr: .rand 4611686018427387904 1 0 "
                              "9\n.text\nhalt\n"),
                ::testing::ExitedWithCode(2), "t.asm:2: .rand grows");
}

TEST(AssemblerErrors, SegmentsUpToTheNvmStillAssemble)
{
    // Exactly the NVM, split across directives: accepted. One byte
    // more is not.
    Program p = assemble("t", ".data\na: .space 2097148\n"
                              "b: .rand 1 1 0 9\n.text\nhalt\n");
    EXPECT_EQ(p.data.size(), kMaxDataBytes);
    EXPECT_EXIT(assemble("t", ".data\na: .space 2097152\n"
                              ".align 3\n.text\nhalt\n"),
                ::testing::ExitedWithCode(2), "t.asm:3: .align grows");
    EXPECT_EXIT(assemble("t", ".data\na: .space 2097152\n"
                              "b: .word 1\n.text\nhalt\n"),
                ::testing::ExitedWithCode(2), "t.asm:3: .word grows");
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    EXPECT_EXIT(assemble("t", "frobnicate r1, r2\n"),
                ::testing::ExitedWithCode(2), "unknown mnemonic");
}

TEST(AssemblerErrors, UnknownMnemonicReportsLineNumber)
{
    EXPECT_EXIT(assemble("t", "nop\nnop\nbad r1\n"),
                ::testing::ExitedWithCode(2), "t.asm:3");
}

TEST(AssemblerErrors, UndefinedSymbol)
{
    EXPECT_EXIT(assemble("t", "jmp nowhere\n"),
                ::testing::ExitedWithCode(2),
                "undefined symbol 'nowhere'");
}

TEST(AssemblerErrors, DuplicateLabel)
{
    EXPECT_EXIT(assemble("t", "a:\nnop\na:\nhalt\n"),
                ::testing::ExitedWithCode(2), "duplicate label");
}

TEST(AssemblerErrors, BadRegister)
{
    EXPECT_EXIT(assemble("t", "add r1, r2, r99\n"),
                ::testing::ExitedWithCode(2), "expected register");
}

TEST(AssemblerErrors, MissingOperand)
{
    EXPECT_EXIT(assemble("t", "add r1, r2\n"),
                ::testing::ExitedWithCode(2), "missing register");
}

TEST(AssemblerErrors, MissingMemOperand)
{
    EXPECT_EXIT(assemble("t", "ld r1, r2\n"),
                ::testing::ExitedWithCode(2),
                "expected imm\\(reg\\) operand");
}

TEST(AssemblerErrors, BadBaseRegister)
{
    EXPECT_EXIT(assemble("t", "ld r1, 0(bogus)\n"),
                ::testing::ExitedWithCode(2), "bad base register");
}

TEST(AssemblerErrors, UnterminatedParenthesis)
{
    EXPECT_EXIT(assemble("t", "ld r1, 0(r2\n"),
                ::testing::ExitedWithCode(2), "missing '\\)'");
}

TEST(AssemblerErrors, DirectiveOutsideData)
{
    EXPECT_EXIT(assemble("t", ".word 1\n"),
                ::testing::ExitedWithCode(2), "outside .data");
}

TEST(AssemblerErrors, InstructionInsideData)
{
    EXPECT_EXIT(assemble("t", ".data\nadd r1, r2, r3\n"),
                ::testing::ExitedWithCode(2),
                "instruction inside .data");
}

TEST(AssemblerErrors, UnknownDirective)
{
    EXPECT_EXIT(assemble("t", ".data\n.bogus 1\n"),
                ::testing::ExitedWithCode(2), "unknown directive");
}

TEST(AssemblerErrors, BadSpaceSize)
{
    EXPECT_EXIT(assemble("t", ".data\n.space -4\n"),
                ::testing::ExitedWithCode(2), "bad .space size");
}

TEST(AssemblerErrors, BadRandArity)
{
    EXPECT_EXIT(assemble("t", ".data\n.rand 4 1\n"),
                ::testing::ExitedWithCode(2), ".rand takes");
}

TEST(AssemblerErrors, AsciizNeedsString)
{
    EXPECT_EXIT(assemble("t", ".data\n.asciiz 42\n"),
                ::testing::ExitedWithCode(2),
                ".asciiz takes a string");
}

TEST(AssemblerErrors, UnterminatedString)
{
    EXPECT_EXIT(assemble("t", ".data\n.asciiz \"oops\n"),
                ::testing::ExitedWithCode(2), "unterminated string");
}

TEST(AssemblerErrors, EmptyProgram)
{
    EXPECT_EXIT(assemble("t", "# nothing here\n"),
                ::testing::ExitedWithCode(2),
                "program has no instructions");
}

TEST(AssemblerErrors, BadOffsetExpression)
{
    EXPECT_EXIT(assemble("t", ".data\nx: .word 1\n.text\n"
                              "li r1, x+y\nhalt\n"),
                ::testing::ExitedWithCode(2), "bad offset");
}

TEST(WorkloadErrors, UnknownWorkloadName)
{
    EXPECT_EXIT(findWorkload("not_a_benchmark"),
                ::testing::ExitedWithCode(2), "unknown workload");
}

} // namespace
} // namespace nvmr

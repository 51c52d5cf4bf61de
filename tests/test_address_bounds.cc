/**
 * @file
 * Address bounds checks at the top of the 32-bit space: an access
 * whose end wraps past 2^32 must hit the documented panic instead of
 * slipping past the check and reading or writing out of bounds. A
 * wear query past the end of the NVM panics the same way.
 */

#include <gtest/gtest.h>

#include "check/oracle.hh"
#include "isa/assembler.hh"
#include "mem/nvm.hh"
#include "power/policy.hh"
#include "sim/simulator.hh"

using namespace nvmr;

namespace
{

Program
wild(const char *op)
{
    return assemble("wild", std::string(R"(
main:
        li r1, -4
        )") + op + R"( r2, 0(r1)
        halt
)");
}

} // namespace

TEST(AddressBoundsDeathTest, GoldenRunPanicsOnWrappingAccess)
{
    Program load = wild("ld");
    EXPECT_DEATH(runContinuous(load),
                 "golden run access out of range");
    Program store = wild("st");
    EXPECT_DEATH(runContinuous(store),
                 "golden run access out of range");
}

TEST(AddressBoundsDeathTest, OraclePanicsOnWrappingAccess)
{
    Program load = wild("ld");
    EXPECT_DEATH(runOracle(load), "oracle access out of range");
    Program store = wild("st");
    EXPECT_DEATH(runOracle(store), "oracle access out of range");
}

TEST(AddressBoundsDeathTest, NvmPanicsOnWrappingAccess)
{
    // ClankOriginal has no cache: its loads and stores go straight to
    // Nvm::readWord/writeWord.
    for (const char *op : {"ld", "st"}) {
        Program prog = wild(op);
        SystemConfig cfg;
        JitPolicy policy;
        HarvestTrace trace(TraceKind::Rf, 7, 8.0);
        RunOptions opts;
        opts.validate = false;
        EXPECT_DEATH(
            {
                Simulator sim(prog, ArchKind::ClankOriginal, cfg, policy,
                              trace, opts);
                sim.run();
            },
            "NVM access out of range")
            << op;
    }
}

TEST(AddressBoundsDeathTest, NvmWearQueryPanicsPastTheEnd)
{
    constexpr uint32_t kBytes = 64 * 1024;
    TechParams tech;
    NullEnergySink sink;
    Nvm nvm(kBytes, tech, sink);
    nvm.writeWord(kBytes - kWordBytes, 1);
    // Any byte of a word names that word, up to the last byte.
    EXPECT_EQ(nvm.wearOf(kBytes - 1), 1u);
    EXPECT_EQ(nvm.wearOf(0x42), 0u);
    EXPECT_DEATH(nvm.wearOf(kBytes), "NVM wear query out of range");
    EXPECT_DEATH(nvm.wearOf(0xfffffffeu),
                 "NVM wear query out of range");
}

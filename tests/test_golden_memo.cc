/**
 * @file
 * The per-Program golden memo (sim/simulator.hh, goldenFor): one
 * shared image per Program under concurrent first use, no slot
 * inherited by copies, and validation that still compares the live
 * final image rather than trusting the memo.
 */

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "isa/assembler.hh"
#include "power/policy.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

/** The data-segment prefix of a fresh continuous run. */
GoldenImage
freshGolden(const Program &prog)
{
    GoldenResult g = runContinuous(prog);
    EXPECT_TRUE(g.halted);
    g.data.resize(prog.data.size());
    return g.data;
}

} // namespace

TEST(GoldenMemo, ConcurrentFirstUseSharesOneImage)
{
    Program prog = assembleWorkload("qsort");
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const GoldenImage>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[t] = goldenFor(prog);
        });
    for (std::thread &t : threads)
        t.join();

    ASSERT_NE(got[0], nullptr);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get()) << "thread " << t;
    EXPECT_EQ(*got[0], freshGolden(prog));
    EXPECT_EQ(goldenFor(prog).get(), got[0].get());
}

TEST(GoldenMemo, CopiesDoNotInheritTheSlot)
{
    Program prog = assembleWorkload("hist");
    auto original = goldenFor(prog);

    Program copy = prog;
    auto copied = goldenFor(copy);
    EXPECT_NE(copied.get(), original.get());
    EXPECT_EQ(*copied, *original);

    // A copy may diverge from its source: its memo follows its own
    // data, and the source's memo is untouched.
    Program edited = prog;
    edited.data[0] ^= 0xff;
    EXPECT_EQ(*goldenFor(edited), freshGolden(edited));
    EXPECT_EQ(goldenFor(prog).get(), original.get());

    Program moved = std::move(copy);
    EXPECT_NE(goldenFor(moved).get(), copied.get());

    prog.invalidateCaches();
    EXPECT_NE(goldenFor(prog).get(), original.get());
}

TEST(GoldenMemo, CorruptedFinalImageFailsValidation)
{
    // ClankOriginal has no cache, so the final image is the NVM
    // itself and a poked word is what validation reads.
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    JitPolicy policy;
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    Simulator sim(prog, ArchKind::ClankOriginal, cfg, policy, trace);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed && r.validated);
    const GoldenImage &golden = *goldenFor(prog);
    EXPECT_TRUE(sim.validateAgainstGolden(golden));

    Nvm &nvm = const_cast<Nvm &>(sim.nvmRef());
    nvm.pokeWord(0, nvm.peekWord(0) ^ 1u);
    EXPECT_FALSE(sim.validateAgainstGolden(golden));
    EXPECT_FALSE(sim.validateAgainstGolden(*goldenFor(prog)));
}

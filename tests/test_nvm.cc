/**
 * @file
 * Unit tests for the NVM (Flash) model: persistence, wear counters
 * and access accounting.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "mem/nvm.hh"

namespace nvmr
{
namespace
{

/** Sink that records total energy and cycles. */
class RecordingSink : public EnergySink
{
  public:
    void consume(NanoJoules nj) override { energy += nj; }
    void consumeOverhead(NanoJoules nj) override { overhead += nj; }
    void addCycles(Cycles n) override { cycles += n; }

    NanoJoules energy = 0;
    NanoJoules overhead = 0;
    Cycles cycles = 0;
};

struct NvmTest : public ::testing::Test
{
    TechParams tech;
    RecordingSink sink;
    Nvm nvm{1 << 16, tech, sink};
};

TEST_F(NvmTest, ReadWriteRoundTrip)
{
    nvm.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(nvm.readWord(0x100), 0xdeadbeefu);
    EXPECT_EQ(nvm.peekWord(0x100), 0xdeadbeefu);
}

TEST_F(NvmTest, LittleEndianLayout)
{
    nvm.pokeWord(0, 0x11223344);
    EXPECT_EQ(nvm.peekByte(0), 0x44u);
    EXPECT_EQ(nvm.peekByte(3), 0x11u);
}

TEST_F(NvmTest, AccountedAccessesChargeEnergyAndCycles)
{
    nvm.writeWord(0, 1);
    EXPECT_DOUBLE_EQ(sink.energy, tech.flashWriteWordNj);
    EXPECT_EQ(sink.cycles, tech.flashWriteCycles);
    nvm.readWord(0);
    EXPECT_DOUBLE_EQ(sink.energy,
                     tech.flashWriteWordNj + tech.flashReadWordNj);
    EXPECT_EQ(sink.cycles,
              tech.flashWriteCycles + tech.flashReadCycles);
}

TEST_F(NvmTest, PeekPokeAreFree)
{
    nvm.pokeWord(0, 5);
    nvm.peekWord(0);
    EXPECT_DOUBLE_EQ(sink.energy, 0.0);
    EXPECT_EQ(nvm.totalWrites(), 0u);
    EXPECT_EQ(nvm.totalReads(), 0u);
}

TEST_F(NvmTest, WearTracksPerWordWrites)
{
    for (int i = 0; i < 5; ++i)
        nvm.writeWord(0x40, i);
    nvm.writeWord(0x44, 1);
    EXPECT_EQ(nvm.wearOf(0x40), 5u);
    EXPECT_EQ(nvm.wearOf(0x42), 5u); // same word
    EXPECT_EQ(nvm.wearOf(0x44), 1u);
    EXPECT_EQ(nvm.maxWear(), 5u);
    EXPECT_EQ(nvm.totalWrites(), 6u);
}

TEST_F(NvmTest, LoadImagePlacesBytes)
{
    std::vector<uint8_t> img = {1, 2, 3, 4, 5};
    nvm.loadImage(0x80, img);
    EXPECT_EQ(nvm.peekByte(0x80), 1u);
    EXPECT_EQ(nvm.peekByte(0x84), 5u);
    EXPECT_EQ(nvm.maxWear(), 0u); // image load has no wear
}

TEST_F(NvmTest, WearPercentileOverWornWords)
{
    // Wear profile: one word at 10, three at 2, rest untouched.
    for (int i = 0; i < 10; ++i)
        nvm.writeWord(0x100, i);
    for (Addr a : {0x200u, 0x204u, 0x208u})
        for (int i = 0; i < 2; ++i)
            nvm.writeWord(a, i);
    EXPECT_EQ(nvm.wornWords(), 4u);
    EXPECT_EQ(nvm.wearPercentile(1.0), 10u);
    EXPECT_EQ(nvm.wearPercentile(0.0), 2u);
    EXPECT_EQ(nvm.wearPercentile(0.5), 2u);
}

TEST_F(NvmTest, WearPercentileEmpty)
{
    EXPECT_EQ(nvm.wearPercentile(0.99), 0u);
    EXPECT_EQ(nvm.wornWords(), 0u);
}

TEST_F(NvmTest, ResetStatsClearsCounters)
{
    nvm.writeWord(0, 1);
    nvm.readWord(0);
    nvm.resetStats();
    EXPECT_EQ(nvm.totalWrites(), 0u);
    EXPECT_EQ(nvm.totalReads(), 0u);
    EXPECT_EQ(nvm.maxWear(), 0u);
    // Contents survive a stats reset.
    EXPECT_EQ(nvm.peekWord(0), 1u);
}

/** Sink that browns out (throws PowerFailure) on its n-th energy
 *  charge, counting from 1; 0 never fails. */
class BrownOutSink : public EnergySink
{
  public:
    explicit BrownOutSink(uint64_t fail_at) : failAt(fail_at) {}

    void consume(NanoJoules nj) override { spend(nj); }
    void consumeOverhead(NanoJoules nj) override { spend(nj); }
    void addCycles(Cycles n) override { cycles += n; }

    NanoJoules energy = 0;
    Cycles cycles = 0;

  private:
    uint64_t failAt;
    uint64_t charges = 0;

    void
    spend(NanoJoules nj)
    {
        energy += nj;
        if (++charges == failAt)
            throw PowerFailure{};
    }
};

/** Counters, wear and contents of two NVMs after the same traffic,
 *  one through the block calls and one word by word. */
void
expectSameState(const Nvm &block, const Nvm &words, Addr base,
                uint32_t n)
{
    EXPECT_EQ(block.totalReads(), words.totalReads());
    EXPECT_EQ(block.totalWrites(), words.totalWrites());
    EXPECT_EQ(block.maxWear(), words.maxWear());
    EXPECT_EQ(block.wornWords(), words.wornWords());
    for (uint32_t w = 0; w < n; ++w) {
        Addr a = base + w * kWordBytes;
        EXPECT_EQ(block.wearOf(a), words.wearOf(a)) << "word " << w;
        EXPECT_EQ(block.peekWord(a), words.peekWord(a)) << "word " << w;
    }
}

TEST(NvmBlock, BrownOutMidBlockMatchesTheWordPath)
{
    // A brown-out at every charge of a 4-word block write, then of a
    // 4-word block read: the block calls must leave counters, wear
    // and contents exactly where the per-word calls leave them.
    TechParams tech;
    const Addr base = 0x40;
    const Word src[4] = {11, 22, 33, 44};
    for (uint64_t fail = 1; fail <= 9; ++fail) {
        BrownOutSink sink_b(fail), sink_w(fail);
        Nvm block(1 << 16, tech, sink_b), words(1 << 16, tech, sink_w);
        bool threw_b = false, threw_w = false;
        try {
            block.writeBlock(base, src, 4);
            Word out[4];
            block.readBlock(base, out, 4);
        } catch (PowerFailure &) {
            threw_b = true;
        }
        try {
            for (uint32_t w = 0; w < 4; ++w)
                words.writeWord(base + w * kWordBytes, src[w]);
            for (uint32_t w = 0; w < 4; ++w)
                words.readWord(base + w * kWordBytes);
        } catch (PowerFailure &) {
            threw_w = true;
        }
        SCOPED_TRACE(fail);
        EXPECT_EQ(threw_b, threw_w);
        EXPECT_EQ(sink_b.energy, sink_w.energy);
        EXPECT_EQ(sink_b.cycles, sink_w.cycles);
        expectSameState(block, words, base, 4);
    }
}

TEST(NvmBlock, BlockReadReturnsTheStoredWords)
{
    TechParams tech;
    RecordingSink sink;
    Nvm nvm(1 << 16, tech, sink);
    const Word src[4] = {0xdeadbeef, 1, 2, 0xffffffff};
    nvm.writeBlock(0x100, src, 4);
    Word out[4] = {};
    nvm.readBlock(0x100, out, 4);
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(out[w], src[w]);
    EXPECT_EQ(nvm.totalReads(), 4u);
    EXPECT_EQ(nvm.totalWrites(), 4u);
}

} // namespace
} // namespace nvmr

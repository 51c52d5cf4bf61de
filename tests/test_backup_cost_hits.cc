/**
 * @file
 * The rule the execution engine's cached JIT threshold rests on: every
 * scheme's backupCostNowNj() is unchanged by a load hit or by a store
 * to an already-dirty line (only misses, clean-to-dirty stores and
 * the backups, restores and power failures the engine already watches
 * can move it). Each case builds a state with dirty, clean, renamed or
 * logged blocks, then compares the estimate bit for bit across hits.
 */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "arch_harness.hh"

namespace nvmr
{
namespace
{

class BackupCostHits : public ::testing::TestWithParam<ArchKind>
{
  protected:
    ArchHarness h{GetParam()};

    void
    SetUp() override
    {
        // A read-dominated dirty block forced out (Clank backs up,
        // NvMR renames, HOOP logs), then dirtied again; a
        // write-dominated dirty block; and a clean resident block.
        h.arch->loadWord(0x100);
        h.arch->storeWord(0x100, 1);
        h.arch->storeWord(0x200, 2);
        h.evict(0x100);
        h.arch->storeWord(0x104, 3);
        h.arch->storeWord(0x200, 4);
        h.arch->loadWord(0x300);
    }

    uint64_t
    costBits() const
    {
        return std::bit_cast<uint64_t>(h.arch->backupCostNowNj());
    }

    uint64_t misses() const { return h.arch->dataCache().misses(); }
    uint32_t dirty() const { return h.arch->dataCache().dirtyCount(); }
};

TEST_P(BackupCostHits, LoadHitKeepsBackupCost)
{
    const uint64_t before = costBits();
    const uint64_t miss0 = misses();
    h.arch->loadWord(0x300); // clean line
    h.arch->loadWord(0x204); // dirty line
    h.arch->loadByte(0x107);
    EXPECT_EQ(misses(), miss0) << "the accesses must all hit";
    EXPECT_EQ(costBits(), before);
}

TEST_P(BackupCostHits, StoreToDirtyLineKeepsBackupCost)
{
    const uint64_t before = costBits();
    const uint64_t miss0 = misses();
    const uint32_t dirty0 = dirty();
    h.arch->storeWord(0x204, 5);
    h.arch->storeWord(0x100, 6);
    h.arch->storeByte(0x10b, 7);
    EXPECT_EQ(misses(), miss0) << "the accesses must all hit";
    EXPECT_EQ(dirty(), dirty0);
    EXPECT_EQ(costBits(), before);
}

TEST_P(BackupCostHits, CleanToDirtyStoreIsVisibleToTheEngine)
{
    // The engine drops its threshold when a store hit finds the line
    // clean; that store must indeed move the dirty count.
    const uint32_t dirty0 = dirty();
    const uint64_t miss0 = misses();
    h.arch->storeWord(0x300, 8);
    EXPECT_EQ(misses(), miss0);
    EXPECT_EQ(dirty(), dirty0 + 1);
}

INSTANTIATE_TEST_SUITE_P(Schemes, BackupCostHits,
                         ::testing::Values(ArchKind::Clank,
                                           ArchKind::Nvmr,
                                           ArchKind::Hoop,
                                           ArchKind::Ideal,
                                           ArchKind::Task),
                         [](const auto &info) {
                             return std::string(archKindName(info.param));
                         });

} // namespace
} // namespace nvmr

/**
 * @file
 * Versioned machine snapshots: one MachineSnapshot is a COW page-table
 * view of the NVM plus a flat blob of every small dynamic structure
 * (CPU, cache, arch scheme state, capacitor charge, energy accounts,
 * fault-injector state, policy state, simulator clocks/histograms).
 * Snapshots are captured only at instruction boundaries after a
 * committed backup (safe points), so a forked run resumed from one is
 * byte-identical to the run that kept going.
 */

#ifndef NVMR_SNAPSHOT_SNAPSHOT_HH
#define NVMR_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "snapshot/cow.hh"

namespace nvmr
{

class Simulator;

/** Full device + simulator state at one safe point. Immutable once
 *  captured; share freely across forks via shared_ptr. */
struct MachineSnapshot
{
    /** NVM contents, shared copy-on-write with the capturing run and
     *  every fork until they diverge. */
    CowStore::PageTable nvmPages;

    /** Everything else, in component serialization order. */
    std::vector<uint8_t> blob;

    // Capture-point metadata, so explorers can pick the nearest
    // preceding snapshot without deserializing the blob.
    uint64_t totalCycles = 0;   //!< simulator clock at capture
    uint64_t persistCount = 0;  //!< fault-injector persist counter
    uint64_t committedSeq = 0;  //!< arch backup sequence number
};

using SnapshotPtr = std::shared_ptr<const MachineSnapshot>;

/**
 * Observer invoked by the execution engine at every safe point (the
 * first instruction boundary after a committed backup) when attached
 * via RunOptions::snapshots. The sink decides whether to actually
 * capture (striding, caps) by calling Simulator::captureSnapshot().
 */
class SnapshotSink
{
  public:
    virtual ~SnapshotSink() = default;
    virtual void onSnapshotPoint(Simulator &sim) = 0;
};

/** Capture-everything sink with an optional stride and cap; the
 *  building block for the crash explorer and shrinker. */
class CollectingSnapshotSink : public SnapshotSink
{
  public:
    explicit CollectingSnapshotSink(uint64_t stride_ = 1,
                                    size_t cap_ = 0)
        : stride(stride_ ? stride_ : 1), cap(cap_)
    {}

    void onSnapshotPoint(Simulator &sim) override;

    std::vector<SnapshotPtr> snapshots;

    /** Safe points seen (captured or skipped). */
    uint64_t pointsSeen = 0;

  private:
    uint64_t stride;
    size_t cap; // 0 = unbounded
};

} // namespace nvmr

#endif // NVMR_SNAPSHOT_SNAPSHOT_HH

/**
 * @file
 * Simplified HOOP [6] (Sections 2.1 and 6.2): a log-based,
 * transaction-style intermittent system. Dirty cache evictions push
 * word updates into a volatile OOP buffer; backups pack the buffer
 * into slices and append them to the NVM OOP region (a redo log).
 * Restore garbage-collects the log onto the home addresses. The
 * mapping table is infinitely large and free, per Table 4.
 */

#ifndef NVMR_ARCH_HOOP_HH
#define NVMR_ARCH_HOOP_HH

#include <optional>

#include "arch/arch.hh"
#include "common/addr_map.hh"

namespace nvmr
{

/** Log-structured out-of-place-update architecture. */
class HoopArch : public IntermittentArch
{
  public:
    HoopArch(const SystemConfig &cfg, Nvm &nvm, EnergySink &sink);

    const char *name() const override { return "hoop"; }

    void performBackup(const CpuSnapshot &snap,
                       BackupReason reason) override;
    NanoJoules backupCostNowNj() const override;

    void onPowerFail() override;
    CpuSnapshot performRestore() override;
    NanoJoules restoreCostNowNj() const override;

    Word inspectWord(Addr addr) const override;

    /** Committed redo-log entries currently in the OOP region. */
    uint32_t oopRegionFill() const { return regionFill; }

    /** Word updates waiting in the volatile OOP buffer. */
    uint32_t oopBufferFill() const
    {
        return static_cast<uint32_t>(oopBuffer.size());
    }

    /** Garbage collections performed (restore + region-full). */
    uint64_t gcCount() const { return gcs; }

    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

  protected:
    void fetchBlock(Addr block_addr, Word *out) override;
    void evictLine(CacheLine &line) override;

    /** Backup-transaction hooks: the committed log *is* HOOP's
     *  recovery metadata, so a torn backup must roll it back. */
    void shadowCapture() override;
    void shadowRollback() override;
    void onBackupCommitted() override;

  private:
    /** Volatile OOP buffer: an append-only log of un-committed word
     *  updates (hardware appends; only reads search it, newest
     *  first). Repeated updates to one word occupy multiple slots --
     *  the store locality the paper says HOOP's packing depends
     *  on. */
    std::vector<std::pair<Addr, Word>> oopBuffer;

    /** Newest buffered value per word address -- an index over
     *  oopBuffer so block fetches resolve each word in O(1) instead
     *  of scanning the whole buffer (fetchBlock dominated whole-run
     *  profiles without it). Mutated only next to oopBuffer. */
    AddrMap<Word> bufNewest;

    /** Committed redo log contents: word address -> latest committed
     *  value. Stand-in for the infinite, zero-cost mapping table over
     *  the OOP region. Mutate it only through logSet/logErase/
     *  garbageCollect, which keep the transaction's undo log. */
    AddrMap<Word> committedLog;

    /**
     * Incremental census of the buffer's packed shape: the number of
     * same-block runs it holds and the block of the newest entry.
     * Kept in step with oopBuffer so backupCostNowNj — polled every
     * instruction by JIT policies — never walks the buffer.
     */
    uint64_t bufGroups = 0;
    Addr bufLastBlock = kNoAddr;

    /** Entries (word updates) occupying the OOP region. */
    uint32_t regionFill = 0;

    uint64_t gcs = 0;

    /** Backup-transaction undo log (fault injection): the committed
     *  log's value of each word before the transaction first changed
     *  it (nullopt = absent), so a torn backup rolls back what it
     *  touched instead of the backup copying the whole log. */
    AddrMap<std::optional<Word>> logUndo;
    uint32_t shadowFill = 0;
    bool shadowValid = false;

    /** Record `addr`'s pre-transaction log entry on first touch. */
    void noteLogUndo(Addr addr);
    void logSet(Addr addr, Word value);
    void logErase(Addr addr);

    /** Latest architectural value of a word, bypassing the cache. */
    Word backingWord(Addr word_addr) const;

    /** Apply the committed log onto the home addresses (charged). */
    void garbageCollect();

    /** Flush the OOP buffer into the OOP region as packed slices. */
    void flushBufferToRegion();

    /** NVM words a buffer flush would write right now. */
    uint64_t packedFlushWords() const;
};

} // namespace nvmr

#endif // NVMR_ARCH_HOOP_HH

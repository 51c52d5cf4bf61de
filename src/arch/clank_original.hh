/**
 * @file
 * The original Clank [16], as described in Section 2.1 of the paper:
 * no data cache — loads and stores go straight to NVM — with two
 * fixed-size address buffers detecting idempotency violations:
 *
 *  - the read-first buffer holds word addresses whose first access
 *    since the last backup was a load;
 *  - the write-first buffer holds those first written.
 *
 * A store to a read-first address is an idempotency violation and
 * forces a backup *before* the store persists; a buffer running out
 * of entries also forces a backup (which clears both). Backups only
 * persist the register file — there is no dirty cache — but stores
 * pay an NVM write each, which is why the paper's cache-based
 * "our version of Clank" saves ~11% over this design (footnote 6);
 * bench/footnote6_clank reproduces that comparison.
 */

#ifndef NVMR_ARCH_CLANK_ORIGINAL_HH
#define NVMR_ARCH_CLANK_ORIGINAL_HH

#include <set>

#include "arch/arch.hh"

namespace nvmr
{

/** Cacheless, buffer-based Clank. */
class ClankOriginalArch : public IntermittentArch
{
  public:
    ClankOriginalArch(const SystemConfig &cfg, Nvm &nvm,
                      EnergySink &sink);

    const char *name() const override { return "clank_original"; }

    // Direct-to-NVM data port (no cache).
    Word loadWord(Addr addr) override;
    void storeWord(Addr addr, Word value) override;
    uint8_t loadByte(Addr addr) override;
    void storeByte(Addr addr, uint8_t value) override;

    void performBackup(const CpuSnapshot &snap,
                       BackupReason reason) override;
    NanoJoules backupCostNowNj() const override;

    void onPowerFail() override;

    Word inspectWord(Addr addr) const override;

    uint32_t readFirstFill() const
    {
        return static_cast<uint32_t>(readFirst.size());
    }
    uint32_t writeFirstFill() const
    {
        return static_cast<uint32_t>(writeFirst.size());
    }

    void
    saveState(StateWriter &w) const override
    {
        IntermittentArch::saveState(w);
        w.u64(readFirst.size());
        for (Addr a : readFirst)
            w.pod(a);
        w.u64(writeFirst.size());
        for (Addr a : writeFirst)
            w.pod(a);
    }

    void
    restoreState(StateReader &r) override
    {
        IntermittentArch::restoreState(r);
        readFirst.clear();
        writeFirst.clear();
        uint64_t nr = r.u64();
        for (uint64_t i = 0; i < nr; ++i)
            readFirst.insert(r.pod<Addr>());
        uint64_t nw = r.u64();
        for (uint64_t i = 0; i < nw; ++i)
            writeFirst.insert(r.pod<Addr>());
    }

  protected:
    // The cache-centric base hooks are never reached: the port
    // methods above bypass the cache entirely.
    void fetchBlock(Addr block_addr, Word *out) override;
    void evictLine(CacheLine &line) override;

  private:
    std::set<Addr> readFirst;  ///< word addresses read first
    std::set<Addr> writeFirst; ///< word addresses written first

    /** SRAM energy for a buffer lookup/insert. */
    static constexpr NanoJoules kBufferTouchNj = 0.05;

    /**
     * Classify an access and enforce the protocol: may back up on a
     * violation or when a needed buffer is full. Returns after the
     * address is tracked (or the section was reset).
     */
    void trackAccess(Addr word_addr, bool is_store);
};

} // namespace nvmr

#endif // NVMR_ARCH_CLANK_ORIGINAL_HH

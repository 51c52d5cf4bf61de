/**
 * @file
 * Base classes for intermittent architectures.
 *
 * IntermittentArch owns the write-back data cache and implements the
 * CPU-facing DataPort; subclasses decide where cache blocks are
 * fetched from and written back to, and how idempotency violations
 * are handled (Ideal counts them, Clank backs up, NvMR renames, HOOP
 * logs out-of-place). The simulator orchestrates backups through the
 * BackupHost interface so the CPU register snapshot and energy-mode
 * switching live in one place.
 */

#ifndef NVMR_ARCH_ARCH_HH
#define NVMR_ARCH_ARCH_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "cpu/cpu.hh"
#include "fault/fault.hh"
#include "mem/bloom.hh"
#include "mem/cache.hh"
#include "mem/nvm.hh"
#include "mem/port.hh"
#include "obs/trace.hh"
#include "power/energy.hh"
#include "sim/config.hh"

namespace nvmr
{

/** Why a backup was invoked. */
enum class BackupReason : uint8_t
{
    Initial,              ///< persist the entry state before running
    Policy,               ///< the backup policy fired
    IdempotencyViolation, ///< Clank: violating eviction
    MtCacheEviction,      ///< NvMR: dirty map-table-cache entry evicted
    MapTableFull,         ///< NvMR: rename needed but map table full
    FreeListEmpty,        ///< NvMR: rename needed but no mappings left
    OopBufferFull,        ///< HOOP: out-of-place buffer full
    BufferFull,           ///< original Clank: rf/wf buffer full
    TaskBoundary,         ///< task-based scheme: `task` instruction
    Final,                ///< program halted; persist everything
    NUM
};

const char *backupReasonName(BackupReason reason);

constexpr size_t kNumBackupReasons =
    static_cast<size_t>(BackupReason::NUM);

// PowerFailure lives in fault/fault.hh so the injector can throw it
// without depending on the architecture layer.

/**
 * The simulator-side interface an architecture uses to invoke a full
 * backup from inside the memory system (violating eviction, structure
 * full, ...). The call is synchronous: when it returns, the backup
 * has persisted (or PowerFailure was thrown).
 */
class BackupHost
{
  public:
    virtual ~BackupHost() = default;
    virtual void requestBackup(BackupReason reason) = 0;
};

/** Counters every architecture maintains. */
struct ArchStats
{
    Scalar backups{"backups", "persisted backups"};
    Scalar violations{"violations", "idempotency violations detected"};
    Scalar renames{"renames", "NVM block renames performed"};
    Scalar reclaims{"reclaims", "map table entries reclaimed"};
    Scalar restores{"restores", "restores after power loss"};
    Scalar powerFailures{"power_failures", "brown-outs"};
    Scalar tornBackups{"torn_backups",
                       "backups cut by power loss and rolled back"};
    Scalar eccCorrected{"ecc_corrected",
                        "NVM bit errors corrected by SECDED"};
    Scalar eccUncorrectable{"ecc_uncorrectable",
                            "NVM reads with uncorrectable errors"};
    std::array<uint64_t, kNumBackupReasons> backupsByReason{};
};

/**
 * Common machinery: cache-front memory port, backup/restore of the
 * register snapshot, region layout, validation hooks.
 */
class IntermittentArch : public DataPort
{
  public:
    IntermittentArch(const SystemConfig &cfg, Nvm &nvm,
                     EnergySink &sink);
    ~IntermittentArch() override = default;

    /** Human-readable architecture name. */
    virtual const char *name() const = 0;

    /** Wire up the simulator's backup orchestration. */
    void attachHost(BackupHost *backup_host) { host = backup_host; }

    /** Wire up the fault injector (null keeps the fault-free
     *  fast path). NvMR forwards it to its NVM structures. */
    virtual void attachFaults(FaultInjector *injector)
    {
        faults = injector;
    }

    /** Attach an event sink (null keeps the trace-free fast path).
     *  NvMR forwards it to its map-table cache. */
    virtual void attachTrace(TraceSink *sink_) { tracer = sink_; }

    /** Register an externally-owned stat (the simulator adds its
     *  interval / wear histograms to the same registry). */
    void addStat(StatBase *stat) { statRegistry.add(stat); }

    /**
     * Load the program's data image into NVM and lay out the
     * reserved regions. Must be called once before execution.
     */
    virtual void initialize(const Program &prog);

    // ------------------------------------------------------------------
    // DataPort (CPU side)
    // ------------------------------------------------------------------
    Word loadWord(Addr addr) override;
    void storeWord(Addr addr, Word value) override;
    uint8_t loadByte(Addr addr) override;
    void storeByte(Addr addr, uint8_t value) override;

    /**
     * True while the DataPort above is this class's cache-fronted one
     * (the original Clank overrides it and clears this): the
     * execution engine may then serve accesses itself through
     * accessHit()/accessMiss(), which is what the port does.
     */
    bool cacheFrontedPort() const { return cacheFronted; }

    /**
     * The hit half of an access to [addr, addr + nbytes): when the
     * block is resident, charge the SRAM lookup (plus the LBF update
     * under dominance tracking) through `charge`, then refresh LRU,
     * count the hit, touch the LBF span and record the trace events,
     * and return the line. On a miss, return nullptr with nothing
     * charged, counted or recorded: the caller takes accessMiss().
     * The charge comes before any bookkeeping, so a brown-out inside
     * it leaves the hit count and LRU untouched. The port and the
     * execution engine share this routine; `charge` is whichever
     * inline path each has to the energy sink.
     */
    template <typename Charge>
    CacheLine *
    accessHit(Addr addr, uint32_t nbytes, bool is_store,
              Charge &&charge)
    {
        Addr block = cache.blockAlign(addr);
        CacheLine *line = cache.find(block);
        if (!line)
            return nullptr;
        charge(hitNj);
        cache.noteHit(*line);
        if (lbfTracking)
            line->touchSpan(addr - block, nbytes, is_store);
        if (tracer) {
            tracer->record(EventKind::CacheHit, block);
            recordAccess(addr, nbytes, is_store);
        }
        return line;
    }

    /**
     * The miss half: charge the lookup, count the miss, evict and
     * fill (fetching the block may evict, rename, log or back up),
     * touch the LBF span and record the access. Only call it after
     * accessHit() returned nullptr.
     */
    CacheLine &accessMiss(Addr addr, uint32_t nbytes, bool is_store);

    // ------------------------------------------------------------------
    // Intermittence control (called by the simulator)
    // ------------------------------------------------------------------

    /**
     * Persist a full backup: register snapshot, dirty data, and any
     * architecture-specific metadata. The simulator has already
     * verified the energy budget and set the Backup energy mode.
     */
    virtual void performBackup(const CpuSnapshot &snap,
                               BackupReason reason) = 0;

    /**
     * Upper bound on the energy a backup would cost right now; used
     * by the JIT policy and the simulator's atomic-backup precheck.
     */
    virtual NanoJoules backupCostNowNj() const = 0;

    /** Run after a persisted backup (NvMR reclaims here). */
    virtual void postBackup(BackupReason reason) { (void)reason; }

    /**
     * Open the two-phase backup transaction (fault injection only;
     * a no-op when the injector is off). Metadata structures shadow
     * their pre-backup state so a mid-backup crash rolls back to the
     * previous recovery image, and in-place persists of recovery
     * data are journaled with the home write deferred until after
     * the commit record.
     */
    void beginBackupTxn();

    /**
     * Close the transaction after a committed backup: replay the
     * deferred journal home writes (charged; crash-safe, replay is
     * idempotent and re-runs at restore if cut short).
     */
    void finishBackupTxn();

    /** Power was lost: drop all volatile state. */
    virtual void onPowerFail();

    /**
     * Power is back: charge restore costs and return the snapshot to
     * load into the CPU. Restore energy mode is already set.
     */
    virtual CpuSnapshot performRestore();

    /** Energy a restore costs (precheck at power-on). */
    virtual NanoJoules restoreCostNowNj() const;

    /** True once any backup has committed. */
    bool hasPersistedState() const { return committedSeq != 0; }

    /** Sequence number of the last committed backup (0 = none). */
    uint64_t committedBackupSeq() const { return committedSeq; }

    /** Copy the injector's ECC counters into ArchStats. */
    void syncFaultCounters(const FaultStats &fs);

    // ------------------------------------------------------------------
    // Machine snapshots (src/snapshot)
    // ------------------------------------------------------------------

    /**
     * Serialize every piece of dynamic architecture state -- cache,
     * backup slots, transaction bookkeeping, stats, and each scheme's
     * own structures -- in a fixed order. Called only at safe points
     * (instruction boundaries outside backups), so no transaction is
     * open. Subclasses extend by calling the base first.
     */
    virtual void saveState(StateWriter &w) const;

    /** Restore state captured by saveState() onto a freshly
     *  initialize()d instance of the same configuration. */
    virtual void restoreState(StateReader &r);

    // ------------------------------------------------------------------
    // Validation / inspection (no energy accounting)
    // ------------------------------------------------------------------

    /**
     * Read the architecturally current value of an application word:
     * cache first, then the architecture's latest mapping of the
     * address. Used by the correctness oracle and tests.
     */
    virtual Word inspectWord(Addr addr) const;

    /** End of application region (program data, block aligned). */
    Addr appRegionEnd() const { return appEnd; }

    const ArchStats &stats() const { return archStats; }

    /** Name-indexed view of the counters (gem5-style stats). */
    const StatGroup &statGroup() const { return statRegistry; }

    const DataCache &dataCache() const { return cache; }
    Nvm &nvmRef() { return nvm; }

  protected:
    const SystemConfig &cfg;
    Nvm &nvm;
    EnergySink &sink;
    DataCache cache;
    BackupHost *host = nullptr;
    FaultInjector *faults = nullptr;
    TraceSink *tracer = nullptr;

    /** True when accesses drive the LBF word-state protocol
     *  (DominanceArch): each access touches its span, and the lookup
     *  charge includes the LBF update. Set once by the DominanceArch
     *  constructor, together with hitNj. */
    bool lbfTracking = false;

    /** Energy of one access's lookup: the SRAM access, plus the LBF
     *  update when lbfTracking (one batched charge). */
    NanoJoules hitNj = 0;

    /** See cacheFrontedPort(); cleared by ports that bypass the
     *  cache. */
    bool cacheFronted = true;

    /**
     * One half of the double-buffered NVM backup region. The last
     * word persisted for a backup acts as its sequence-numbered
     * commit record: until it lands, the slot's seq stays stale and
     * restore falls back to the other (last complete) slot.
     */
    struct BackupSlot
    {
        uint64_t seq = 0;
        CpuSnapshot snap;
    };

    std::array<BackupSlot, 2> snapSlots;
    /** Slot holding the last *committed* backup. persistSnapshot
     *  always writes the other one. */
    uint32_t activeSlot = 0;
    /** Seq of the last committed backup; 0 before the first. */
    uint64_t committedSeq = 0;

    /** Two-phase backup transaction state (fault injection only). */
    bool txnOpen = false;
    bool txnCommitted = false;
    bool snapStaged = false;

    /** Redo journal: home writes of in-place persists, deferred
     *  until after the commit record (replayed by finishBackupTxn
     *  or, after a crash mid-replay, by performRestore). */
    std::vector<std::pair<Addr, Word>> redoJournal;

    Addr appEnd = 0;

    ArchStats archStats;
    StatGroup statRegistry;

    /** Fetch the current data of a block from backing storage
     *  (charged reads) into `out`, cfg.cache.wordsPerBlock() words;
     *  used on cache misses, which pass the victim line's own
     *  storage. */
    virtual void fetchBlock(Addr block_addr, Word *out) = 0;

    /** Handle eviction of a valid line (writeback, violations,
     *  renaming, logging...). Must leave the line clean. */
    virtual void evictLine(CacheLine &line) = 0;

    /** Hook run after a miss fill (GBF conservative marking). */
    virtual void afterFill(CacheLine &line) { (void)line; }

    /** The architecturally-latest NVM location of an application
     *  word, ignoring the cache (no energy). */
    virtual Addr inspectMapping(Addr addr) const;

    /** Victim selection, eviction and in-place fill of a missed
     *  block. */
    CacheLine &handleMiss(Addr block_addr);

    /** Access path shared by loadWord/storeWord/loadByte/storeByte. */
    CacheLine &access(Addr addr, uint32_t nbytes, bool is_store);

    /** Record the MemAccess event of a finished access. */
    void
    recordAccess(Addr addr, uint32_t nbytes, bool is_store)
    {
        tracer->record(EventKind::MemAccess, addr,
                       (static_cast<uint64_t>(is_store) << 8) | nbytes);
    }

    /**
     * Persist the register snapshot (17 NVM word writes) into the
     * inactive backup slot. The backup only becomes recoverable when
     * commitBackup() validates its commit record -- every
     * architecture's last persisted word doubles as that record, so
     * the protocol costs no extra NVM traffic.
     */
    void persistSnapshot(const CpuSnapshot &snap);

    /**
     * Architecture hooks around the transaction: capture shadow
     * copies of NVM metadata at txn open, roll them back after a
     * pre-commit crash, make staged updates durable at commit.
     */
    virtual void shadowCapture() {}
    virtual void shadowRollback() {}
    virtual void onBackupCommitted() {}

    /**
     * Persist a block as part of a backup's recovery image when the
     * target is live recovery state (in-place home writes). Charges
     * the journal copy (footnote 3 of the paper) plus -- under an
     * open transaction -- defers the home write into the redo
     * journal so a mid-backup crash leaves the previous image
     * intact. Without a transaction this is exactly the seed's
     * chargeJournalWrite + writeBlockTo sequence.
     */
    void journaledWriteBlock(Addr home, const CacheLine &line);

    /** Word-granular variant (HOOP's straight-home fallback). */
    void journaledWriteWord(Addr addr, Word value);

    /** Write a block's words to an NVM location (charged). */
    void writeBlockTo(Addr target, const CacheLine &line);

    /**
     * Charge the journal copy of a double-buffered persist: backups
     * that overwrite recovery state in place (Clank persisting
     * read-dominated blocks to their home addresses) must write the
     * data twice -- once into the journal, once home -- to stay
     * atomic (footnote 3 of the paper). Renamed persists don't pay
     * this, which is the heart of NvMR's saving.
     */
    void chargeJournalWrite(uint64_t words);

    // The three cost helpers run on every backupCostNowNj() call --
    // once per instruction under a JIT policy -- so they are defined
    // inline here rather than in arch.cc.

    /** Cost helper: n NVM word writes including stall-cycle energy. */
    NanoJoules
    nvmWriteCostNj(uint64_t words) const
    {
        // Stall cycles charge core energy *and* structure leakage
        // (and, for NvMR, map-table-cache leakage); bound them all so
        // backup prechecks never under-estimate.
        double per_cycle = cfg.tech.cpuCycleNj +
                           cfg.tech.leakNjPerCycle +
                           cfg.tech.mtCacheLeakNjPerCycle;
        return static_cast<double>(words) *
               (cfg.tech.flashWriteWordNj +
                static_cast<double>(cfg.tech.flashWriteCycles) *
                    per_cycle);
    }

    /** Cost helper: n NVM word reads including stall-cycle energy. */
    NanoJoules
    nvmReadCostNj(uint64_t words) const
    {
        double per_cycle = cfg.tech.cpuCycleNj +
                           cfg.tech.leakNjPerCycle +
                           cfg.tech.mtCacheLeakNjPerCycle;
        return static_cast<double>(words) *
               (cfg.tech.flashReadWordNj +
                static_cast<double>(cfg.tech.flashReadCycles) *
                    per_cycle);
    }

    /** Cost of persisting the register snapshot. */
    NanoJoules
    snapshotCostNj() const
    {
        return nvmWriteCostNj(CpuSnapshot::persistWords);
    }

    /**
     * Commit point of a backup: runs directly after the backup's
     * final NVM persist (which is its commit record), marks the
     * staged slot live and bumps the counters. A crash anywhere
     * before this call tears the backup; onPowerFail rolls it back.
     */
    void commitBackup(BackupReason reason);
};

/**
 * Shared base for the idempotency-violation-aware architectures
 * (Ideal, Clank, NvMR): owns the GBF and drives the LBF word-state
 * protocol of Sections 4.3-4.5.
 */
class DominanceArch : public IntermittentArch
{
  public:
    DominanceArch(const SystemConfig &cfg, Nvm &nvm, EnergySink &sink);

    void onPowerFail() override;

    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

  protected:
    BloomFilter gbf;

    /** GBF-driven conservative LBF initialization on fill. */
    void afterFill(CacheLine &line) override;

    /**
     * Eviction protocol: log read-dominance in the GBF, flag
     * violations on dirty read-dominated blocks, delegate the
     * violating writeback to the subclass.
     */
    void evictLine(CacheLine &line) final;

    /** Dirty, read-dominated block is leaving the cache. */
    virtual void violatingWriteback(CacheLine &line) = 0;

    /** Dirty, write-dominated/unknown block is leaving the cache. */
    virtual void normalWriteback(CacheLine &line);

    /** Reset GBF and LBF states (every backup does this). */
    void resetDominanceState();
};

} // namespace nvmr

#endif // NVMR_ARCH_ARCH_HH

/**
 * @file
 * Energy accounting for intermittent execution: technology constants,
 * the energy-category taxonomy of the EH model (forward progress,
 * backup, restore, dead) extended with NvMR's overhead categories, and
 * the pending/committed ledger that reclassifies re-executed work as
 * dead energy on power failures.
 */

#ifndef NVMR_POWER_ENERGY_HH
#define NVMR_POWER_ENERGY_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/types.hh"

namespace nvmr
{

/**
 * Energy categories reported by the evaluation (Figure 11). Forward /
 * Backup / Restore / Dead follow the EH model [39]; the *Overhead
 * variants account for NvMR's map-table cache and map-table/free-list
 * NVM traffic; Reclaim accounts for map-table reclamation copies.
 */
enum class ECat : uint8_t
{
    Forward,
    ForwardOverhead,
    Backup,
    BackupOverhead,
    Restore,
    RestoreOverhead,
    Reclaim,
    Dead,
    NUM
};

/** Printable name of a category. */
const char *ecatName(ECat cat);

constexpr size_t kNumECats = static_cast<size_t>(ECat::NUM);

/**
 * Technology constants (all energies in nanojoules). The absolute
 * values are calibrated stand-ins for the paper's CACTI / McPAT /
 * STM32L011 numbers (DESIGN.md, substitution 4); what matters for the
 * reproduced results is the ordering Flash write >> Flash read >>
 * SRAM access, and capacitor energies sized so active periods span
 * 10^3..10^5 cycles.
 */
struct TechParams
{
    /** CPU core + instruction fetch energy per cycle. */
    NanoJoules cpuCycleNj = 1.0;

    /** Data cache SRAM access (per block-touch). */
    NanoJoules cacheAccessNj = 0.2;

    /** GBF/LBF lookup or update. */
    NanoJoules bloomNj = 0.03;

    /** Map-table cache SRAM access (NvMR overhead). */
    NanoJoules mtCacheAccessNj = 0.3;

    /** NVM (Flash) word read. Flash reads on MCUs run at core speed
     *  and cost little more than an SRAM access. */
    NanoJoules flashReadWordNj = 0.5;

    /** NVM (Flash) word write/program. Flash programming dominates
     *  everything else (real flash is 10^2..10^3 x a core cycle; the
     *  60x used here matches the capScale-reduced storage so that
     *  backup costs stay affordable on the smallest capacitor). */
    NanoJoules flashWriteWordNj = 60.0;

    /** Stall cycles per NVM word read. */
    Cycles flashReadCycles = 1;

    /** Stall cycles per NVM word write. */
    Cycles flashWriteCycles = 8;

    /** Static leakage of the added SRAM structures, per active cycle. */
    NanoJoules leakNjPerCycle = 0.05;

    /** Extra leakage charged per active cycle for the NvMR map-table
     *  cache (reported as overhead energy). */
    NanoJoules mtCacheLeakNjPerCycle = 0.01;

    /** Leakage while hibernating (after a JIT backup, pre-death):
     *  regulator + SRAM retention standby current. High enough that
     *  a multi-hundred-millisecond outage kills a hibernating
     *  device. */
    NanoJoules hibernateLeakNjPerCycle = 0.02;

    /** The default technology: Flash-backed NVM (Table 2). */
    static TechParams flash() { return TechParams{}; }

    /**
     * FRAM-backed NVM, per the paper's footnote 8: writes cost
     * orders of magnitude less than Flash (and symmetric with
     * reads), which is why FRAM platforms run from nF-range
     * capacitors. Used by bench/ablation_nvm_tech to show how the
     * NVM technology moves the Clank/NvMR balance.
     */
    static TechParams
    fram()
    {
        TechParams t;
        t.flashReadWordNj = 0.4;
        t.flashWriteWordNj = 1.2;
        t.flashReadCycles = 1;
        t.flashWriteCycles = 2;
        return t;
    }
};

/**
 * The ledger. Execution-time spending (forward progress, overheads,
 * reclaim) accumulates as *pending* until the next persisted backup
 * commits it; a power failure instead reclassifies all pending energy
 * as Dead (it pays for instructions that will re-execute). Backup and
 * restore energy commit immediately.
 */
class EnergyAccount
{
  public:
    // The two spend calls run multiple times per simulated
    // instruction; they are inline so the per-access energy path is
    // one add, with the negative-energy check only in debug builds.

    /** Add execution-time energy (committed by the next backup). */
    void
    spendPending(ECat cat, NanoJoules nj)
    {
        debug_assert(nj >= 0, "negative energy: ", nj);
        pending[static_cast<size_t>(cat)] += nj;
    }

    /** Add energy that is never re-executed (backup/restore/reclaim). */
    void
    spendCommitted(ECat cat, NanoJoules nj)
    {
        debug_assert(nj >= 0, "negative energy: ", nj);
        committed[static_cast<size_t>(cat)] += nj;
    }

    /** A backup persisted: fold pending spending into its categories. */
    void commitPending();

    /** Power failed: everything pending becomes dead energy. */
    void pendingToDead();

    /** Committed total for one category. */
    NanoJoules total(ECat cat) const;

    /** Sum of all committed categories. */
    NanoJoules grandTotal() const;

    /** Outstanding pending energy (for diagnostics). */
    NanoJoules pendingTotal() const;

    void reset();

    /** Trivially-copyable image of the ledger (machine snapshots). */
    struct Raw
    {
        std::array<NanoJoules, kNumECats> committed;
        std::array<NanoJoules, kNumECats> pending;
    };

    Raw rawState() const { return Raw{committed, pending}; }

    void
    setRawState(const Raw &r)
    {
        committed = r.committed;
        pending = r.pending;
    }

  private:
    /** The execution engine's superblock executor (sim/engine.cc)
     *  accumulates Forward / ForwardOverhead pending energy in
     *  registers across a fused run and writes the slots back at
     *  every exit. */
    friend class ThreadedEngine;

    std::array<NanoJoules, kNumECats> committed{};
    std::array<NanoJoules, kNumECats> pending{};
};

/**
 * Spending modes: the simulator sets the active mode around backup /
 * restore / reclaim operations so that shared components (cache, NVM)
 * charge the right category without knowing why they were invoked.
 */
enum class EMode : uint8_t
{
    Execute,
    Backup,
    Restore,
    Reclaim
};

/**
 * The sink every component charges energy into. The Simulator
 * implements it by draining the capacitor and feeding the
 * EnergyAccount; golden (continuous) runs use a NullEnergySink.
 */
class EnergySink
{
  public:
    virtual ~EnergySink() = default;

    /** Charge energy in the current mode's base category. */
    virtual void consume(NanoJoules nj) = 0;

    /** Charge energy in the current mode's overhead category
     *  (used by the NvMR renaming structures). */
    virtual void consumeOverhead(NanoJoules nj) = 0;

    /**
     * Advance simulated time (memory stall cycles). The simulator's
     * sink charges per-cycle core energy and integrates harvesting.
     */
    virtual void addCycles(Cycles n) = 0;

    /**
     * Charge `n` back-to-back NVM transfers: for each one, bump
     * `*started` (when given), advance `cycles`, then consume `nj`
     * (consumeOverhead() when `overhead`). A brown-out inside transfer
     * k leaves `*started` counting transfers 0..k, exactly as the
     * equivalent loop over the three calls above would. Memory
     * components charge whole blocks through here, so a block costs
     * one virtual call; the default body is that loop, and a sink
     * that overrides it must keep its order of operations.
     */
    virtual void
    chargeWords(uint64_t n, Cycles cycles, NanoJoules nj,
                bool overhead = false, uint64_t *started = nullptr)
    {
        for (uint64_t i = 0; i < n; ++i) {
            if (started)
                ++*started;
            addCycles(cycles);
            if (overhead)
                consumeOverhead(nj);
            else
                consume(nj);
        }
    }
};

/** Sink that ignores all spending (continuous/golden execution). */
class NullEnergySink : public EnergySink
{
  public:
    void consume(NanoJoules) override {}
    void consumeOverhead(NanoJoules) override {}
    void addCycles(Cycles) override {}
};

} // namespace nvmr

#endif // NVMR_POWER_ENERGY_HH

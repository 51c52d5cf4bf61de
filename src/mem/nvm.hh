/**
 * @file
 * Non-volatile memory (Flash) model: a flat byte array with per-word
 * access energies charged to an EnergySink and per-word wear counters
 * (Section 6.5 reports NVM wear-out reduction).
 */

#ifndef NVMR_MEM_NVM_HH
#define NVMR_MEM_NVM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "power/energy.hh"
#include "snapshot/cow.hh"
#include "snapshot/state.hh"

namespace nvmr
{

class FaultInjector;
class TraceSink;

/**
 * The on-board Flash. Reads and writes are word-granular and charge
 * energy to the attached sink; peek/poke bypass accounting for
 * initialization and validation.
 */
class Nvm
{
  public:
    /**
     * @param size_bytes Flash capacity (2 MB in Table 2).
     * @param params Technology constants for access energies.
     * @param sink Where access energy is charged.
     */
    Nvm(uint32_t size_bytes, const TechParams &params, EnergySink &sink);

    uint32_t sizeBytes() const { return size; }

    /**
     * Attach the crash/bit-error injector. Every accounted write
     * becomes an interruptible persist boundary and every accounted
     * read runs through the ECC pipeline. Null (the default) keeps
     * the fault-free fast path.
     */
    void attachFaults(FaultInjector *injector) { faults = injector; }

    /**
     * Attach a trace sink: every accounted word write that lands
     * records an NvmWrite event carrying the changed-byte mask. Null
     * (the default) keeps the zero-overhead fast path; the sink is
     * never charged energy, so tracing cannot perturb simulation.
     */
    void attachTrace(TraceSink *sink) { tracer = sink; }

    /** Accounted word read. */
    Word readWord(Addr addr);

    /** Accounted word write; bumps the wear counter. */
    void writeWord(Addr addr, Word value);

    /**
     * Accounted read of `n` consecutive words (one block: the run
     * must not cross a 4 KiB page) into `out`. Counters, charges and
     * the fault pipeline come out exactly as from n readWord() calls;
     * without bit errors to sample, the block costs one bounds check,
     * one page lookup and one sink call.
     */
    void readBlock(Addr addr, Word *out, uint32_t n);

    /**
     * Accounted write of `n` consecutive words (one block), leaving
     * counters, wear, charges and contents exactly as n writeWord()
     * calls would -- also when a brown-out cuts the block short. With
     * no persist points to expose and no trace to record, it costs
     * one bounds check, one page lookup and one sink call.
     */
    void writeBlock(Addr addr, const Word *src, uint32_t n);

    /** Unaccounted read (initialization / validation / tests). */
    Word peekWord(Addr addr) const;

    /**
     * Unaccounted read through the deterministic fault view: stuck
     * bits and ECC correction applied, no transient sampling, no
     * energy. Validation paths use this so that a correctable stuck
     * bit is not flagged as divergence while an uncorrectable one is.
     */
    Word inspectWord(Addr addr) const;

    /** Unaccounted write (initialization / tests); no wear. */
    void pokeWord(Addr addr, Word value);

    /** Unaccounted byte accessors for loading program images. */
    uint8_t peekByte(Addr addr) const { return mem.read8(addr); }
    void pokeByte(Addr addr, uint8_t value);

    /** Load a byte image starting at the given address. */
    void loadImage(Addr base, const std::vector<uint8_t> &image);

    /** Number of accounted writes to the word containing addr (any
     *  alignment; panics past the end of the NVM). */
    uint64_t wearOf(Addr addr) const;

    /** Maximum accounted writes to any single word (wear-out). */
    uint64_t maxWear() const;

    /**
     * Wear at a percentile over the *worn* words (words never
     * written are excluded; flash wear-out is governed by the hot
     * tail, not the untouched expanse). p in [0, 1]; 1.0 == maxWear.
     * Returns 0 when nothing was written.
     */
    uint64_t wearPercentile(double p) const;

    /** Number of distinct words written at least once. */
    uint64_t wornWords() const;

    /** Visit every worn word as fn(word_addr, wear) in ascending
     *  address order; skips words never written (observability:
     *  per-location wear histogram). Iterates the worn-index list
     *  instead of the full wear vector -- the NVM is megabytes, the
     *  worn set is the program's write footprint. Ascending order is
     *  preserved (callers fold the values into FP sums, which are
     *  order-sensitive). */
    template <typename Fn>
    void
    forEachWornWord(Fn fn) const
    {
        std::vector<uint32_t> idx(wornIdx);
        std::sort(idx.begin(), idx.end());
        for (uint32_t i : idx)
            fn(static_cast<Addr>(i) * kWordBytes,
               static_cast<uint64_t>(wearAt(i)));
    }

    /** Total accounted word writes. */
    uint64_t totalWrites() const { return writes; }

    /** Total accounted word reads. */
    uint64_t totalReads() const { return reads; }

    void resetStats();

    // ------------------------------------------------------------------
    // Machine snapshots
    // ------------------------------------------------------------------

    /**
     * Capture the memory contents as a copy-on-write page table:
     * O(pages) pointer copies now, one page clone per subsequently
     * dirtied page. The returned table is immutable and shareable
     * across any number of forks.
     */
    CowStore::PageTable snapshotPages() { return mem.snapshotPages(); }

    /** Replace the contents with a captured page table (fork). */
    void adoptPages(const CowStore::PageTable &table)
    {
        mem.adoptPages(table);
    }

    /** The underlying COW store (diagnostics/tests). */
    const CowStore &store() const { return mem; }

    /** Serialize wear counters (sparse) and access stats; contents
     *  travel separately as the COW page table. */
    void saveState(StateWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(StateReader &r);

  private:
    uint32_t size;
    const TechParams &tech;
    EnergySink &sink;
    FaultInjector *faults = nullptr;
    TraceSink *tracer = nullptr;
    CowStore mem;

    /** Per-word wear counters, paged like the contents: one chunk per
     *  COW page, allocated by the first accounted write into that
     *  page. A chunk never allocated reads as all zero, so a run pays
     *  for its write footprint, not the NVM capacity. */
    static constexpr uint32_t kWearChunkWords =
        CowStore::kPageBytes / kWordBytes;
    using WearChunk = std::array<uint32_t, kWearChunkWords>;
    std::vector<std::unique_ptr<WearChunk>> wear;
    std::vector<uint32_t> wornIdx; // word indices with wear > 0
    uint32_t peakWear = 0;         // running max over `wear`
    uint64_t writes = 0;
    uint64_t reads = 0;

    uint32_t wordIndex(Addr addr) const;

    /** Wear of word `idx` (0 in a chunk never allocated). */
    uint32_t
    wearAt(uint32_t idx) const
    {
        const WearChunk *chunk = wear[idx / kWearChunkWords].get();
        return chunk ? (*chunk)[idx % kWearChunkWords] : 0;
    }

    /** Wear counter of word `idx`, allocating its chunk if needed. */
    uint32_t &wearSlot(uint32_t idx);

    /** One accounted write's wear for each of words idx..idx+n-1
     *  (which share a chunk): counters, worn index and peak. */
    void bumpWear(uint32_t idx, uint32_t n);
};

} // namespace nvmr

#endif // NVMR_MEM_NVM_HH

/**
 * @file
 * Copy-on-write page store backing the NVM byte array. Snapshots and
 * forks share read-only pages through shared_ptr refcounts (the
 * A/B-active idiom from pmembench's InplaceCow, generalized to N
 * sharers); the first write to a shared page clones it. Snapshot cost
 * is O(pages) pointer copies, fork memory cost is O(dirty pages).
 * A fresh store owns no pages: every slot points at one process-wide
 * all-zero page, so a store's memory cost is the pages its program
 * writes, not its capacity.
 */

#ifndef NVMR_SNAPSHOT_COW_HH
#define NVMR_SNAPSHOT_COW_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace nvmr
{

/**
 * A flat byte space carved into fixed-size pages. All accessors are
 * bounds-checked; word accessors additionally require alignment, which
 * guarantees a word never straddles a page (kPageBytes is a multiple
 * of the word size).
 */
class CowStore
{
  public:
    static constexpr size_t kPageBytes = 4096;

    struct Page
    {
        std::array<uint8_t, kPageBytes> data;
    };

    /** Shareable immutable view of the whole store at one instant. */
    using PageTable = std::vector<std::shared_ptr<Page>>;

    /** A store of the given size that reads zero everywhere and owns
     *  no pages (every slot shares the process-wide zero page). */
    explicit CowStore(size_t bytes);

    size_t sizeBytes() const { return size; }
    size_t pageCount() const { return pages.size(); }

    uint8_t
    read8(Addr addr) const
    {
        panic_if(addr >= size, "COW store read out of range: ", addr);
        return pages[addr / kPageBytes]->data[addr % kPageBytes];
    }

    void
    write8(Addr addr, uint8_t value)
    {
        panic_if(addr >= size, "COW store write out of range: ", addr);
        size_t idx = addr / kPageBytes;
        ensureOwned(idx);
        pages[idx]->data[addr % kPageBytes] = value;
    }

    /** Aligned little-endian word read (never crosses a page). */
    Word
    readWord(Addr addr) const
    {
        checkWord(addr);
        const uint8_t *p =
            &pages[addr / kPageBytes]->data[addr % kPageBytes];
        Word w = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            w |= static_cast<Word>(p[i]) << (8 * i);
        return w;
    }

    /** Aligned little-endian word write (never crosses a page). */
    void
    writeWord(Addr addr, Word value)
    {
        checkWord(addr);
        size_t idx = addr / kPageBytes;
        ensureOwned(idx);
        uint8_t *p = &pages[idx]->data[addr % kPageBytes];
        for (unsigned i = 0; i < kWordBytes; ++i)
            p[i] = static_cast<uint8_t>(value >> (8 * i));
    }

    /** `n` aligned words from `addr` into `out`, with one bounds
     *  check and one page lookup: the run must not cross a page
     *  (blocks never do -- kPageBytes is a multiple of any block). */
    void
    readWords(Addr addr, Word *out, uint32_t n) const
    {
        const uint8_t *p = wordRun(addr, n);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out, p, size_t{n} * kWordBytes);
        } else {
            for (uint32_t w = 0; w < n; ++w, p += kWordBytes) {
                Word v = 0;
                for (unsigned i = 0; i < kWordBytes; ++i)
                    v |= static_cast<Word>(p[i]) << (8 * i);
                out[w] = v;
            }
        }
    }

    /** The write counterpart of readWords(). */
    void
    writeWords(Addr addr, const Word *src, uint32_t n)
    {
        wordRun(addr, n);
        size_t idx = addr / kPageBytes;
        ensureOwned(idx);
        uint8_t *p = &pages[idx]->data[addr % kPageBytes];
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(p, src, size_t{n} * kWordBytes);
        } else {
            for (uint32_t w = 0; w < n; ++w, p += kWordBytes)
                for (unsigned i = 0; i < kWordBytes; ++i)
                    p[i] = static_cast<uint8_t>(src[w] >> (8 * i));
        }
    }

    /** Bulk byte copy into the store (may span pages). */
    void writeBytes(Addr addr, const uint8_t *src, size_t n);

    /**
     * Capture the current contents as a shareable page table and mark
     * every page copy-on-write: the next write to any page through
     * this store clones it first, so the returned table is immutable.
     */
    PageTable snapshotPages();

    /**
     * Replace the contents with a previously captured table. Pages
     * stay shared with the snapshot (and any other adopters) until
     * written.
     */
    void adoptPages(const PageTable &table);

    /** Pages this store holds exclusively (diagnostics/tests). */
    size_t ownedPages() const;

    /** Refcount of one page (tests verify sharing/release); 0 for a
     *  slot on the zero page, which is not refcounted. */
    long pageUseCount(size_t idx) const
    {
        panic_if(idx >= pages.size(), "page index out of range");
        return pages[idx].use_count();
    }

  private:
    void
    checkWord(Addr addr) const
    {
        panic_if(addr % kWordBytes != 0,
                 "misaligned COW store word access: ", addr);
        panic_if(uint64_t{addr} + kWordBytes > size,
                 "COW store access out of range: ", addr);
    }

    /** Check a run of `n` aligned words and return its first byte. */
    const uint8_t *
    wordRun(Addr addr, uint32_t n) const
    {
        checkWord(addr);
        uint64_t end = uint64_t{addr} + uint64_t{n} * kWordBytes;
        panic_if(end > size, "COW store access out of range: ", addr);
        panic_if(n != 0 && (end - 1) / kPageBytes != addr / kPageBytes,
                 "COW store word run crosses a page: ", addr);
        return &pages[addr / kPageBytes]->data[addr % kPageBytes];
    }

    void
    ensureOwned(size_t idx)
    {
        if (!owned[idx]) {
            pages[idx] = std::make_shared<Page>(*pages[idx]);
            owned[idx] = 1;
        }
    }

    size_t size;
    PageTable pages;
    std::vector<uint8_t> owned; // 1 = exclusively ours, safe to mutate
};

} // namespace nvmr

#endif // NVMR_SNAPSHOT_COW_HH

#include "snapshot/cow.hh"

#include <cstring>

namespace nvmr
{

namespace
{

/**
 * The all-zero page every unwritten slot of every store points at.
 * Slots pointing here are never owned, so ensureOwned() clones it
 * before any write and it stays zero for the life of the process. The
 * aliasing shared_ptr has no control block: copying it touches no
 * refcount, so stores on different threads share it without contention
 * (its use_count() is 0).
 */
const std::shared_ptr<CowStore::Page> &
zeroPage()
{
    static CowStore::Page page{};
    static const std::shared_ptr<CowStore::Page> ptr(
        std::shared_ptr<CowStore::Page>(), &page);
    return ptr;
}

} // namespace

CowStore::CowStore(size_t bytes) : size(bytes)
{
    static_assert(kPageBytes % kWordBytes == 0,
                  "page size must be a multiple of the word size");
    size_t npages = (bytes + kPageBytes - 1) / kPageBytes;
    pages.assign(npages, zeroPage());
    owned.assign(npages, 0);
}

void
CowStore::writeBytes(Addr addr, const uint8_t *src, size_t n)
{
    panic_if(addr + n > size, "COW store write out of range: ", addr);
    while (n > 0) {
        size_t idx = addr / kPageBytes;
        size_t off = addr % kPageBytes;
        size_t chunk = std::min(n, kPageBytes - off);
        ensureOwned(idx);
        std::memcpy(pages[idx]->data.data() + off, src, chunk);
        addr += chunk;
        src += chunk;
        n -= chunk;
    }
}

CowStore::PageTable
CowStore::snapshotPages()
{
    // Every page becomes shared: both the snapshot and this store now
    // reference it read-only, and whichever side writes first clones.
    // (Snapshots are immutable, so only this store ever clones.)
    std::fill(owned.begin(), owned.end(), 0);
    return pages;
}

void
CowStore::adoptPages(const PageTable &table)
{
    panic_if(table.size() != pages.size(),
             "adopted page table has wrong geometry");
    pages = table;
    std::fill(owned.begin(), owned.end(), 0);
}

size_t
CowStore::ownedPages() const
{
    size_t n = 0;
    for (uint8_t o : owned)
        n += o;
    return n;
}

} // namespace nvmr

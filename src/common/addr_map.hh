/**
 * @file
 * A map from word-aligned addresses to values, stored densely: the
 * address space is cut into pages of kPageKeys words, each allocated
 * on the first insert into it. A lookup is an index computation and a
 * bit test (no hashing), iteration runs in ascending address order
 * for free, and memory follows the touched footprint rather than the
 * NVM capacity. Scheme state keyed by NVM addresses (HOOP's buffer
 * index and redo log, the NvMR map table) lives in these.
 */

#ifndef NVMR_COMMON_ADDR_MAP_HH
#define NVMR_COMMON_ADDR_MAP_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace nvmr
{

template <typename V>
class AddrMap
{
  public:
    /** Keys per page: 1 KiB of address space. */
    static constexpr uint32_t kPageKeys = 256;

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** The value stored for `key`, or nullptr (also for a key that is
     *  not word-aligned, which can never be stored). */
    const V *
    find(Addr key) const
    {
        if (key % kWordBytes != 0)
            return nullptr;
        uint32_t k = key / kWordBytes;
        size_t p = k / kPageKeys;
        if (p >= pages.size() || !pages[p])
            return nullptr;
        const Page &page = *pages[p];
        uint32_t slot = k % kPageKeys;
        return page.has(slot) ? &page.vals[slot] : nullptr;
    }

    V *
    find(Addr key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Insert or overwrite; returns true when `key` was new. */
    bool
    set(Addr key, const V &value)
    {
        panic_if(key % kWordBytes != 0, "address map key ", key,
                 " is not word-aligned");
        uint32_t k = key / kWordBytes;
        size_t p = k / kPageKeys;
        if (p >= pages.size())
            pages.resize(p + 1);
        if (!pages[p])
            pages[p] = std::make_unique<Page>();
        Page &page = *pages[p];
        uint32_t slot = k % kPageKeys;
        page.vals[slot] = value;
        if (page.has(slot))
            return false;
        page.present[slot / 64] |= uint64_t{1} << (slot % 64);
        ++page.live;
        ++count;
        return true;
    }

    /** Remove `key`; returns true when it was present. */
    bool
    erase(Addr key)
    {
        if (!find(key))
            return false;
        uint32_t k = key / kWordBytes;
        Page &page = *pages[k / kPageKeys];
        uint32_t slot = k % kPageKeys;
        page.present[slot / 64] &= ~(uint64_t{1} << (slot % 64));
        --page.live;
        --count;
        return true;
    }

    /** Drop every entry. Pages stay allocated for reuse, so a map
     *  that is filled and cleared over and over (HOOP's buffer index
     *  at every backup) stops allocating once warm. */
    void
    clear()
    {
        if (count == 0)
            return;
        for (auto &page : pages) {
            if (page && page->live) {
                page->present.fill(0);
                page->live = 0;
            }
        }
        count = 0;
    }

    /** Visit every entry as fn(key, value) in ascending key order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t p = 0; p < pages.size(); ++p) {
            const Page *page = pages[p].get();
            if (!page || !page->live)
                continue;
            for (uint32_t w = 0; w < page->present.size(); ++w) {
                for (uint64_t bits = page->present[w]; bits;
                     bits &= bits - 1) {
                    uint32_t slot =
                        w * 64 +
                        static_cast<uint32_t>(std::countr_zero(bits));
                    Addr key = static_cast<Addr>(
                        (p * kPageKeys + slot) * kWordBytes);
                    fn(key, page->vals[slot]);
                }
            }
        }
    }

  private:
    struct Page
    {
        std::array<V, kPageKeys> vals{};
        std::array<uint64_t, kPageKeys / 64> present{};
        uint32_t live = 0;

        bool
        has(uint32_t slot) const
        {
            return (present[slot / 64] >> (slot % 64)) & 1;
        }
    };

    std::vector<std::unique_ptr<Page>> pages;
    size_t count = 0;
};

} // namespace nvmr

#endif // NVMR_COMMON_ADDR_MAP_HH

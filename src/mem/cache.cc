#include "mem/cache.hh"

#include "common/log.hh"

namespace nvmr
{

DataCache::DataCache(const CacheConfig &config, const TechParams &params,
                     EnergySink &snk)
    : cfg(config), tech(params), sink(snk)
{
    fatal_if(cfg.blockBytes == 0 || cfg.blockBytes % kWordBytes != 0,
             "block size must be a multiple of the word size");
    fatal_if(cfg.sizeBytes % cfg.blockBytes != 0,
             "cache size must be a multiple of the block size");
    fatal_if(cfg.ways == 0 || cfg.numBlocks() % cfg.ways != 0,
             "cache blocks must divide evenly into ways");
    fatal_if((cfg.numSets() & (cfg.numSets() - 1)) != 0,
             "number of sets must be a power of two");

    fatal_if(cfg.lbfGranularityBytes == 0 ||
                 cfg.blockBytes % cfg.lbfGranularityBytes != 0,
             "LBF granularity must divide the block size");
    fatal_if((cfg.lbfGranularityBytes & (cfg.lbfGranularityBytes - 1)) !=
                 0,
             "LBF granularity must be a power of two");
    fatal_if((cfg.blockBytes & (cfg.blockBytes - 1)) != 0,
             "block size must be a power of two");
    fatal_if(cfg.wordsPerBlock() > kMaxBlockWords,
             "block size must be at most ", kMaxBlockWords * kWordBytes,
             " bytes");
    blockMask = cfg.blockBytes - 1;
    while ((1u << blockShift) < cfg.blockBytes)
        ++blockShift;
    uint32_t lbf_shift = 0;
    while ((1u << lbf_shift) < cfg.lbfGranularityBytes)
        ++lbf_shift;
    setMask = cfg.numSets() - 1;
    lines.resize(cfg.numBlocks());
    for (CacheLine &line : lines) {
        line.data.assign(cfg.wordsPerBlock(), 0);
        line.lbf.assign(cfg.lbfEntries(), WordState::Unknown);
        line.lbfShift = lbf_shift;
        line.dirtyCounter = &dirtyLines;
    }
}

CacheLine &
DataCache::victim(Addr block_addr)
{
    uint32_t set = setOf(block_addr);
    CacheLine *lru = nullptr;
    for (uint32_t w = 0; w < cfg.ways; ++w) {
        CacheLine &line = lines[set * cfg.ways + w];
        if (!line.valid)
            return line;
        if (!lru || line.lruTick < lru->lruTick)
            lru = &line;
    }
    return *lru;
}

void
DataCache::fill(CacheLine &line, Addr block_addr,
                std::span<const Word> data)
{
    panic_if(data.size() != cfg.wordsPerBlock(),
             "fill with wrong block size");
#if NVMR_DEBUG_ASSERTS
    size_t slot = static_cast<size_t>(&line - lines.data());
    debug_assert(slot / cfg.ways == setOf(block_addr),
                 "fill of block ", block_addr, " outside its set");
    const CacheLine *resident = peek(block_addr);
    debug_assert(!resident || resident == &line, "block ", block_addr,
                 " filled while already cached in another way");
#endif
    sink.consume(tech.cacheAccessNj);
    line.valid = true;
    line.markClean();
    line.blockAddr = block_addr;
    if (data.data() != line.data.data())
        std::copy(data.begin(), data.end(), line.data.begin());
    line.lbf.assign(cfg.lbfEntries(), WordState::Unknown);
    line.dirtyWordMask = 0;
    line.lruTick = ++tick;
}

void
DataCache::invalidate(CacheLine &line)
{
    line.valid = false;
    line.markClean();
    line.blockAddr = kNoAddr;
    line.dirtyWordMask = 0;
}

void
DataCache::invalidateAll()
{
    for (CacheLine &line : lines)
        invalidate(line);
}

void
DataCache::resetLbf()
{
    for (CacheLine &line : lines)
        line.lbf.assign(cfg.lbfEntries(), WordState::Unknown);
}

void
DataCache::saveState(StateWriter &w) const
{
    for (const CacheLine &line : lines) {
        w.boolean(line.valid);
        w.boolean(line.dirty);
        w.pod(line.blockAddr);
        w.bytes(line.data.data(), line.data.size() * sizeof(Word));
        w.bytes(line.lbf.data(), line.lbf.size() * sizeof(WordState));
        w.u64(line.lruTick);
        w.u32(line.dirtyWordMask);
        w.u64(line.gbfMask);
    }
    w.u64(tick);
    w.u64(_hits);
    w.u64(_misses);
    w.u32(dirtyLines);
}

void
DataCache::restoreState(StateReader &r)
{
    for (CacheLine &line : lines) {
        line.valid = r.boolean();
        line.dirty = r.boolean();
        line.blockAddr = r.pod<Addr>();
        // The geometry is the constructor's; only contents travel.
        r.bytes(line.data.data(), line.data.size() * sizeof(Word));
        r.bytes(line.lbf.data(), line.lbf.size() * sizeof(WordState));
        line.lruTick = r.u64();
        line.dirtyWordMask = r.u32();
        line.gbfMask = r.u64();
    }
    tick = r.u64();
    _hits = r.u64();
    _misses = r.u64();
    // The counter is re-adopted wholesale; the per-line dirty flags
    // restored above are its ground truth (debug builds cross-check
    // in dirtyCount()).
    dirtyLines = r.u32();
}

#if NVMR_DEBUG_ASSERTS
uint32_t
DataCache::dirtyCount() const
{
    uint32_t n = 0;
    for (const CacheLine &line : lines)
        n += line.dirty;
    debug_assert(n == dirtyLines,
                 "dirty-line counter out of sync: ", dirtyLines,
                 " != ", n);
    return dirtyLines;
}
#endif

} // namespace nvmr

#include "arch/hoop.hh"

#include "common/log.hh"

namespace nvmr
{

namespace
{

/** SRAM energy for touching one OOP-buffer entry. */
constexpr NanoJoules kOopBufferTouchNj = 0.2;

} // namespace

HoopArch::HoopArch(const SystemConfig &config, Nvm &nvm_,
                   EnergySink &snk)
    : IntermittentArch(config, nvm_, snk)
{
}

Word
HoopArch::backingWord(Addr word_addr) const
{
    // Newest update wins: bufNewest holds the last value appended for
    // each buffered address (same answer a backwards buffer scan
    // would give, without the scan).
    if (const Word *buf = bufNewest.find(word_addr))
        return *buf;
    if (const Word *log = committedLog.find(word_addr))
        return *log;
    return nvm.inspectWord(word_addr);
}

void
HoopArch::fetchBlock(Addr block_addr, Word *out)
{
    // Reconstruct the block: OOP buffer first (newest), then the
    // committed redo log (via the free mapping table), then home.
    // Either way each word costs one NVM-scale read; buffer hits are
    // an SRAM touch.
    for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w) {
        Addr addr = block_addr + w * kWordBytes;
        if (const Word *buf = bufNewest.find(addr)) {
            sink.consume(kOopBufferTouchNj);
            out[w] = *buf;
        } else if (const Word *log = committedLog.find(addr)) {
            // SRAM-held log data, charged at NVM scale.
            sink.chargeWords(1, cfg.tech.flashReadCycles,
                             cfg.tech.flashReadWordNj);
            out[w] = *log;
        } else if (faults && faults->enabled()) {
            // A genuine home read: go through the Nvm so the word
            // passes the bit-error / ECC pipeline.
            out[w] = nvm.readWord(addr);
        } else {
            sink.chargeWords(1, cfg.tech.flashReadCycles,
                             cfg.tech.flashReadWordNj);
            out[w] = nvm.peekWord(addr);
        }
    }
}

void
HoopArch::evictLine(CacheLine &line)
{
    // The cache has no per-word dirty bits (neither do Clank's or
    // NvMR's), so the whole block's words are appended to the OOP
    // buffer; the paper's "high store locality packs better"
    // observation follows from this block-granular ingestion.
    if (!line.dirty)
        return;
    for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w) {
        Addr addr = line.blockAddr + w * kWordBytes;
        if (oopBuffer.size() >= cfg.oopBufferEntries) {
            // Buffer full: HOOP backs up, which commits this line's
            // words too and leaves nothing to insert.
            panic_if(!host, "HoopArch needs an attached BackupHost");
            host->requestBackup(BackupReason::OopBufferFull);
            panic_if(line.dirty, "backup left the line dirty");
            return;
        }
        sink.consume(kOopBufferTouchNj);
        oopBuffer.emplace_back(addr, line.data[w]);
        bufNewest.set(addr, line.data[w]);
        if (line.blockAddr != bufLastBlock) {
            ++bufGroups;
            bufLastBlock = line.blockAddr;
        }
        if (tracer)
            tracer->record(EventKind::OopAppend, addr);
    }
    line.markClean();
    line.dirtyWordMask = 0;
}

uint64_t
HoopArch::packedFlushWords() const
{
    // Pack word updates into slices: one header word per run of
    // same-block updates plus one word per update. No temporal
    // deduplication -- the buffer is a log. The buffer's run count is
    // maintained incrementally (bufGroups/bufLastBlock), so only the
    // dirty cache lines -- which flush after the buffer and continue
    // its run sequence -- are walked here.
    uint64_t words = oopBuffer.size();
    uint64_t groups = bufGroups;
    if (cache.dirtyCount() != 0) {
        Addr prev_block = bufLastBlock;
        cache.forEachLine([&](const CacheLine &line) {
            if (!line.valid || !line.dirty)
                return;
            if (line.blockAddr != prev_block) {
                ++groups;
                prev_block = line.blockAddr;
            }
            words += cfg.cache.wordsPerBlock();
        });
    }
    return words + groups;
}

void
HoopArch::garbageCollect()
{
    // Scan the log (one read per region entry) and apply the latest
    // committed value of every word to its home address.
    sink.addCycles(regionFill * cfg.tech.flashReadCycles);
    sink.consume(static_cast<double>(regionFill) *
                 cfg.tech.flashReadWordNj);
    if (tracer)
        tracer->record(EventKind::OopGc, committedLog.size(),
                       regionFill);
    // Apply in address order (the AddrMap's iteration order): the
    // writes are accounted (wear, fault windows), so the order must
    // be a function of the log's contents alone if forked runs are
    // to stay byte-identical with from-scratch ones.
    committedLog.forEach([&](Addr addr, Word val) {
        noteLogUndo(addr);
        nvm.writeWord(addr, val);
    });
    committedLog.clear();
    regionFill = 0;
    ++gcs;
}

void
HoopArch::flushBufferToRegion()
{
    // Gather the update log: buffered entries in order, then the
    // dirty words still sitting in the cache (they are newest).
    std::vector<std::pair<Addr, Word>> updates = oopBuffer;
    cache.forEachLine([&](CacheLine &line) {
        if (!line.valid || !line.dirty)
            return;
        for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w)
            updates.emplace_back(line.blockAddr + w * kWordBytes,
                                 line.data[w]);
        line.markClean();
        line.dirtyWordMask = 0;
    });

    uint32_t incoming = static_cast<uint32_t>(updates.size());
    if (regionFill + incoming > cfg.oopRegionEntries)
        garbageCollect();
    if (incoming > cfg.oopRegionEntries) {
        // The update set cannot fit the region at all (tiny-platform
        // configuration): apply it straight to the home addresses.
        // The in-place writes destroy recovery state, so under an
        // open backup transaction they are journaled and deferred
        // past the commit record; any stale committed-log entries
        // for these words must go (shadow-rolled on a torn backup).
        for (const auto &[addr, val] : updates) {
            journaledWriteWord(addr, val);
            logErase(addr);
        }
        oopBuffer.clear();
        bufNewest.clear();
        bufGroups = 0;
        bufLastBlock = kNoAddr;
        return;
    }

    // Append packed slices: one header write per run of same-block
    // updates plus one write per word update.
    Addr prev_block = kNoAddr;
    for (const auto &[addr, val] : updates) {
        Addr block = addr & ~(cfg.cache.blockBytes - 1);
        if (block != prev_block) {
            sink.chargeWords(1, cfg.tech.flashWriteCycles,
                             cfg.tech.flashWriteWordNj);
            prev_block = block;
        }
        sink.chargeWords(1, cfg.tech.flashWriteCycles,
                         cfg.tech.flashWriteWordNj);
        logSet(addr, val);
    }
    regionFill += incoming;
    oopBuffer.clear();
    bufNewest.clear();
    bufGroups = 0;
    bufLastBlock = kNoAddr;
}

void
HoopArch::performBackup(const CpuSnapshot &snap, BackupReason reason)
{
    flushBufferToRegion();
    persistSnapshot(snap);
    commitBackup(reason);
}

void
HoopArch::noteLogUndo(Addr addr)
{
    if (!shadowValid || logUndo.contains(addr))
        return; // no transaction, or not the first touch
    const Word *prior = committedLog.find(addr);
    logUndo.set(addr, prior ? std::optional<Word>(*prior) : std::nullopt);
}

void
HoopArch::logSet(Addr addr, Word value)
{
    noteLogUndo(addr);
    committedLog.set(addr, value);
}

void
HoopArch::logErase(Addr addr)
{
    noteLogUndo(addr);
    committedLog.erase(addr);
}

void
HoopArch::shadowCapture()
{
    logUndo.clear();
    shadowFill = regionFill;
    shadowValid = true;
}

void
HoopArch::shadowRollback()
{
    if (!shadowValid)
        return;
    logUndo.forEach([&](Addr addr, const std::optional<Word> &prior) {
        if (prior)
            committedLog.set(addr, *prior);
        else
            committedLog.erase(addr);
    });
    logUndo.clear();
    regionFill = shadowFill;
    shadowValid = false;
}

void
HoopArch::onBackupCommitted()
{
    logUndo.clear();
    shadowValid = false;
}

NanoJoules
HoopArch::backupCostNowNj() const
{
    NanoJoules cost = snapshotCostNj();
    uint64_t flush_words = packedFlushWords();
    cost += nvmWriteCostNj(flush_words);
    // A flush may first have to garbage-collect the region.
    uint64_t incoming = flush_words; // upper bound on update count
    if (regionFill + incoming > cfg.oopRegionEntries) {
        cost += nvmReadCostNj(regionFill);
        cost += nvmWriteCostNj(committedLog.size());
    }
    return cost * 1.05 + 10.0;
}

void
HoopArch::onPowerFail()
{
    IntermittentArch::onPowerFail();
    oopBuffer.clear();
    bufNewest.clear();
    bufGroups = 0;
    bufLastBlock = kNoAddr;
}

CpuSnapshot
HoopArch::performRestore()
{
    CpuSnapshot snap = IntermittentArch::performRestore();
    // HOOP garbage-collects the redo log during restore (Section 2.1).
    garbageCollect();
    return snap;
}

NanoJoules
HoopArch::restoreCostNowNj() const
{
    return IntermittentArch::restoreCostNowNj() +
           nvmReadCostNj(regionFill) +
           nvmWriteCostNj(committedLog.size()) + 10.0;
}

Word
HoopArch::inspectWord(Addr addr) const
{
    Addr block = addr & ~(cfg.cache.blockBytes - 1);
    if (const CacheLine *line = cache.peek(block))
        return line->data[(addr - block) / kWordBytes];
    return backingWord(addr);
}

void
HoopArch::saveState(StateWriter &w) const
{
    IntermittentArch::saveState(w);
    // Snapshots happen only at instruction boundaries outside backup
    // transactions, where the shadow log is dead state.
    panic_if(shadowValid, "snapshot mid-backup-transaction");
    w.u64(oopBuffer.size());
    for (const auto &entry : oopBuffer) {
        w.pod(entry.first);
        w.pod(entry.second);
    }
    // bufNewest is an index over oopBuffer, rebuilt at restore.
    w.u64(committedLog.size());
    committedLog.forEach([&](Addr addr, Word val) {
        w.pod(addr);
        w.pod(val);
    });
    w.u64(bufGroups);
    w.pod(bufLastBlock);
    w.u32(regionFill);
    w.u64(gcs);
}

void
HoopArch::restoreState(StateReader &r)
{
    IntermittentArch::restoreState(r);
    oopBuffer.clear();
    bufNewest.clear();
    committedLog.clear();
    uint64_t nbuf = r.u64();
    oopBuffer.reserve(nbuf);
    for (uint64_t i = 0; i < nbuf; ++i) {
        Addr addr = r.pod<Addr>();
        Word val = r.pod<Word>();
        oopBuffer.emplace_back(addr, val);
        bufNewest.set(addr, val); // in append order: newest wins
    }
    uint64_t nlog = r.u64();
    for (uint64_t i = 0; i < nlog; ++i) {
        Addr addr = r.pod<Addr>();
        committedLog.set(addr, r.pod<Word>());
    }
    bufGroups = r.u64();
    bufLastBlock = r.pod<Addr>();
    regionFill = r.u32();
    gcs = r.u64();
    logUndo.clear();
    shadowFill = 0;
    shadowValid = false;
}

} // namespace nvmr

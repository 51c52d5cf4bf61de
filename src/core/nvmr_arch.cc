#include "core/nvmr_arch.hh"

#include "common/log.hh"

namespace nvmr
{

NvmrArch::NvmrArch(const SystemConfig &config, Nvm &nvm_,
                   EnergySink &snk)
    : DominanceArch(config, nvm_, snk),
      mapTable(config.mapTableEntries, config.tech, snk),
      mtc(config.mtCacheEntries, config.mtCacheWays, config.tech, snk),
      freeList(config.effectiveFreeListEntries(), config.tech, snk)
{
    statRegistry.add(&renameChainDepth);
    statRegistry.add(&mtcResidency);
    mtc.attachResidency(&mtcResidency);
}

void
NvmrArch::attachTrace(TraceSink *sink_)
{
    DominanceArch::attachTrace(sink_);
    mtc.attachTrace(sink_);
}

void
NvmrArch::noteRename(Addr tag, Addr fresh)
{
    ++archStats.renames;
    uint64_t *depth = renameDepths.find(tag);
    uint64_t n = depth ? *depth + 1 : 1;
    renameDepths.set(tag, n);
    renameChainDepth.sample(static_cast<double>(n));
    if (tracer)
        tracer->record(EventKind::Rename, tag, fresh);
}

void
NvmrArch::initialize(const Program &prog)
{
    IntermittentArch::initialize(prog);
    uint32_t block = cfg.cache.blockBytes;
    uint32_t n = cfg.effectiveFreeListEntries();
    fatal_if(static_cast<uint64_t>(n) * block > nvm.sizeBytes(),
             "reserved renaming region does not fit in NVM");
    reserved = nvm.sizeBytes() - n * block;
    fatal_if(appEnd > reserved,
             "program data overlaps the reserved renaming region");
    freeList.initFill(reserved, block, n);
}

// ----------------------------------------------------------------------
// Mapping resolution
// ----------------------------------------------------------------------

bool
NvmrArch::ensureEntrySpace(Addr tag)
{
    MtcEntry &slot = mtc.victim(tag);
    if (slot.valid && slot.dirty) {
        // Section 4.6: evicting a dirty map-table-cache entry forces
        // a backup so the NVM map table stays in sync with the most
        // recent backup. The backup cleans every entry -- and may
        // change this very tag's mapping (rename-at-backup), so the
        // caller must re-resolve the mapping afterwards.
        panic_if(!host, "NvmrArch needs an attached BackupHost");
        host->requestBackup(BackupReason::MtCacheEviction);
        panic_if(slot.dirty, "backup left a dirty map table cache");
        return true;
    }
    return false;
}

MtcEntry &
NvmrArch::allocateEntry(Addr tag, Addr old_map, Addr new_map,
                        bool dirty, bool in_map_table)
{
    MtcEntry &slot = mtc.victim(tag);
    panic_if(slot.valid && slot.dirty,
             "allocating over a dirty map-table-cache entry; call "
             "ensureEntrySpace first");
    mtc.install(slot, tag, old_map, new_map, dirty, in_map_table);
    return slot;
}

MtcEntry *
NvmrArch::findOrFillEntry(Addr tag)
{
    MtcEntry *entry = mtc.lookup(tag);
    if (entry)
        return entry;
    // Make room before reading the map table: the eviction backup
    // can rename this block and update its map-table entry.
    ensureEntrySpace(tag);
    entry = mtc.lookup(tag);
    if (entry)
        return entry; // installed by the backup path
    auto mapping = mapTable.lookup(tag);
    if (!mapping)
        return nullptr;
    return &allocateEntry(tag, *mapping, *mapping, false, true);
}

bool
NvmrArch::mapTableHasRoomForNewTag() const
{
    // Every pending (not yet persisted) new tag will need a map
    // table slot at the next backup; keep the accounting conservative
    // so a backup can never overflow the table.
    return mapTable.size() + mtc.pendingNewTags() <
           mapTable.capacity();
}

Addr
NvmrArch::resolveMapping(Addr tag)
{
    MtcEntry *entry = findOrFillEntry(tag);
    return entry ? entry->newMap : tag;
}

void
NvmrArch::fetchBlock(Addr block_addr, Word *out)
{
    Addr src = resolveMapping(block_addr);
    nvm.readBlock(src, out, cfg.cache.wordsPerBlock());
}

// ----------------------------------------------------------------------
// Writebacks
// ----------------------------------------------------------------------

void
NvmrArch::normalWriteback(CacheLine &line)
{
    // Write-dominated (or unknown) dirty block: persisting it in
    // place is idempotent-safe, but it must still go to the block's
    // *latest* mapping (Section 4.4).
    Addr target = resolveMapping(line.blockAddr);
    if (line.dirty) { // a backup inside resolveMapping may have
        writeBlockTo(target, line); // cleaned the line already
        line.markClean();
    }
}

void
NvmrArch::violatingWriteback(CacheLine &line)
{
    const Addr tag = line.blockAddr;

    MtcEntry *entry = findOrFillEntry(tag);
    if (!line.dirty)
        return; // cleaned by a backup during the map-table-cache fill

    if (entry && entry->dirty) {
        // Already renamed since the last backup: entry->newMap is
        // scratch space the recovery image never references, so the
        // block may be persisted there again without a fresh rename.
        writeBlockTo(entry->newMap, line);
        line.markClean();
        return;
    }

    // A fresh rename is needed. Structural hazards force a backup
    // instead (which persists the block and starts a new section).
    panic_if(!host, "NvmrArch needs an attached BackupHost");
    if (!entry && !mapTableHasRoomForNewTag()) {
        host->requestBackup(BackupReason::MapTableFull);
        panic_if(line.dirty, "backup left the violating line dirty");
        return;
    }
    if (freeList.empty()) {
        host->requestBackup(BackupReason::FreeListEmpty);
        panic_if(line.dirty, "backup left the violating line dirty");
        return;
    }

    if (!entry) {
        // First rename of this block: its old (recovery) mapping is
        // the home address itself. If making room forces a backup,
        // the backup persists (and may rename) this line, so there
        // is nothing left to do.
        if (ensureEntrySpace(tag)) {
            panic_if(line.dirty, "backup left the line dirty");
            return;
        }
        entry = &allocateEntry(tag, tag, tag, false, false);
    }

    Addr fresh = bugAdjustFresh(freeList.pop());
    entry->newMap = fresh;
    mtc.markDirty(*entry);
    sink.consumeOverhead(cfg.tech.mtCacheAccessNj);
    noteRename(tag, fresh);
    writeBlockTo(fresh, line);
    line.markClean();
}

Addr
NvmrArch::bugAdjustFresh(Addr fresh)
{
    // Mutation hook for the src/check acceptance tests: alias every
    // rename onto the first location ever popped, violating map-table
    // injectivity and corrupting any aliased tag's recovery data.
    if (cfg.injectedBug != InjectedBug::RenameAlias)
        return fresh;
    if (!bugFreshValid) {
        bugFreshValid = true;
        bugFirstFresh = fresh;
        return fresh;
    }
    return bugFirstFresh;
}

// ----------------------------------------------------------------------
// Backup / restore / reclaim
// ----------------------------------------------------------------------

void
NvmrArch::performBackup(const CpuSnapshot &snap, BackupReason reason)
{
    // 1. Persist every dirty cache block. Write-dominated blocks may
    //    be persisted to their current mapping in place (idempotent
    //    re-execution nullifies a torn write), but a read-dominated
    //    block's current mapping *is* its recovery image, so it is
    //    renamed and persisted out of place instead -- this is how
    //    NvMR escapes the atomicity (double-buffering) constraint
    //    Clank pays for (Sections 3.4-3.6).
    cache.forEachLine([&](CacheLine &line) {
        if (!line.valid || !line.dirty)
            return;
        const Addr tag = line.blockAddr;
        MtcEntry *entry = mtc.lookup(tag);
        bool needs_oop = line.compositeReadDominated() &&
                         (!entry || !entry->dirty);

        // Renaming a tag the NVM map table does not know yet needs a
        // table slot at flush time; account for all pending inserts.
        auto room_for = [&](const MtcEntry *e) {
            if (e)
                return e->inMapTable ||
                       mapTable.size() + mtc.pendingNewTags() <=
                           mapTable.capacity();
            return mapTableHasRoomForNewTag();
        };

        if (entry && !needs_oop) {
            writeBlockTo(entry->newMap, line);
        } else if (entry) {
            // Clean entry, read-dominated block: rename in place of
            // a journalled double write.
            if (!freeList.empty() && room_for(entry)) {
                Addr fresh = bugAdjustFresh(freeList.pop());
                entry->newMap = fresh;
                mtc.markDirty(*entry);
                noteRename(tag, fresh);
                writeBlockTo(fresh, line);
            } else {
                // In-place overwrite of the recovery image: journal
                // it (home write deferred under fault injection).
                journaledWriteBlock(entry->newMap, line);
            }
        } else {
            // No cached entry: consult the NVM map table directly
            // (allocating here could evict a dirty entry and recurse
            // into another backup).
            auto mapping = mapTable.lookup(tag);
            Addr current = mapping ? *mapping : tag;
            if (!needs_oop) {
                writeBlockTo(current, line);
            } else if (!freeList.empty() &&
                       (mapping || room_for(nullptr))) {
                Addr fresh = bugAdjustFresh(freeList.pop());
                noteRename(tag, fresh);
                writeBlockTo(fresh, line);
                mapTable.set(tag, fresh);
                if (!cfg.reclaimEnabled || current >= reserved)
                    freeList.push(current);
            } else {
                // Structures exhausted: fall back to the journalled
                // double write, like Clank.
                journaledWriteBlock(current, line);
            }
        }
        line.markClean();
        line.dirtyWordMask = 0;
    });

    // 2. Flush dirty map-table-cache entries into the NVM map table,
    //    retiring the old mappings onto the free list (Figure 9).
    mtc.forEach([&](MtcEntry &entry) {
        if (!entry.valid || !entry.dirty)
            return;
        mapTable.set(entry.tag, entry.newMap);
        bool push_old = entry.oldMap != entry.newMap &&
                        (!cfg.reclaimEnabled || entry.oldMap >= reserved);
        // Mutation hook: FreeListLeak drops the retired mapping on
        // the floor instead of returning it (a conservation leak the
        // src/check invariant layer must catch).
        if (push_old && cfg.injectedBug != InjectedBug::FreeListLeak)
            freeList.push(entry.oldMap);
        entry.oldMap = entry.newMap;
        mtc.markClean(entry);
        mtc.markInMapTable(entry);
    });

    // 3. Registers + PC, 4. free-list pointers, 5. dominance reset.
    // The free-list pointer pair is the last NVM persist, so its
    // second word doubles as this backup's commit record.
    persistSnapshot(snap);
    freeList.persistPointers();
    resetDominanceState();
    commitBackup(reason);
}

void
NvmrArch::attachFaults(FaultInjector *injector)
{
    DominanceArch::attachFaults(injector);
    mapTable.attachFaults(injector);
    freeList.attachFaults(injector);
}

void
NvmrArch::shadowCapture()
{
    mapTable.beginTxn();
    freeList.beginTxn();
}

void
NvmrArch::shadowRollback()
{
    mapTable.rollbackTxn();
    freeList.rollbackTxn();
}

void
NvmrArch::onBackupCommitted()
{
    mapTable.commitTxn();
    freeList.commitTxn();
}

NanoJoules
NvmrArch::backupCostNowNj() const
{
    NanoJoules cost = 0;
    // Dirty map-table-cache entries: 2-word map-table write + 1-word
    // free-list push each.
    uint64_t dirty_entries = mtc.dirtyCount();
    cost += static_cast<double>(dirty_entries) *
            (nvmWriteCostNj(2) + nvmWriteCostNj(1) +
             cfg.tech.mtCacheAccessNj);
    // Dirty cache blocks: block write plus the worst-case resolve /
    // rename metadata (map-table read, map-table write, free-list
    // push).
    uint64_t dirty_blocks = cache.dirtyCount();
    cost += static_cast<double>(dirty_blocks) *
            (nvmWriteCostNj(cfg.cache.wordsPerBlock()) +
             nvmReadCostNj(2) + nvmWriteCostNj(3) +
             cfg.tech.mtCacheAccessNj);
    cost += snapshotCostNj();
    cost += freeList.persistPointersCostNj();
    // Margin for SRAM/bloom incidentals.
    return cost * 1.05 + 10.0;
}

void
NvmrArch::postBackup(BackupReason reason)
{
    // Section 4.8 reclaims after a map-table-full violation backup.
    // We also reclaim when the free list runs dry: with reclamation
    // enabled, application addresses are never recycled through the
    // free list, so reclaiming is the only way to replenish it.
    bool structural = reason == BackupReason::MapTableFull ||
                      reason == BackupReason::FreeListEmpty;
    if (!structural || !cfg.reclaimEnabled)
        return;
    // Section 4.8: reclaim map-table entries so renaming can resume.
    // Runs immediately after a persisted backup, so every mapping
    // holds exactly its block's recovery data and every cache line
    // and map-table-cache entry is clean.
    uint32_t batch = cfg.effectiveReclaimBatch();
    for (uint32_t i = 0; i < batch; ++i) {
        auto victim = mapTable.lruEntry();
        if (!victim)
            break;
        auto [tag, mapping] = *victim;
        // Crash-safe per-entry protocol: record, apply (copy home,
        // erase, push, persist pointers), clear. A crash at any point
        // leaves either the committed record to redo from, or a fully
        // durable entry; the orphan window between the durable erase
        // and the pointer persist is closed.
        persistReclaimRecord(tag, mapping);
        applyReclaimEntry(tag, mapping, /*redo=*/false);
        clearReclaimRecord();
        ++archStats.reclaims;
        if (tracer)
            tracer->record(EventKind::Reclaim, tag, mapping);
    }
}

void
NvmrArch::chargeRecordPersist(unsigned words)
{
    for (unsigned i = 0; i < words; ++i) {
        if (faults && faults->enabled())
            faults->persistPoint();
        sink.chargeWords(1, cfg.tech.flashWriteCycles,
                         cfg.tech.flashWriteWordNj, true);
    }
}

void
NvmrArch::persistReclaimRecord(Addr tag, Addr mapping)
{
    // Invalidate, write the pair, then revalidate: a crash can never
    // leave a valid record with a torn tag/mapping pair.
    chargeRecordPersist(1);
    reclaimRecValid = false;
    chargeRecordPersist(2);
    reclaimRecTag = tag;
    reclaimRecMapping = mapping;
    chargeRecordPersist(1);
    reclaimRecValid = true;
}

void
NvmrArch::clearReclaimRecord()
{
    chargeRecordPersist(1);
    reclaimRecValid = false;
}

void
NvmrArch::applyReclaimEntry(Addr tag, Addr mapping, bool redo)
{
    if (mapping != tag) {
        // Idempotent: `mapping` stays untouched (it cannot be popped
        // until its push is pointer-persisted, which also clears the
        // record), so re-copying after a crash rewrites the same data.
        for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w) {
            Word v = nvm.readWord(mapping + w * kWordBytes);
            nvm.writeWord(tag + w * kWordBytes, v);
        }
    }
    if (mapping >= reserved && !freeList.full()) {
        bool present = false;
        if (redo) {
            // The push may already be durable (crash between the
            // pointer persist and the record clear); pushing again
            // would hand the slot out twice.
            for (Addr slot : freeList.liveSlots())
                present |= slot == mapping;
        }
        if (!present)
            freeList.push(mapping);
    }
    mapTable.erase(tag);
    mtc.invalidateTag(tag);
    freeList.persistPointers();
}

void
NvmrArch::redoPendingReclaim()
{
    if (!reclaimRecValid)
        return;
    applyReclaimEntry(reclaimRecTag, reclaimRecMapping, /*redo=*/true);
    clearReclaimRecord();
}

void
NvmrArch::onPowerFail()
{
    DominanceArch::onPowerFail();
    mtc.invalidateAll();
    freeList.restorePointers();
}

CpuSnapshot
NvmrArch::performRestore()
{
    CpuSnapshot snap = IntermittentArch::performRestore();
    // Re-read the persisted free-list pointers.
    sink.chargeWords(1, 2 * cfg.tech.flashReadCycles,
                     2 * cfg.tech.flashReadWordNj, true);
    // Finish any reclaim entry a crash cut short (see the reclaim
    // record in the header). Runs before execution resumes so the
    // recovery image and free list are consistent again.
    redoPendingReclaim();
    return snap;
}

NanoJoules
NvmrArch::restoreCostNowNj() const
{
    return IntermittentArch::restoreCostNowNj() + nvmReadCostNj(2);
}

Addr
NvmrArch::inspectMapping(Addr addr) const
{
    Addr block = addr & ~(cfg.cache.blockBytes - 1);
    Addr mapped = block;
    if (const MtcEntry *entry = mtc.peek(block))
        mapped = entry->newMap;
    else if (auto m = mapTable.peek(block))
        mapped = *m;
    return mapped + (addr - block);
}

void
NvmrArch::saveState(StateWriter &w) const
{
    DominanceArch::saveState(w);
    mapTable.saveState(w);
    mtc.saveState(w);
    freeList.saveState(w);
    w.pod(reserved);
    w.u64(renameDepths.size());
    renameDepths.forEach([&](Addr tag, uint64_t depth) {
        w.pod(tag);
        w.u64(depth);
    });
    w.pod(renameChainDepth.rawState());
    w.pod(mtcResidency.rawState());
    w.boolean(bugFreshValid);
    w.pod(bugFirstFresh);
    w.boolean(reclaimRecValid);
    w.pod(reclaimRecTag);
    w.pod(reclaimRecMapping);
}

void
NvmrArch::restoreState(StateReader &r)
{
    DominanceArch::restoreState(r);
    mapTable.restoreState(r);
    mtc.restoreState(r);
    freeList.restoreState(r);
    reserved = r.pod<Addr>();
    renameDepths.clear();
    uint64_t ndepths = r.u64();
    for (uint64_t i = 0; i < ndepths; ++i) {
        Addr tag = r.pod<Addr>();
        renameDepths.set(tag, r.u64());
    }
    renameChainDepth.setRawState(r.pod<Histogram::Raw>());
    mtcResidency.setRawState(r.pod<Histogram::Raw>());
    bugFreshValid = r.boolean();
    bugFirstFresh = r.pod<Addr>();
    reclaimRecValid = r.boolean();
    reclaimRecTag = r.pod<Addr>();
    reclaimRecMapping = r.pod<Addr>();
}

} // namespace nvmr

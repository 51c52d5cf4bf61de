#include "arch/clank.hh"

#include "common/log.hh"

namespace nvmr
{

ClankArch::ClankArch(const SystemConfig &config, Nvm &nvm_,
                     EnergySink &snk)
    : DominanceArch(config, nvm_, snk)
{
}

void
ClankArch::fetchBlock(Addr block_addr, Word *out)
{
    nvm.readBlock(block_addr, out, cfg.cache.wordsPerBlock());
}

void
ClankArch::violatingWriteback(CacheLine &line)
{
    // An idempotency violation: the block's home address still holds
    // the value a re-execution would need to load. Back up first;
    // the backup persists this block (among everything else) and
    // starts a fresh code section, after which nothing remains to
    // write back.
    panic_if(!host, "ClankArch needs an attached BackupHost");
    host->requestBackup(BackupReason::IdempotencyViolation);
    panic_if(line.dirty, "backup left the violating line dirty");
}

void
ClankArch::performBackup(const CpuSnapshot &snap, BackupReason reason)
{
    // Persisting dirty blocks overwrites their home addresses -- the
    // recovery image -- so the whole data set must be journalled
    // first to keep the backup atomic (Section 3.4's atomicity
    // constraint; footnote 3). That doubles the write traffic.
    cache.forEachLine([&](CacheLine &line) {
        if (line.valid && line.dirty) {
            journaledWriteBlock(line.blockAddr, line);
            line.markClean();
            line.dirtyWordMask = 0;
        }
    });
    persistSnapshot(snap);
    resetDominanceState();
    commitBackup(reason);
}

NanoJoules
ClankArch::backupCostNowNj() const
{
    uint64_t words = static_cast<uint64_t>(cache.dirtyCount()) *
                     cfg.cache.wordsPerBlock();
    double factor = cfg.modelBackupAtomicity ? 2.0 : 1.0;
    return (factor * nvmWriteCostNj(words) + snapshotCostNj()) *
               1.05 +
           10.0;
}

} // namespace nvmr

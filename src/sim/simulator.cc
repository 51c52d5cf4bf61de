#include "sim/simulator.hh"

#include "arch/clank.hh"
#include "arch/clank_original.hh"
#include "arch/hoop.hh"
#include "arch/ideal.hh"
#include "arch/task.hh"
#include "common/log.hh"
#include "core/nvmr_arch.hh"
#include "mem/flat_port.hh"
#include "obs/metrics.hh"

namespace nvmr
{

namespace
{

/** Cooperative cancel poll (RunOptions::cancel); relaxed is enough —
 *  the flag only ever goes false -> true and a late observation just
 *  costs a few more simulated steps. */
inline bool
runCancelled(const RunOptions &opts)
{
    return opts.cancel &&
           opts.cancel->load(std::memory_order_relaxed);
}

} // namespace

// ----------------------------------------------------------------------
// Golden (continuous) execution
// ----------------------------------------------------------------------

GoldenResult
runContinuous(const Program &prog, uint64_t max_instructions)
{
    FlatPort port(prog.data, "golden run");
    Cpu cpu(prog, port);

    GoldenResult result;
    while (!cpu.halted() && result.instructions < max_instructions) {
        cpu.step();
        ++result.instructions;
    }
    result.halted = cpu.halted();
    result.data = port.takeBytes();
    return result;
}

std::shared_ptr<const GoldenImage>
goldenFor(const Program &prog)
{
    if (auto image = prog._golden.get())
        return image;

    GoldenResult golden = runContinuous(prog);
    panic_if(!golden.halted, "golden run of ", prog.name,
             " did not halt");
    golden.data.resize(prog.data.size());
    // The first installer wins, so concurrent runs share one image.
    return prog._golden.install(
        std::make_shared<const GoldenImage>(std::move(golden.data)));
}

std::unique_ptr<IntermittentArch>
makeArch(ArchKind kind, const SystemConfig &cfg, Nvm &nvm,
         EnergySink &sink)
{
    switch (kind) {
      case ArchKind::Ideal:
        return std::make_unique<IdealArch>(cfg, nvm, sink);
      case ArchKind::Clank:
        return std::make_unique<ClankArch>(cfg, nvm, sink);
      case ArchKind::ClankOriginal:
        return std::make_unique<ClankOriginalArch>(cfg, nvm, sink);
      case ArchKind::Task:
        return std::make_unique<TaskArch>(cfg, nvm, sink);
      case ArchKind::Nvmr:
        return std::make_unique<NvmrArch>(cfg, nvm, sink);
      case ArchKind::Hoop:
        return std::make_unique<HoopArch>(cfg, nvm, sink);
      default:
        panic("bad arch kind");
    }
}

// ----------------------------------------------------------------------
// Simulator
// ----------------------------------------------------------------------

Simulator::Simulator(const Program &prog, ArchKind arch_kind,
                     const SystemConfig &config, BackupPolicy &pol,
                     const HarvestTrace &harvest, RunOptions options)
    : program(prog), cfg(config), policy(pol), trace(harvest),
      opts(options),
      cap(config.capacitorFarads, config.vMax, config.vOn,
          config.vOff, config.capScale, config.capExponent),
      nvm(config.nvmBytes, config.tech, *this),
      arch(makeArch(arch_kind, config, nvm, *this)),
      cpu(prog, *arch), injector(options.faults)
{
    arch->attachHost(this);
    nvm.attachFaults(&injector);
    arch->attachFaults(&injector);
    chargesMtLeak = dynamic_cast<NvmrArch *>(arch.get()) != nullptr;
    cap.setVoltage(opts.initialVoltage > 0 ? opts.initialVoltage
                                           : cap.vOnVolts());
    arch->addStat(&backupIntervalHist);
    arch->addStat(&onPeriodHist);
    arch->addStat(&nvmWearHist);
}

void
Simulator::attachTrace(TraceSink *sink_)
{
    tracer = sink_;
    if (sink_)
        sink_->bindClocks(&totalCycles, &activeCycles);
    arch->attachTrace(sink_);
    cpu.attachTrace(sink_);
    injector.attachTrace(sink_);
    nvm.attachTrace(sink_);
}

// ----------------------------------------------------------------------
// Energy sink
// ----------------------------------------------------------------------

ECat
Simulator::categoryFor(bool overhead) const
{
    switch (mode) {
      case EMode::Execute:
        return overhead ? ECat::ForwardOverhead : ECat::Forward;
      case EMode::Backup:
        return overhead ? ECat::BackupOverhead : ECat::Backup;
      case EMode::Restore:
        return overhead ? ECat::RestoreOverhead : ECat::Restore;
      case EMode::Reclaim:
        return ECat::Reclaim;
      default:
        panic("bad energy mode");
    }
}

void
Simulator::brownOut()
{
    // A brown-out inside an atomic section used to be fatal; with
    // partial persists modeled it is just another torn backup the
    // recovery protocol handles. --strict-atomic restores the old
    // behavior for A/B comparison of cost-estimate regressions.
    panic_if(inAtomic && cfg.strictAtomic,
             "brown-out inside an atomic operation: a cost estimate "
             "is too low");
    throw PowerFailure{};
}

void
Simulator::consume(NanoJoules nj)
{
    charge(nj, false);
}

void
Simulator::consumeOverhead(NanoJoules nj)
{
    charge(nj, true);
}

void
Simulator::refreshHarvestCache()
{
    harvestMwCached = trace.powerMwAtCycle(totalCycles);
    harvestSampleEnd = (totalCycles / HarvestTrace::cyclesPerSample + 1) *
                       HarvestTrace::cyclesPerSample;
}

double
Simulator::harvestMwNow()
{
    if (totalCycles >= harvestSampleEnd)
        refreshHarvestCache();
    return harvestMwCached;
}

void
Simulator::addCycles(Cycles n)
{
    if (n == 0)
        return;
    if (totalCycles + n <= harvestSampleEnd) {
        // Whole interval inside the cached sample: same multiply
        // harvestedNj would do, without the per-sample walk.
        cap.harvestNj(harvestMwCached * HarvestTrace::njPerMwCycle *
                      static_cast<double>(n));
    } else {
        cap.harvestNj(trace.harvestedNj(totalCycles, n));
    }
    totalCycles += n;
    if (totalCycles >= harvestSampleEnd)
        refreshHarvestCache();
    activeCycles += n;
    double dn = static_cast<double>(n);
    charge(dn * (cfg.tech.cpuCycleNj + cfg.tech.leakNjPerCycle), false);
    if (chargesMtLeak)
        charge(dn * cfg.tech.mtCacheLeakNjPerCycle, true);
    injector.cyclePoint(totalCycles);
}

void
Simulator::chargeWords(uint64_t n, Cycles cycles, NanoJoules nj,
                       bool overhead, uint64_t *started)
{
    // EnergySink's loop with the calls bound statically, so a whole
    // block's transfers inline into one call.
    for (uint64_t i = 0; i < n; ++i) {
        if (started)
            ++*started;
        Simulator::addCycles(cycles);
        charge(nj, overhead);
    }
}

// ----------------------------------------------------------------------
// Backup orchestration
// ----------------------------------------------------------------------

void
Simulator::requestBackup(BackupReason reason)
{
    NanoJoules cost = arch->backupCostNowNj();
    if (cap.usableNj() < cost)
        throw PowerFailure{}; // cannot afford the backup: die instead

    if (tracer)
        tracer->record(EventKind::BackupBegin,
                       static_cast<uint64_t>(reason));
    injector.noteBackupStart();
    EMode saved = mode;
    mode = EMode::Backup;
    inAtomic = true;
    arch->beginBackupTxn();
    arch->performBackup(cpu.snapshot(), reason);
    account.commitPending();
    inAtomic = false;

    // The backup committed; replay any journaled home writes (crash-
    // safe: a crash here re-replays the journal at restore).
    arch->finishBackupTxn();

    // Post-backup work (NvMR reclamation) is crash-safe per entry and
    // therefore runs outside the atomic section.
    mode = EMode::Reclaim;
    arch->postBackup(reason);

    mode = saved;
    injector.noteBackupEnd();
    backupIntervalHist.sample(
        static_cast<double>(activeCycles - lastBackupActive));
    lastBackupActive = activeCycles;
    if (observer)
        observer->onBackup(reason, activeCycles);
    if (tracer)
        tracer->record(EventKind::BackupCommit,
                       static_cast<uint64_t>(reason),
                       arch->committedBackupSeq());
    if (opts.snapshots)
        snapPending = true; // capture at the next instruction boundary
}

// ----------------------------------------------------------------------
// Machine snapshots (fork/restore)
// ----------------------------------------------------------------------

void
Simulator::fireSnapshotPoint()
{
    snapPending = false;
    opts.snapshots->onSnapshotPoint(*this);
}

MachineSnapshot
Simulator::captureSnapshot()
{
    panic_if(inAtomic, "snapshot inside an atomic section");
    MachineSnapshot snap;
    StateWriter w;
    cpu.saveState(w);
    w.f64(cap.rawEnergy());
    w.pod(account.rawState());
    w.u64(activeCycles);
    w.u64(totalCycles);
    w.u64(lastBackupActive);
    w.u64(resumeActive);
    w.f64(harvestMwCached);
    w.u64(harvestSampleEnd);
    w.pod(backupIntervalHist.rawState());
    w.pod(onPeriodHist.rawState());
    w.pod(nvmWearHist.rawState());
    w.u64(policy.saveState());
    nvm.saveState(w);
    injector.saveState(w);
    arch->saveState(w);
    snap.blob = w.take();
    snap.nvmPages = nvm.snapshotPages();
    snap.totalCycles = totalCycles;
    snap.persistCount = injector.stats().persistPoints;
    snap.committedSeq = arch->committedBackupSeq();
    return snap;
}

void
Simulator::restoreSnapshot(const MachineSnapshot &snap)
{
    StateReader r(snap.blob);
    cpu.restoreState(r);
    cap.setRawEnergy(r.f64());
    account.setRawState(r.pod<EnergyAccount::Raw>());
    activeCycles = r.u64();
    totalCycles = r.u64();
    lastBackupActive = r.u64();
    resumeActive = r.u64();
    harvestMwCached = r.f64();
    harvestSampleEnd = r.u64();
    backupIntervalHist.setRawState(r.pod<Histogram::Raw>());
    onPeriodHist.setRawState(r.pod<Histogram::Raw>());
    nvmWearHist.setRawState(r.pod<Histogram::Raw>());
    policy.restoreState(r.u64());
    nvm.restoreState(r);
    injector.restoreState(r, totalCycles);
    arch->restoreState(r);
    panic_if(!r.exhausted(), "snapshot blob has trailing bytes");
    nvm.adoptPages(snap.nvmPages);
    mode = EMode::Execute;
    inAtomic = false;
    snapPending = false;
}

void
Simulator::hibernate()
{
    // JIT-style policies stop executing after their backup and wait
    // for the supply to recover or die. Volatile state is retained
    // while the capacitor stays above the brown-out voltage.
    if (observer)
        observer->onHibernate(activeCycles);
    if (tracer)
        tracer->record(EventKind::Hibernate);
    while (true) {
        Cycles step = HarvestTrace::cyclesPerSample;
        cap.harvestNj(trace.harvestedNj(totalCycles, step));
        totalCycles += step;
        NanoJoules leak = static_cast<double>(step) *
                          cfg.tech.hibernateLeakNjPerCycle;
        cap.drainNj(leak);
        account.spendCommitted(ECat::Forward, leak);
        if (cap.dead())
            throw PowerFailure{}; // pending is empty: no dead energy
        if (cap.canTurnOn()) {
            if (observer)
                observer->onWake(activeCycles);
            if (tracer)
                tracer->record(EventKind::Wake);
            return; // supply recovered; resume execution
        }
        if (totalCycles > opts.maxCycles)
            return; // give up; the main loop stops the run
        if (runCancelled(opts)) {
            // Cancelled mid-hibernation: burn the budget so every
            // enclosing wait loop unwinds through its existing
            // give-up path.
            totalCycles = opts.maxCycles + 1;
            return;
        }
    }
}

void
Simulator::waitForRecharge(NanoJoules need_nj)
{
    // A restore that costs more than a full capacitor can ever hold
    // (e.g. a HOOP redo log oversized for the platform) will never
    // become affordable: end the run instead of waiting forever.
    Capacitor full(cfg.capacitorFarads, cfg.vMax, cfg.vOn, cfg.vOff,
                   cfg.capScale, cfg.capExponent);
    full.setVoltage(cfg.vMax);
    if (need_nj > full.usableNj()) {
        warn("restore cost ", need_nj,
             " nJ exceeds a full capacitor (", full.usableNj(),
             " nJ); device cannot recover -- size the NVM "
             "structures to the capacitor");
        totalCycles = opts.maxCycles + 1;
        return;
    }
    while (totalCycles <= opts.maxCycles) {
        Cycles step = HarvestTrace::cyclesPerSample;
        cap.harvestNj(trace.harvestedNj(totalCycles, step));
        totalCycles += step;
        if (cap.canTurnOn() && cap.usableNj() >= need_nj)
            return;
        if (runCancelled(opts)) {
            totalCycles = opts.maxCycles + 1;
            return;
        }
    }
}

void
Simulator::rebootFromReset()
{
    // No backup has ever committed (the initial backup itself was
    // torn): there is nothing to restore. Boot the CPU from its
    // reset state and take the initial backup again -- exactly what
    // a real device does when it dies before its first checkpoint.
    while (totalCycles <= opts.maxCycles) {
        waitForRecharge(arch->backupCostNowNj() * 1.2 + 100.0);
        if (totalCycles > opts.maxCycles)
            return;
        cpu.reset();
        lastBackupActive = activeCycles;
        resumeActive = activeCycles;
        try {
            requestBackup(BackupReason::Initial);
            return;
        } catch (PowerFailure &) {
            panic_if(inAtomic && cfg.strictAtomic,
                     "power failure inside an atomic operation "
                     "(strict-atomic mode)");
            mode = EMode::Execute;
            inAtomic = false;
            account.pendingToDead();
            arch->onPowerFail();
            if (observer)
                observer->onPowerFailure(activeCycles);
            if (tracer)
                tracer->record(EventKind::PowerFail);
        }
    }
}

void
Simulator::handlePowerFailure()
{
    // Under --strict-atomic any power loss inside an atomic section
    // -- a genuine brown-out (already fatal in brownOut) or an
    // injected crash -- is the old fatal error.
    panic_if(inAtomic && cfg.strictAtomic,
             "power failure inside an atomic operation "
             "(strict-atomic mode)");
    mode = EMode::Execute;
    inAtomic = false;
    account.pendingToDead();
    arch->onPowerFail();
    onPeriodHist.sample(
        static_cast<double>(activeCycles - resumeActive));
    if (observer)
        observer->onPowerFailure(activeCycles);
    if (tracer)
        tracer->record(EventKind::PowerFail);

    if (!arch->hasPersistedState()) {
        rebootFromReset();
        return;
    }

    while (totalCycles <= opts.maxCycles) {
        waitForRecharge(arch->restoreCostNowNj() * 1.2 + 100.0);
        if (totalCycles > opts.maxCycles)
            return; // never recharged; run() reports incompletion

        mode = EMode::Restore;
        inAtomic = true;
        try {
            CpuSnapshot snap = arch->performRestore();
            inAtomic = false;
            mode = EMode::Execute;
            cpu.restore(snap);
            lastBackupActive = activeCycles;
            resumeActive = activeCycles;
            if (observer)
                observer->onRestore(activeCycles);
            if (tracer)
                tracer->record(EventKind::Restore, 0,
                               arch->committedBackupSeq());
            return;
        } catch (PowerFailure &) {
            // Power died again mid-restore (e.g. while replaying the
            // backup journal). The journal replay is idempotent, so
            // clean up and retry the whole restore.
            panic_if(inAtomic && cfg.strictAtomic,
                     "power failure inside an atomic operation "
                     "(strict-atomic mode)");
            mode = EMode::Execute;
            inAtomic = false;
            account.pendingToDead();
            arch->onPowerFail();
            if (observer)
                observer->onPowerFailure(activeCycles);
            if (tracer)
                tracer->record(EventKind::PowerFail);
        }
    }
}

void
Simulator::maybePolicyBackup()
{
    PolicyContext ctx{cap,
                      activeCycles,
                      activeCycles - lastBackupActive,
                      activeCycles - resumeActive,
                      arch->backupCostNowNj(),
                      harvestMwNow()};
    if (!policy.shouldBackup(ctx))
        return;
    requestBackup(BackupReason::Policy);
    if (policy.hibernateAfterBackup())
        hibernate();
}

RunResult
Simulator::run()
{
    policy.reset();
    // No PowerOn (or initialization) events on a forked run -- they
    // already happened in the run that captured the snapshot, so a
    // fork's event stream is exactly the capturing run's suffix.
    TraceSink *saved_tracer = tracer;
    if (opts.resumeFrom)
        attachTrace(nullptr); // components hold their own sink pointers
    else if (tracer)
        tracer->record(EventKind::PowerOn);
    cpu.reset();
    arch->initialize(program);
    if (opts.resumeFrom)
        attachTrace(saved_tracer);

    if (opts.resumeFrom) {
        // Forked run: overwrite the freshly initialized state with
        // the snapshot and continue from its instruction boundary.
        // The Initial backup is skipped -- it, too, already happened
        // in the capturing run.
        restoreSnapshot(*opts.resumeFrom);
    } else {
        try {
            requestBackup(BackupReason::Initial);
        } catch (PowerFailure &) {
            handlePowerFailure();
        }
    }

    ThreadedEngine engine(*this);
    const bool completed = engine.run();

    bool validated = false;
    bool checked = false;
    if (completed && opts.validate) {
        validated = validateAgainstGolden(*goldenFor(program));
        checked = true;
    }
    arch->syncFaultCounters(injector.stats());
    nvm.forEachWornWord([&](Addr, uint64_t wear_count) {
        nvmWearHist.sample(static_cast<double>(wear_count));
    });
    RunResult result = makeResult(completed, validated);
    result.validationChecked = checked;
    // Host telemetry: aggregate simulated-instruction throughput,
    // one bump per run (never in the per-instruction hot loop).
    if (obs::MetricsRegistry *m = obs::metrics())
        m->add(obs::Counter::Instructions, result.instructions);
    return result;
}

bool
Simulator::validateAgainstGolden(const GoldenImage &golden) const
{
    // Compare every word of the application data segment, reading
    // through the architecture's latest mapping.
    uint32_t words = static_cast<uint32_t>(program.data.size()) /
                     kWordBytes;
    for (uint32_t w = 0; w < words; ++w) {
        Addr addr = w * kWordBytes;
        Word expect = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            expect |= static_cast<Word>(golden[addr + i])
                      << (8 * i);
        if (arch->inspectWord(addr) != expect)
            return false;
    }
    return true;
}

RunResult
Simulator::makeResult(bool completed, bool validated) const
{
    RunResult r;
    r.program = program.name;
    r.arch = arch->name();
    r.policy = policy.name();
    r.trace = trace.name();
    r.completed = completed;
    r.validated = validated;
    r.activeCycles = activeCycles;
    r.totalCycles = totalCycles;
    r.instructions = cpu.instret();

    for (size_t i = 0; i < kNumECats; ++i)
        r.energy[i] = account.total(static_cast<ECat>(i));
    r.totalEnergyNj = account.grandTotal();

    const ArchStats &s = arch->stats();
    r.backups = static_cast<uint64_t>(s.backups.value());
    r.backupsByReason = s.backupsByReason;
    r.violations = static_cast<uint64_t>(s.violations.value());
    r.renames = static_cast<uint64_t>(s.renames.value());
    r.reclaims = static_cast<uint64_t>(s.reclaims.value());
    r.restores = static_cast<uint64_t>(s.restores.value());
    r.powerFailures = static_cast<uint64_t>(s.powerFailures.value());

    r.nvmReads = nvm.totalReads();
    r.nvmWrites = nvm.totalWrites();
    r.maxWear = nvm.maxWear();
    r.cacheHits = arch->dataCache().hits();
    r.cacheMisses = arch->dataCache().misses();

    r.tornBackups = static_cast<uint64_t>(s.tornBackups.value());
    const FaultStats &fs = injector.stats();
    r.injectedCrashes = fs.injectedCrashes;
    r.eccCorrected = fs.eccCorrected;
    r.eccUncorrectable = fs.eccUncorrectable;
    return r;
}

} // namespace nvmr

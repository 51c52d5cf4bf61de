/**
 * @file
 * The execution core. Every transformation here is a pure speed
 * optimization: each instruction replays Cpu::step()'s semantics and
 * the simulator's exact per-instruction sequence of floating-point
 * operations, counter updates and subsystem calls, so the outputs --
 * final NVM state, registers, energy ledger, stats, event streams --
 * reproduce the retired reference interpreter's bit for bit (the
 * engine-equivalence ctest checks both modes against the committed
 * digest table).
 *
 * Four layers of speedup, each with an exact bail-out:
 *
 *  1. Predecoded ops (cpu/decoded.hh): no per-step field decode, no
 *     per-step register bounds checks, shift immediates pre-masked.
 *  2. Inlined per-instruction policy check (PolicyFastPath): the JIT
 *     threshold `backupCostNowNj()*margin + slackNj` is cached while
 *     nothing that can change the backup cost has run. Every
 *     backupCostNowNj() implementation is a pure function of state
 *     that only cache misses (fills, evictions, renames, log appends
 *     and the backups they trigger), clean-to-dirty stores, task
 *     boundaries, backups, restores and power failures change --
 *     exactly the events that clear `costValid`. A load hit or a
 *     store to an already-dirty line keeps it. Stateful policies
 *     take reference mode: the virtual call after every instruction.
 *  3. Engine-resident cache hits: when the architecture's port is the
 *     cache-fronted one, loads and stores run IntermittentArch's
 *     inline hit routine with the simulator's inline charge, and
 *     only misses leave the loop for the shared miss path.
 *  4. Superblock fusion: a maximal straight-line run of ALU ops
 *     executes as one fused step with the capacitor energy, pending
 *     ledger and cycle counters held in registers. Fusion requires
 *     proof that per-instruction stepping would have done nothing
 *     else inside the run: no harvest-sample boundary, no cycle
 *     budget edge, no armed crash point, no Generic policy. The fused
 *     loop still applies each op's harvest/drain/dead-check
 *     individually (IEEE FP is not associative; bulk-summing would
 *     drift), and writes every local back before any exit -- fire,
 *     brown-out, or block end -- so exceptions always unwind from a
 *     consistent Simulator.
 */

#include "sim/engine.hh"

#include <atomic>

#include "common/log.hh"
#include "isa/alu.hh"
#include "sim/simulator.hh"

namespace nvmr
{

namespace
{

// Policy fast-path modes, as template parameters so the hot loop
// compiles to exactly the code each mode needs.
constexpr int kPolGeneric = 0;
constexpr int kPolEnergy = 1;
constexpr int kPolPeriod = 2;
constexpr int kPolNone = 3;

// session() outcomes (power failures leave via PowerFailure instead).
constexpr int kSessionCompleted = 1;
constexpr int kSessionStop = 2;

/**
 * Execute one fusible ALU op against the register file. Mirrors the
 * corresponding Cpu::step() cases exactly; rd is never the zero
 * register (the predecoder folds those to Discard).
 */
#if defined(__GNUC__)
[[gnu::always_inline]]
#endif
inline void
execFusible(const DecodedOp &f, Word *r)
{
    const Word a = r[f.rs1];
    const Word b = r[f.rs2];
    switch (f.kind) {
      case XOp::Add: r[f.rd] = a + b; break;
      case XOp::Sub: r[f.rd] = a - b; break;
      case XOp::Mul: r[f.rd] = a * b; break;
      case XOp::Div:
        r[f.rd] = alu::div(static_cast<SWord>(a),
                           static_cast<SWord>(b));
        break;
      case XOp::Rem:
        r[f.rd] = alu::rem(static_cast<SWord>(a),
                           static_cast<SWord>(b));
        break;
      case XOp::And: r[f.rd] = a & b; break;
      case XOp::Or: r[f.rd] = a | b; break;
      case XOp::Xor: r[f.rd] = a ^ b; break;
      case XOp::Sll: r[f.rd] = alu::sll(a, alu::shiftAmount(b)); break;
      case XOp::Srl: r[f.rd] = alu::srl(a, alu::shiftAmount(b)); break;
      case XOp::Sra: r[f.rd] = alu::sra(a, alu::shiftAmount(b)); break;
      case XOp::Slt:
        r[f.rd] = static_cast<SWord>(a) < static_cast<SWord>(b) ? 1 : 0;
        break;
      case XOp::Sltu: r[f.rd] = a < b ? 1 : 0; break;
      case XOp::Addi: r[f.rd] = a + static_cast<Word>(f.imm); break;
      case XOp::Andi: r[f.rd] = a & static_cast<Word>(f.imm); break;
      case XOp::Ori: r[f.rd] = a | static_cast<Word>(f.imm); break;
      case XOp::Xori: r[f.rd] = a ^ static_cast<Word>(f.imm); break;
      case XOp::Slli: // imm pre-masked by the predecoder
        r[f.rd] = alu::sll(a, static_cast<unsigned>(f.imm));
        break;
      case XOp::Srli:
        r[f.rd] = alu::srl(a, static_cast<unsigned>(f.imm));
        break;
      case XOp::Srai:
        r[f.rd] = alu::sra(a, static_cast<unsigned>(f.imm));
        break;
      case XOp::Slti:
        r[f.rd] = static_cast<SWord>(a) < f.imm ? 1 : 0;
        break;
      case XOp::Muli: r[f.rd] = a * static_cast<Word>(f.imm); break;
      case XOp::Lui: r[f.rd] = static_cast<Word>(f.imm); break;
      case XOp::Discard: break; // timing only
      default: break;           // unreachable: caller dispatched
    }
}

} // namespace

void
ThreadedEngine::firePolicyBackup()
{
    // Mirrors Simulator::maybePolicyBackup() once shouldBackup() is
    // known to be true.
    s.requestBackup(BackupReason::Policy);
    costValid = false;
    if (policyHibernates)
        s.hibernate();
}

template <int M>
inline void
ThreadedEngine::policyAfterStep()
{
    if constexpr (M == kPolEnergy) {
        if (!costValid) {
            rhs = s.arch->backupCostNowNj() * margin + slackNj;
            costValid = true;
        }
        if (s.cap.usableNj() <= rhs)
            firePolicyBackup();
    } else if constexpr (M == kPolPeriod) {
        if (s.activeCycles - s.lastBackupActive >= period)
            firePolicyBackup();
    } else if constexpr (M == kPolGeneric) {
        s.maybePolicyBackup();
    }
    // kPolNone: never fires.
}

/**
 * One powered session: execute until the program completes, the
 * budget/cancel path gives up, or a PowerFailure unwinds to
 * mainLoop(). The PC lives in a local; Cpu::_pc and _instret are
 * updated at every instruction retire so any throw -- from a memory
 * op (instruction not retired) or from the cycle accounting
 * (retired) -- observes exactly Cpu::step()'s CPU state.
 */
template <int M>
int
ThreadedEngine::session(unsigned &cancel_check)
{
    Cpu &cpu = s.cpu;
    DataPort &port = cpu.port;
    Word *const r = cpu.regs.data();
    const DecodedOp *const ops = image->ops.data();
    const uint32_t text_size = image->size();
    const std::atomic<bool> *const cancel = s.opts.cancel;
    const uint64_t max_cycles = s.opts.maxCycles;
    const bool mt = s.chargesMtLeak;

    uint32_t pc = cpu._pc;
    const DecodedOp *o;
    bool taken;

    // Inlined copy of Simulator::addCycles() for the retire path
    // (mode is always Execute there, so charge() reduces to the
    // Forward pending slots). Going through the sink would cost an
    // out-of-line call per instruction; the expressions below are
    // copied verbatim so results stay bit-identical. Port-driven
    // stall cycles (Nvm reads/writes) still go through the virtual
    // sink, untouched.
    const auto chargeCycles = [&](Cycles n)
#if defined(__GNUC__)
        __attribute__((always_inline))
#endif
    {
        uint64_t tot = s.totalCycles;
        if (tot + n <= s.harvestSampleEnd) {
            s.cap.harvestNj(s.harvestMwCached *
                            HarvestTrace::njPerMwCycle *
                            static_cast<double>(n));
        } else {
            s.cap.harvestNj(s.trace.harvestedNj(tot, n));
        }
        tot += n;
        s.totalCycles = tot;
        if (tot >= s.harvestSampleEnd)
            s.refreshHarvestCache();
        s.activeCycles += n;
        const double dn = static_cast<double>(n);
        double nj = dn * fwdNjPerCycle;
        double e = s.cap.e;
        e = e > nj ? e - nj : 0.0;
        s.cap.e = e;
        s.account.pending[size_t(ECat::Forward)] += nj;
        if (e <= s.cap.eDead)
            throw PowerFailure{}; // brownOut(): never atomic here
        if (mt) {
            nj = dn * mtNjPerCycle;
            e = e > nj ? e - nj : 0.0;
            s.cap.e = e;
            s.account.pending[size_t(ECat::ForwardOverhead)] += nj;
            if (e <= s.cap.eDead)
                throw PowerFailure{};
        }
        s.injector.cyclePoint(tot);
    };

    // Memory ops: the cache hit runs inline here (charged through the
    // simulator's inline charge()); a miss takes the architecture's
    // shared miss path. The cached backup-cost threshold survives a
    // hit unless the store turns a clean line dirty.
    IntermittentArch &arch = *s.arch;
    const bool inline_mem = arch.cacheFrontedPort();
    const DataCache &dcache = arch.dataCache();
    const auto hitCharge = [&](NanoJoules nj)
#if defined(__GNUC__)
        __attribute__((always_inline))
#endif
    { s.charge(nj, false); };
    const auto cachedLine = [&](Addr a, uint32_t nbytes,
                                bool is_store) -> CacheLine &
#if defined(__GNUC__)
        __attribute__((always_inline))
#endif
    {
        if (CacheLine *line =
                arch.accessHit(a, nbytes, is_store, hitCharge)) {
            if (is_store && !line->dirty)
                costValid = false;
            return *line;
        }
        costValid = false;
        return arch.accessMiss(a, nbytes, is_store);
    };

#if defined(__GNUC__) && !defined(NVMR_THREADED_SWITCH)
#define NVMR_CGOTO 1
#else
#define NVMR_CGOTO 0
#endif

#if NVMR_CGOTO
    // Handler table indexed by XOp. All 24 fusible kinds share the
    // ALU handler (execFusible re-dispatches on the exact kind).
    static const void *const kLabels[] = {
        &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu,
        &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu,
        &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu, &&h_alu,
        &&h_alu, &&h_alu, &&h_alu,
        &&h_ld, &&h_ldb, &&h_st, &&h_stb,
        &&h_beq, &&h_bne, &&h_blt, &&h_bge, &&h_bltu, &&h_bgeu,
        &&h_jmp, &&h_jal, &&h_jr, &&h_halt, &&h_task,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<size_t>(XOp::NUM_XOPS),
                  "handler table out of sync with XOp");
#define NVMR_DISPATCH() goto *kLabels[static_cast<size_t>(o->kind)]
#else
#define NVMR_DISPATCH() goto dispatch_switch
#endif

  top:
    // Per-instruction preamble: budget first, then the snapshot
    // point (the first instruction boundary after a committed
    // backup), the coarse cancel poll, and the fetch bounds check.
    if (s.totalCycles > max_cycles)
        return kSessionStop;
    if (s.snapPending)
        s.fireSnapshotPoint();
    if (cancel && ++cancel_check >= 1024) {
        cancel_check = 0;
        if (cancel->load(std::memory_order_relaxed))
            return kSessionStop;
    }
    panic_if(pc >= text_size,
             "PC out of range: ", pc, " in ", s.program.name);
    o = &ops[pc];

    if constexpr (M != kPolGeneric) {
        if (o->fuse > 1) {
            // Superblock fusion preconditions: the whole run must
            // stay inside the cached harvest sample (so each op's
            // harvest is the same fast-path multiply addCycles()
            // would do and no mid-run cache refresh happens), inside
            // the cycle budget (checked before every step), and
            // short of the next armed crash point.
            const uint64_t tot0 = s.totalCycles;
            const uint64_t end = tot0 + o->fuseCycles;
            if (end <= s.harvestSampleEnd && end <= max_cycles &&
                end < s.injector.nextCyclePoint()) {
                if constexpr (M == kPolEnergy) {
                    if (!costValid) {
                        rhs = s.arch->backupCostNowNj() * margin +
                              slackNj;
                        costValid = true;
                    }
                }
                const unsigned n = o->fuse;
                if (cancel)
                    cancel_check += n - 1;

                double e = s.cap.e;
                const double e_max = s.cap.eMax;
                const double e_dead = s.cap.eDead;
                const double e_off = s.cap.eOff;
                double pf =
                    s.account.pending[size_t(ECat::Forward)];
                double pfo =
                    s.account.pending[size_t(ECat::ForwardOverhead)];
                uint64_t tot = tot0;
                uint64_t act = s.activeCycles;
                const uint64_t last_backup = s.lastBackupActive;
                // (h * k) * n matches addCycles()'s
                // left-associated harvest fast path exactly.
                const double hk =
                    s.harvestMwCached * HarvestTrace::njPerMwCycle;

                const DecodedOp *f = o;
                unsigned i = 0;
                bool died = false;
                bool fired = false;
                for (; i < n; ++f) {
                    execFusible(*f, r);
                    ++i;
                    const double dn =
                        static_cast<double>(f->cycles);
                    e += hk * dn;
                    if (e > e_max)
                        e = e_max;
                    tot += f->cycles;
                    act += f->cycles;
                    double nj = dn * fwdNjPerCycle;
                    e = e > nj ? e - nj : 0.0;
                    pf += nj;
                    if (e <= e_dead) {
                        died = true;
                        break;
                    }
                    if (mt) {
                        nj = dn * mtNjPerCycle;
                        e = e > nj ? e - nj : 0.0;
                        pfo += nj;
                        if (e <= e_dead) {
                            died = true;
                            break;
                        }
                    }
                    if constexpr (M == kPolEnergy) {
                        if ((e > e_off ? e - e_off : 0.0) <= rhs) {
                            fired = true;
                            break;
                        }
                    } else if constexpr (M == kPolPeriod) {
                        if (act - last_backup >= period) {
                            fired = true;
                            break;
                        }
                    }
                }

                // Write everything back before any exit: the op that
                // died or fired has retired, and the refresh check
                // reproduces the one addCycles() would have run
                // during the run's last op.
                pc += i;
                cpu._pc = pc;
                cpu._instret += i;
                s.cap.e = e;
                s.account.pending[size_t(ECat::Forward)] = pf;
                s.account.pending[size_t(ECat::ForwardOverhead)] = pfo;
                s.totalCycles = tot;
                s.activeCycles = act;
                if (tot >= s.harvestSampleEnd)
                    s.refreshHarvestCache();
                if (died)
                    throw PowerFailure{};
                if (fired)
                    firePolicyBackup();
                goto top;
            }
        }
    }
    NVMR_DISPATCH();

  h_alu:
    execFusible(*o, r);
    ++pc;
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;

  h_ld: {
    const Addr a = r[o->rs1] + static_cast<Word>(o->imm);
    Word v;
    if (inline_mem) {
        panic_if(a % kWordBytes != 0, "misaligned load at ", a);
        v = cachedLine(a, kWordBytes, false).data[dcache.wordIndex(a)];
    } else {
        v = port.loadWord(a);
        costValid = false;
    }
    if (o->rd != kRegZero)
        r[o->rd] = v;
    ++pc;
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;
  }

  h_ldb: {
    const Addr a = r[o->rs1] + static_cast<Word>(o->imm);
    Word v;
    if (inline_mem) {
        v = cachedLine(a, 1, false).loadByte(dcache.wordIndex(a),
                                             a & 3u);
    } else {
        v = port.loadByte(a);
        costValid = false;
    }
    if (o->rd != kRegZero)
        r[o->rd] = v;
    ++pc;
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;
  }

  h_st: {
    const Addr a = r[o->rs1] + static_cast<Word>(o->imm);
    const Word v = r[o->rs2];
    if (inline_mem) {
        panic_if(a % kWordBytes != 0, "misaligned store at ", a);
        cachedLine(a, kWordBytes, true).storeWord(dcache.wordIndex(a), v);
    } else {
        port.storeWord(a, v);
        costValid = false;
    }
    ++pc;
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;
  }

  h_stb: {
    const Addr a = r[o->rs1] + static_cast<Word>(o->imm);
    const uint8_t v = static_cast<uint8_t>(r[o->rs2]);
    if (inline_mem) {
        cachedLine(a, 1, true).storeByte(dcache.wordIndex(a), a & 3u, v);
    } else {
        port.storeByte(a, v);
        costValid = false;
    }
    ++pc;
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;
  }

  h_beq:
    taken = r[o->rs1] == r[o->rs2];
    goto h_branch;
  h_bne:
    taken = r[o->rs1] != r[o->rs2];
    goto h_branch;
  h_blt:
    taken = static_cast<SWord>(r[o->rs1]) <
            static_cast<SWord>(r[o->rs2]);
    goto h_branch;
  h_bge:
    taken = static_cast<SWord>(r[o->rs1]) >=
            static_cast<SWord>(r[o->rs2]);
    goto h_branch;
  h_bltu:
    taken = r[o->rs1] < r[o->rs2];
    goto h_branch;
  h_bgeu:
    taken = r[o->rs1] >= r[o->rs2];
    goto h_branch;
  h_branch: {
    Cycles cyc = o->cycles;
    if (taken) {
        pc = static_cast<uint32_t>(o->imm);
        cyc += o->takenExtra;
    } else {
        ++pc;
    }
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(cyc);
    policyAfterStep<M>();
    goto top;
  }

  h_jmp:
    pc = static_cast<uint32_t>(o->imm);
    goto h_control_retire;
  h_jal:
    if (o->rd != kRegZero)
        r[o->rd] = pc + 1;
    pc = static_cast<uint32_t>(o->imm);
    goto h_control_retire;
  h_jr:
    pc = r[o->rs1] + static_cast<uint32_t>(o->imm);
    goto h_control_retire;
  h_control_retire:
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;

  h_halt:
    // Same order as Cpu::step(): record the halt (with the retiring
    // instruction's 1-based instret), retire without advancing the
    // PC, account the cycle, then take the final backup. Either of
    // the last two can throw; a restore clears _halted and re-runs
    // to the HALT.
    cpu._halted = true;
    if (cpu.tracer)
        cpu.tracer->record(EventKind::CpuHalt, cpu._instret + 1);
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    s.requestBackup(BackupReason::Final);
    return kSessionCompleted;

  h_task:
    // The port call runs before retire (a backup taken inside the
    // task boundary snapshots the TASK's own PC, as in Cpu::step()).
    port.taskBoundary();
    costValid = false;
    ++pc;
    cpu._pc = pc;
    ++cpu._instret;
    chargeCycles(o->cycles);
    policyAfterStep<M>();
    goto top;

#if !NVMR_CGOTO
  dispatch_switch:
    if (o->kind < kFirstNonFusible)
        goto h_alu;
    switch (o->kind) {
      case XOp::Ld: goto h_ld;
      case XOp::Ldb: goto h_ldb;
      case XOp::St: goto h_st;
      case XOp::Stb: goto h_stb;
      case XOp::Beq: goto h_beq;
      case XOp::Bne: goto h_bne;
      case XOp::Blt: goto h_blt;
      case XOp::Bge: goto h_bge;
      case XOp::Bltu: goto h_bltu;
      case XOp::Bgeu: goto h_bgeu;
      case XOp::Jmp: goto h_jmp;
      case XOp::Jal: goto h_jal;
      case XOp::Jr: goto h_jr;
      case XOp::Halt: goto h_halt;
      case XOp::Task: goto h_task;
      default: panic("bad decoded op at pc=", pc);
    }
#endif

#undef NVMR_DISPATCH
#undef NVMR_CGOTO
}

template <int M>
bool
ThreadedEngine::mainLoop()
{
    // One powered session at a time; a PowerFailure unwinds here,
    // is handled, and execution resumes in a fresh session.
    unsigned cancel_check = 0;
    while (s.totalCycles <= s.opts.maxCycles) {
        try {
            return session<M>(cancel_check) == kSessionCompleted;
        } catch (PowerFailure &) {
            costValid = false;
            s.handlePowerFailure();
            if (s.totalCycles > s.opts.maxCycles)
                return false;
        }
    }
    return false;
}

bool
ThreadedEngine::run()
{
    image = decodedProgram(s.program);
    fwdNjPerCycle = s.cfg.tech.cpuCycleNj + s.cfg.tech.leakNjPerCycle;
    mtNjPerCycle = s.cfg.tech.mtCacheLeakNjPerCycle;
    policyHibernates = s.policy.hibernateAfterBackup();

    const PolicyFastPath fp = s.policy.fastPath();
    margin = fp.margin;
    slackNj = fp.slackNj;
    period = fp.period;

    switch (fp.mode) {
      case PolicyFastPath::Mode::EnergyThreshold:
        return mainLoop<kPolEnergy>();
      case PolicyFastPath::Mode::CyclePeriod:
        return mainLoop<kPolPeriod>();
      case PolicyFastPath::Mode::None:
        return mainLoop<kPolNone>();
      default:
        return mainLoop<kPolGeneric>();
    }
}

} // namespace nvmr

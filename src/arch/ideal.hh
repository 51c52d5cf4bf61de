/**
 * @file
 * The "ideal architecture" of Table 3: idempotency violations are
 * detected and counted, but never force a backup (backups happen only
 * when the policy asks). Safe only under a perfect JIT policy, which
 * is exactly how the paper uses it to characterize per-benchmark
 * violation counts.
 */

#ifndef NVMR_ARCH_IDEAL_HH
#define NVMR_ARCH_IDEAL_HH

#include "arch/arch.hh"

namespace nvmr
{

/** Violation-counting architecture (no structural-hazard backups). */
class IdealArch : public DominanceArch
{
  public:
    IdealArch(const SystemConfig &cfg, Nvm &nvm, EnergySink &sink);

    const char *name() const override { return "ideal"; }

    void performBackup(const CpuSnapshot &snap,
                       BackupReason reason) override;
    NanoJoules backupCostNowNj() const override;

  protected:
    void fetchBlock(Addr block_addr, Word *out) override;
    void violatingWriteback(CacheLine &line) override;
};

} // namespace nvmr

#endif // NVMR_ARCH_IDEAL_HH

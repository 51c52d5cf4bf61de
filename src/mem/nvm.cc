#include "mem/nvm.hh"

#include <algorithm>

#include "common/log.hh"
#include "fault/fault.hh"
#include "obs/trace.hh"

namespace nvmr
{

Nvm::Nvm(uint32_t size_bytes, const TechParams &params, EnergySink &snk)
    : size(size_bytes), tech(params), sink(snk), mem(size_bytes)
{
    fatal_if(size_bytes == 0 || size_bytes % kWordBytes != 0,
             "NVM size must be a positive multiple of the word size");
    uint32_t words = size_bytes / kWordBytes;
    wear.resize((words + kWearChunkWords - 1) / kWearChunkWords);
}

uint32_t &
Nvm::wearSlot(uint32_t idx)
{
    std::unique_ptr<WearChunk> &chunk = wear[idx / kWearChunkWords];
    if (!chunk)
        chunk = std::make_unique<WearChunk>(); // value-initialised: 0
    return (*chunk)[idx % kWearChunkWords];
}

void
Nvm::bumpWear(uint32_t idx, uint32_t n)
{
    uint32_t *count = &wearSlot(idx);
    for (uint32_t i = 0; i < n; ++i, ++count) {
        if (*count == 0)
            wornIdx.push_back(idx + i);
        if (++*count > peakWear)
            peakWear = *count;
    }
}

uint32_t
Nvm::wordIndex(Addr addr) const
{
    panic_if(addr % kWordBytes != 0, "misaligned NVM word access: ",
             addr);
    // 64-bit sum: an address near 2^32 must not wrap past the end.
    panic_if(uint64_t{addr} + kWordBytes > size,
             "NVM access out of range: ", addr);
    return addr / kWordBytes;
}

Word
Nvm::readWord(Addr addr)
{
    sink.chargeWords(1, tech.flashReadCycles, tech.flashReadWordNj,
                     false, &reads);
    Word stored = peekWord(addr);
    if (!faults || !faults->enabled() || !faults->bitErrorsPossible())
        return stored;
    FaultInjector::ReadOutcome out = faults->applyReadFaults(addr,
                                                             stored);
    // Each bounded retry is a full re-read: charged like the first.
    sink.chargeWords(out.retries, tech.flashReadCycles,
                     tech.flashReadWordNj, false, &reads);
    return out.value;
}

void
Nvm::readBlock(Addr addr, Word *out, uint32_t n)
{
    if (faults && faults->enabled() && faults->bitErrorsPossible()) {
        for (uint32_t w = 0; w < n; ++w)
            out[w] = readWord(addr + w * kWordBytes);
        return;
    }
    // Reading first is safe: the charges below cannot touch NVM, and
    // a brown-out among them leaves `reads` where readWord() would.
    mem.readWords(addr, out, n);
    sink.chargeWords(n, tech.flashReadCycles, tech.flashReadWordNj,
                     false, &reads);
}

void
Nvm::writeBlock(Addr addr, const Word *src, uint32_t n)
{
    if (tracer || (faults && faults->enabled())) {
        // Persist points and NvmWrite events interleave with the
        // charges word by word.
        for (uint32_t w = 0; w < n; ++w)
            writeWord(addr + w * kWordBytes, src[w]);
        return;
    }
    uint32_t idx = wordIndex(addr);
    uint64_t before = writes;
    try {
        sink.chargeWords(n, tech.flashWriteCycles, tech.flashWriteWordNj,
                         false, &writes);
    } catch (...) {
        // Brown-out inside word k (k + 1 started): writeWord() would
        // have worn words 0..k and landed words 0..k-1.
        uint32_t started = static_cast<uint32_t>(writes - before);
        bumpWear(idx, started);
        mem.writeWords(addr, src, started - 1);
        throw;
    }
    bumpWear(idx, n);
    mem.writeWords(addr, src, n);
}

void
Nvm::writeWord(Addr addr, Word value)
{
    uint32_t idx = wordIndex(addr);
    // Persist boundary: an injected crash here means this word (and
    // everything after it in a multi-word persist) never landed.
    if (faults && faults->enabled())
        faults->persistPoint();
    ++writes;
    bumpWear(idx, 1);
    sink.chargeWords(1, tech.flashWriteCycles, tech.flashWriteWordNj);
    if (tracer) {
        // Changed-byte mask (bit i = byte i differs): the WAR-freedom
        // checker only cares about bytes a persist actually altered.
        Word old = peekWord(addr);
        uint64_t mask = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            if (((old ^ value) >> (8 * i)) & 0xffu)
                mask |= 1ull << i;
        tracer->record(EventKind::NvmWrite, addr, mask);
    }
    pokeWord(addr, value);
    if (faults && faults->enabled())
        faults->onWordWritten(addr, wearAt(idx));
}

Word
Nvm::inspectWord(Addr addr) const
{
    Word stored = peekWord(addr);
    if (!faults || !faults->enabled())
        return stored;
    return faults->inspectStored(addr, stored);
}

Word
Nvm::peekWord(Addr addr) const
{
    wordIndex(addr); // bounds/alignment check
    return mem.readWord(addr);
}

void
Nvm::pokeWord(Addr addr, Word value)
{
    wordIndex(addr);
    mem.writeWord(addr, value);
}

void
Nvm::pokeByte(Addr addr, uint8_t value)
{
    panic_if(addr >= size, "NVM access out of range: ", addr);
    mem.write8(addr, value);
}

void
Nvm::loadImage(Addr base, const std::vector<uint8_t> &image)
{
    panic_if(base + image.size() > size, "image does not fit in NVM");
    mem.writeBytes(base, image.data(), image.size());
}

uint64_t
Nvm::wearOf(Addr addr) const
{
    panic_if(addr >= size, "NVM wear query out of range: ", addr);
    return wearAt(addr / kWordBytes);
}

uint64_t
Nvm::maxWear() const
{
    return peakWear;
}

uint64_t
Nvm::wearPercentile(double p) const
{
    std::vector<uint32_t> worn;
    worn.reserve(wornIdx.size());
    for (uint32_t i : wornIdx)
        worn.push_back(wearAt(i));
    if (worn.empty())
        return 0;
    std::sort(worn.begin(), worn.end());
    double clamped = std::min(std::max(p, 0.0), 1.0);
    size_t idx = static_cast<size_t>(
        clamped * static_cast<double>(worn.size() - 1) + 0.5);
    return worn[idx];
}

uint64_t
Nvm::wornWords() const
{
    return wornIdx.size();
}

void
Nvm::saveState(StateWriter &w) const
{
    // Wear travels sparsely: (word index, wear) for worn words only.
    // The NVM is megabytes; the worn set is the write footprint.
    w.u64(wornIdx.size());
    w.reserve(wornIdx.size() * 2 * sizeof(uint32_t));
    for (uint32_t i : wornIdx) {
        w.u32(i);
        w.u32(wearAt(i));
    }
    w.u32(peakWear);
    w.u64(writes);
    w.u64(reads);
}

void
Nvm::restoreState(StateReader &r)
{
    // Clear this run's worn words before applying the snapshot's: the
    // two sets need not overlap.
    for (uint32_t i : wornIdx)
        wearSlot(i) = 0;
    wornIdx.clear();
    uint64_t n = r.u64();
    wornIdx.reserve(n);
    for (uint64_t k = 0; k < n; ++k) {
        uint32_t i = r.u32();
        uint32_t wr = r.u32();
        panic_if(i >= size / kWordBytes,
                 "snapshot wear index out of range");
        wornIdx.push_back(i);
        wearSlot(i) = wr;
    }
    peakWear = r.u32();
    writes = r.u64();
    reads = r.u64();
}

void
Nvm::resetStats()
{
    // Clear only the worn words; the rest of the wear table is
    // already zero (megabytes of NVM, a small write footprint).
    for (uint32_t i : wornIdx)
        wearSlot(i) = 0;
    wornIdx.clear();
    peakWear = 0;
    writes = 0;
    reads = 0;
}

} // namespace nvmr

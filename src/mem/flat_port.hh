/**
 * @file
 * Flat, energy-free memory for continuously-powered runs: the golden
 * run (sim/simulator.cc) and the differential checker's oracle
 * (check/oracle.cc). No cache, no NVM model, no cost accounting.
 */

#ifndef NVMR_MEM_FLAT_PORT_HH
#define NVMR_MEM_FLAT_PORT_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "mem/port.hh"

namespace nvmr
{

class FlatPort : public DataPort
{
  public:
    /**
     * Load `image` at address 0 of a memory sized generously past it,
     * so the program can use scratch space above its static data just
     * as the intermittent runs can (they have the whole application
     * region of NVM). `what` names the run in out-of-range panics.
     */
    FlatPort(const std::vector<uint8_t> &image, const char *what_)
        : mem(std::max<size_t>(image.size() + 4096, 65536), 0),
          what(what_)
    {
        std::copy(image.begin(), image.end(), mem.begin());
    }

    Word
    loadWord(Addr addr) override
    {
        check(addr, kWordBytes);
        Word w = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            w |= static_cast<Word>(mem[addr + i]) << (8 * i);
        return w;
    }

    void
    storeWord(Addr addr, Word value) override
    {
        check(addr, kWordBytes);
        for (unsigned i = 0; i < kWordBytes; ++i)
            mem[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    }

    uint8_t
    loadByte(Addr addr) override
    {
        check(addr, 1);
        return mem[addr];
    }

    void
    storeByte(Addr addr, uint8_t value) override
    {
        check(addr, 1);
        mem[addr] = value;
    }

    std::vector<uint8_t> takeBytes() { return std::move(mem); }

  private:
    std::vector<uint8_t> mem;
    const char *what;

    void
    check(Addr addr, uint32_t n) const
    {
        // 64-bit sum: an address near 2^32 must not wrap past the end.
        panic_if(uint64_t{addr} + n > mem.size(), what,
                 " access out of range: ", addr);
    }
};

} // namespace nvmr

#endif // NVMR_MEM_FLAT_PORT_HH

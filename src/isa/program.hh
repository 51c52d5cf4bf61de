/**
 * @file
 * A loaded program image: decoded text section plus the initial
 * contents of the NVM data segment.
 */

#ifndef NVMR_ISA_PROGRAM_HH
#define NVMR_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace nvmr
{

struct DecodedProgram; // cpu/decoded.hh

/**
 * A lazily installed, immutable, shared value: the first installer
 * wins and every later reader gets the installed object, which stays
 * valid for as long as a reader holds it. A mutex guards the pointer
 * rather than std::atomic<std::shared_ptr>: libstdc++ 12's load()
 * releases that type's internal lock with relaxed order, so a load
 * racing a compare_exchange is a data race (ThreadSanitizer reports
 * it).
 */
template <typename T>
class LazySlot
{
  public:
    std::shared_ptr<const T>
    get() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return value;
    }

    /** Install `fresh` unless a value is already installed; return
     *  whichever value the slot holds afterwards. */
    std::shared_ptr<const T>
    install(std::shared_ptr<const T> fresh)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!value)
            value = std::move(fresh);
        return value;
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu);
        value.reset();
    }

  private:
    mutable std::mutex mu;
    std::shared_ptr<const T> value;
};

/**
 * An assembled program. The data image is loaded into the application
 * region of NVM (starting at address 0) before execution; the text
 * section lives in instruction flash and is addressed by instruction
 * index.
 */
class Program
{
  public:
    Program() = default;

    /** Copies and moves carry the sections but never the cache slots
     *  (decoded ops, golden image): a copy may be mutated afterwards
     *  (the ddmin shrinker), so it re-derives both on first use. */
    Program(const Program &other);
    Program &operator=(const Program &other);
    Program(Program &&other) noexcept;
    Program &operator=(Program &&other) noexcept;

    /** Assembled name, for diagnostics and result tables. */
    std::string name;

    /** Decoded instructions; PC is an index into this vector. */
    std::vector<Instruction> text;

    /** Initial bytes of the data segment (NVM address 0 upward). */
    std::vector<uint8_t> data;

    /** Label name -> value (byte address or instruction index). */
    std::map<std::string, uint32_t> labels;

    /** Entry point (instruction index of label `main`, or 0). */
    uint32_t entry = 0;

    /** Byte size of the data segment. */
    uint32_t dataSize() const { return static_cast<uint32_t>(data.size()); }

    /** Look up a label or die; used by tests and golden models. */
    uint32_t labelOf(const std::string &label_name) const;

    /** Read an initial data word (little-endian); for tests. */
    Word initialWord(Addr addr) const;

    /** Drop the cached decoded-op and golden images. Must be called
     *  after any in-place mutation of `text` or `data` once the
     *  program has been simulated. */
    void invalidateCaches() const
    {
        _decoded.reset();
        _golden.reset();
    }

  private:
    /** Lazily-installed decoded-op image, shared by every simulation
     *  of this Program (populated by nvmr::decodedProgram). */
    friend std::shared_ptr<const DecodedProgram>
    decodedProgram(const Program &prog);

    mutable LazySlot<DecodedProgram> _decoded;

    /** Lazily-installed golden image: the final data segment of the
     *  continuous run, shared by every validated simulation of this
     *  Program (populated by nvmr::goldenFor, sim/simulator.hh). */
    friend std::shared_ptr<const std::vector<uint8_t>>
    goldenFor(const Program &prog);

    mutable LazySlot<std::vector<uint8_t>> _golden;
};

} // namespace nvmr

#endif // NVMR_ISA_PROGRAM_HH

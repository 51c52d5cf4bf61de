/**
 * @file
 * Flat byte-blob serialization for machine snapshots. Every component
 * that participates in fork/restore appends its dynamic state to a
 * StateWriter at capture and consumes it back from a StateReader at
 * restore, in the same order. The format is process-private (never
 * written to disk), so there is no versioning or endian handling --
 * just bounds-checked, trivially-copyable chunks.
 */

#ifndef NVMR_SNAPSHOT_STATE_HH
#define NVMR_SNAPSHOT_STATE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace nvmr
{

/** Append-only serializer backing one MachineSnapshot blob. */
class StateWriter
{
  public:
    void
    bytes(const void *src, size_t n)
    {
        if (len + n > buf.size())
            grow(n);
        std::memcpy(buf.data() + len, src, n);
        len += n;
    }

    /** Make room for `n` more bytes up front (a caller about to write
     *  a long run of small fields). */
    void
    reserve(size_t n)
    {
        if (len + n > buf.size())
            grow(n);
    }

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot pod() needs a trivially copyable type");
        bytes(&v, sizeof(T));
    }

    void u8(uint8_t v) { pod(v); }
    void u32(uint32_t v) { pod(v); }
    void u64(uint64_t v) { pod(v); }
    void f64(double v) { pod(v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Vector of trivially copyable elements, length-prefixed. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot vec() needs trivially copyable elements");
        u64(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    std::vector<uint8_t>
    take()
    {
        buf.resize(len);
        len = 0;
        return std::move(buf);
    }

  private:
    /** The blob's bytes are buf[0, len); buf grows geometrically ahead
     *  of them, so a field costs a bounds compare and a memcpy. */
    std::vector<uint8_t> buf;
    size_t len = 0;

    void
    grow(size_t n)
    {
        buf.resize(std::max(len + n, 2 * buf.size() + 4096));
    }
};

/** Bounds-checked reader over a StateWriter blob. */
class StateReader
{
  public:
    explicit StateReader(const std::vector<uint8_t> &blob)
        : cur(blob.data()), end(blob.data() + blob.size())
    {}

    void
    bytes(void *dst, size_t n)
    {
        panic_if(static_cast<size_t>(end - cur) < n,
                 "snapshot blob underrun: need ", n, " bytes, have ",
                 end - cur);
        std::memcpy(dst, cur, n);
        cur += n;
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot pod() needs a trivially copyable type");
        T v;
        bytes(&v, sizeof(T));
        return v;
    }

    uint8_t u8() { return pod<uint8_t>(); }
    uint32_t u32() { return pod<uint32_t>(); }
    uint64_t u64() { return pod<uint64_t>(); }
    double f64() { return pod<double>(); }
    bool boolean() { return u8() != 0; }

    std::string
    str()
    {
        uint64_t n = u64();
        std::string s(n, '\0');
        if (n)
            bytes(s.data(), n);
        return s;
    }

    template <typename T>
    std::vector<T>
    vec()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "snapshot vec() needs trivially copyable elements");
        uint64_t n = u64();
        std::vector<T> v(n);
        if (n)
            bytes(v.data(), n * sizeof(T));
        return v;
    }

    bool exhausted() const { return cur == end; }

  private:
    const uint8_t *cur;
    const uint8_t *end;
};

} // namespace nvmr

#endif // NVMR_SNAPSHOT_STATE_HH

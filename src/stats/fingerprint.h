/**
 * @file
 * Streaming fingerprint hasher for stable model identities.
 *
 * The campaign artifact store (core/artifact_store.h) keys persisted
 * simulation results by a fingerprint of *everything that determines
 * the result*: the workload model, the machine model and the
 * simulation window.  The hash therefore has to be stable across
 * processes, platforms and rebuilds — no std::hash (unspecified and
 * free to differ between libstdc++ versions), no pointer values, no
 * padding bytes.  This hasher feeds explicitly typed fields, in a
 * fixed declaration order, through 64-bit FNV-1a:
 *
 *  - integers are decomposed into 8 little-endian bytes regardless of
 *    host endianness;
 *  - doubles contribute their IEEE-754 bit pattern (so any calibration
 *    change, however small, changes the fingerprint);
 *  - strings are length-prefixed so field boundaries cannot alias
 *    ("ab" + "c" never hashes like "a" + "bc").
 *
 * Model types expose `hashInto(Fingerprinter &)` hooks that feed
 * their fields; top-level fingerprint() helpers combine the hooks
 * with a type tag and return the 64-bit digest.
 */

#ifndef SPECLENS_STATS_FINGERPRINT_H
#define SPECLENS_STATS_FINGERPRINT_H

#include <cstdint>
#include <cstring>
#include <string>

namespace speclens {
namespace stats {

/** Streaming 64-bit FNV-1a over explicitly typed fields. */
class Fingerprinter
{
  public:
    /** Feed one raw byte. */
    void
    byte(unsigned char b)
    {
        hash_ ^= static_cast<std::uint64_t>(b);
        hash_ *= 1099511628211ull; // FNV-1a 64-bit prime.
    }

    /** Feed an unsigned integer as 8 little-endian bytes. */
    void
    u64(std::uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            byte(static_cast<unsigned char>((value >> shift) & 0xff));
    }

    /** Feed a boolean as one byte. */
    void boolean(bool value) { byte(value ? 1 : 0); }

    /** Feed a double as its IEEE-754 bit pattern. */
    void
    f64(double value)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value),
                      "double must be 64-bit IEEE-754");
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    /** Feed a length-prefixed string. */
    void
    str(const std::string &value)
    {
        u64(value.size());
        for (char c : value)
            byte(static_cast<unsigned char>(c));
    }

    /**
     * Feed a domain-separation tag.  Identical to str(), named so call
     * sites read as "this is a type/version marker, not data".
     */
    void tag(const char *label) { str(std::string(label)); }

    /** Current digest. */
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull; // FNV offset basis.
};

/**
 * Write @p value as 16 lower-case hex digits to @p out (no
 * terminator), one table lookup per digit.
 */
inline void
writeHex16(std::uint64_t value, char *out)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    for (int i = 15; i >= 0; --i) {
        out[i] = kDigits[value & 0xf];
        value >>= 4;
    }
}

/**
 * @p value as 16 lower-case hex digits: the one rendering of a 64-bit
 * fingerprint, used for store entry names, manifests, BENCH files and
 * the audit report.
 */
inline std::string
hex16(std::uint64_t value)
{
    std::string out(16, '0');
    writeHex16(value, out.data());
    return out;
}

} // namespace stats
} // namespace speclens

#endif // SPECLENS_STATS_FINGERPRINT_H

/**
 * @file
 * The one JSON reader — a small RFC 8259 document parser — and the one
 * string quoter every JSON writer shares.
 *
 * Every JSON input SpecLens reads goes through parseJson(): daemon
 * request/response frames, BENCH_<pr>.json trajectory artifacts and
 * the store's run manifest.  Numbers keep their lexeme, so a caller
 * can demand an exact unsigned 64-bit integer (no sign, fraction,
 * exponent or overflow) instead of a rounded double.  A `\u00XX`
 * escape decodes to that single byte, which is the contract of
 * jsonQuote() (it escapes raw control bytes that way), so every byte
 * string round-trips; higher code points decode to UTF-8.  Nesting
 * deeper than 64 levels is rejected, so hostile input cannot exhaust
 * the stack.
 */

#ifndef SPECLENS_OBS_JSON_H
#define SPECLENS_OBS_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace speclens {
namespace obs {

/** One parsed JSON value. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool flag = false; //!< Bool value.
    std::string text;  //!< String contents, or a number's lexeme.
    std::vector<JsonValue> items;  //!< Array elements / member values.
    std::vector<std::string> keys; //!< Object member names (parallel).

    /**
     * The value at dotted @p path ("campaign.fingerprint": member
     * "fingerprint" of member "campaign"); "" names this value.  Null
     * when a step is missing or not an object.  A repeated key
     * resolves to its last occurrence.
     */
    const JsonValue *find(std::string_view path) const;

    /** Number at @p path as a double; false when absent or no number. */
    bool number(std::string_view path, double &out) const;

    /** Number at @p path that is exactly a u64; false otherwise. */
    bool u64(std::string_view path, std::uint64_t &out) const;

    /** String at @p path; false when absent or not a string. */
    bool string(std::string_view path, std::string &out) const;

    /** Bool at @p path; false when absent or not a bool. */
    bool boolean(std::string_view path, bool &out) const;

    /** True when @p path holds a 16-digit lower-case hex string. */
    bool hex16(std::string_view path) const;
};

/** @p text as one complete JSON document; nullopt when malformed. */
std::optional<JsonValue> parseJson(std::string_view text);

/** A JSON file as read back from disk. */
struct JsonFile
{
    bool present = false;         //!< The file exists and was read.
    std::size_t bytes = 0;        //!< Its size.
    std::optional<JsonValue> doc; //!< Null when absent or malformed.
};

/** Read and parse the file at @p path. */
JsonFile readJsonFile(const std::string &path);

/**
 * @p text as a JSON string literal: `"` and `\` backslash-escaped,
 * bytes below 0x20 as `\u00XX`, every other byte verbatim.
 */
std::string jsonQuote(std::string_view text);

} // namespace obs
} // namespace speclens

#endif // SPECLENS_OBS_JSON_H

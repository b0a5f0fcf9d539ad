/**
 * @file
 * Strict numeric option parsing shared by the CLI and the serve
 * loadtest.
 *
 * Command-line numbers used to go through strtoull/atoi, both of which
 * fail silently: "8x" parses as 8, "-1" wraps to a huge unsigned
 * value, and overflow saturates without a word.  A typo'd `--jobs`
 * or `--seed-salt` would then quietly run a different campaign than
 * the one asked for.  parseUnsigned() is built on std::from_chars and
 * rejects all of that explicitly, so every caller can exit 1 with a
 * message naming the defect instead of computing on garbage.
 * numericFlagValue()/stringFlagValue() are the one argv reader both
 * command lines use for a flag's value.
 */

#ifndef SPECLENS_CORE_OPTION_PARSE_H
#define SPECLENS_CORE_OPTION_PARSE_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace speclens {
namespace core {

/** Outcome of one strict unsigned parse. */
enum class ParseStatus {
    Ok,       //!< Whole input consumed, value in range.
    Empty,    //!< Input was empty.
    Signed,   //!< Leading '+' or '-' (unsigned options take neither).
    BadDigit, //!< Input does not start with a decimal digit.
    Trailing, //!< Digits followed by junk ("8x", "10 ").
    Overflow, //!< Value exceeds uint64_t.
};

/**
 * Parse @p text as a strict base-10 unsigned integer into @p out.
 * The whole input must be digits: no sign, no whitespace, no suffix.
 * @p out is written only on Ok.
 */
inline ParseStatus
parseUnsigned(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return ParseStatus::Empty;
    if (text.front() == '+' || text.front() == '-')
        return ParseStatus::Signed;

    std::uint64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value, 10);
    if (ec == std::errc::result_out_of_range)
        return ParseStatus::Overflow;
    if (ec != std::errc())
        return ParseStatus::BadDigit;
    if (ptr != text.data() + text.size())
        return ParseStatus::Trailing;
    out = value;
    return ParseStatus::Ok;
}

/** Human-readable description of a parse failure. */
inline std::string
parseStatusDetail(ParseStatus status)
{
    switch (status) {
      case ParseStatus::Ok: return "ok";
      case ParseStatus::Empty: return "empty value";
      case ParseStatus::Signed:
          return "sign not allowed (value must be a plain non-negative "
                 "integer)";
      case ParseStatus::BadDigit: return "not a decimal number";
      case ParseStatus::Trailing: return "trailing characters after number";
      case ParseStatus::Overflow: return "value out of range";
    }
    return "unknown";
}

/**
 * Value of a numeric flag: @p argv[i + 1], advanced past.  Exits 1
 * with a diagnostic when the value is missing, non-numeric, signed,
 * has trailing garbage, or overflows.
 */
inline std::uint64_t
numericFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(1);
    }
    const char *text = argv[++i];
    std::uint64_t value = 0;
    ParseStatus status = parseUnsigned(text, value);
    if (status != ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s': %s\n",
                     flag, text, parseStatusDetail(status).c_str());
        std::exit(1);
    }
    return value;
}

/**
 * Value of a string flag: @p argv[i + 1], advanced past.  Exits 1
 * with a diagnostic when the value is missing.
 */
inline const char *
stringFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(1);
    }
    return argv[++i];
}

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_OPTION_PARSE_H

/**
 * @file
 * CSV export implementation.
 */

#include "csv_export.h"

#include <charconv>
#include <stdexcept>

namespace speclens {
namespace core {

namespace {

/**
 * Append "," and @p value as `out << value` writes it on a
 * default-formatted stream: printf's %.6g, which std::to_chars with
 * chars_format::general and precision 6 reproduces exactly.
 */
void
appendField(std::string &row, double value)
{
    char digits[32]; // "-1.23457e+308" at most
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value,
                                   std::chars_format::general, 6);
    (void)ec; // cannot overflow: %.6g is at most 13 characters
    row += ',';
    row.append(digits, end);
}

} // namespace

std::string
csvQuote(const std::string &field)
{
    bool needs_quotes = field.find_first_of(",\"\n\r") !=
                        std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeCsv(std::ostream &out, const std::vector<std::string> &labels,
         const std::vector<std::string> &feature_names,
         const stats::Matrix &features)
{
    if (labels.size() != features.rows())
        throw std::invalid_argument("writeCsv: label count");
    if (feature_names.size() != features.cols())
        throw std::invalid_argument("writeCsv: feature-name count");

    out << "benchmark";
    for (const std::string &name : feature_names)
        out << "," << csvQuote(name);
    out << "\n";

    std::string row;
    for (std::size_t r = 0; r < features.rows(); ++r) {
        row = csvQuote(labels[r]);
        for (std::size_t c = 0; c < features.cols(); ++c)
            appendField(row, features(r, c));
        row += '\n';
        out << row;
    }
}

} // namespace core
} // namespace speclens

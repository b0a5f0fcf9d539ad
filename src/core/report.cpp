/**
 * @file
 * Text-rendering helpers.
 */

#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace speclens {
namespace core {

void
appendf(std::string &out, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list sizing;
    va_copy(sizing, args);
    int length = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    if (length > 0) {
        std::size_t old_size = out.size();
        out.resize(old_size + static_cast<std::size_t>(length) + 1);
        std::vsnprintf(out.data() + old_size,
                       static_cast<std::size_t>(length) + 1, fmt, args);
        out.resize(old_size + static_cast<std::size_t>(length));
    }
    va_end(args);
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        throw std::invalid_argument("TextTable: no headers");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        throw std::invalid_argument("TextTable::addRow: column count");
    rows_.push_back(std::move(cells));
}

std::string
TextTable::num(double value, int precision)
{
    char digits[64];
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value,
                                   std::chars_format::fixed, precision);
    if (ec == std::errc())
        return std::string(digits, end);
    // Beyond ~1e50: up to 309 integer digits, sign, point, decimals.
    const int width = std::numeric_limits<double>::max_exponent10 + 3 +
                      std::max(precision, 6);
    std::string wide(static_cast<std::size_t>(width), '\0');
    end = std::to_chars(wide.data(), wide.data() + wide.size(), value,
                        std::chars_format::fixed, precision)
              .ptr;
    wide.resize(static_cast<std::size_t>(end - wide.data()));
    return wide;
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto render_row = [&widths](const std::vector<std::string> &cells) {
        std::ostringstream os;
        os << "|";
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << " " << cells[c]
               << std::string(widths[c] - cells[c].size(), ' ') << " |";
        }
        os << "\n";
        return os.str();
    };

    std::ostringstream os;
    os << render_row(headers_);
    os << "|";
    for (std::size_t c = 0; c < widths.size(); ++c)
        os << std::string(widths[c] + 2, '-') << "|";
    os << "\n";
    for (const auto &row : rows_)
        os << render_row(row);
    return os.str();
}

std::string
renderScatter(const std::vector<ScatterPoint> &points,
              const std::string &x_label, const std::string &y_label,
              int width, int height)
{
    if (points.empty())
        return "(no points)\n";

    double min_x = points[0].x, max_x = points[0].x;
    double min_y = points[0].y, max_y = points[0].y;
    for (const ScatterPoint &p : points) {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
    }
    double span_x = max_x - min_x;
    double span_y = max_y - min_y;
    if (span_x <= 0.0)
        span_x = 1.0;
    if (span_y <= 0.0)
        span_y = 1.0;

    std::vector<std::string> grid(
        static_cast<std::size_t>(height),
        std::string(static_cast<std::size_t>(width), ' '));
    for (const ScatterPoint &p : points) {
        int col = static_cast<int>(std::lround(
            (p.x - min_x) / span_x * (width - 1)));
        int row = static_cast<int>(std::lround(
            (p.y - min_y) / span_y * (height - 1)));
        // Flip vertically: larger y at the top.
        grid[static_cast<std::size_t>(height - 1 - row)]
            [static_cast<std::size_t>(col)] = p.glyph;
    }

    std::ostringstream os;
    os << "  " << y_label << " ^\n";
    for (const std::string &line : grid)
        os << "  |" << line << "|\n";
    os << "  +" << std::string(static_cast<std::size_t>(width), '-')
       << "> " << x_label << "\n";
    os << "  x: [" << TextTable::num(min_x) << ", "
       << TextTable::num(max_x) << "]  y: [" << TextTable::num(min_y)
       << ", " << TextTable::num(max_y) << "]\n";
    return os.str();
}

std::string
renderStackedBars(const std::vector<std::string> &row_labels,
                  const std::vector<std::vector<double>> &segments,
                  const std::vector<std::string> &segment_names,
                  int width)
{
    if (row_labels.size() != segments.size())
        throw std::invalid_argument("renderStackedBars: row count");

    static const std::string glyphs = "#=+:*%@~o";

    double max_total = 0.0;
    for (const auto &row : segments) {
        double total = 0.0;
        for (double v : row)
            total += v;
        max_total = std::max(max_total, total);
    }
    if (max_total <= 0.0)
        max_total = 1.0;

    std::size_t label_width = 0;
    for (const std::string &label : row_labels)
        label_width = std::max(label_width, label.size());

    std::ostringstream os;
    for (std::size_t r = 0; r < segments.size(); ++r) {
        os << row_labels[r]
           << std::string(label_width - row_labels[r].size(), ' ')
           << " |";
        double total = 0.0;
        for (std::size_t s = 0; s < segments[r].size(); ++s) {
            int chars = static_cast<int>(std::lround(
                segments[r][s] / max_total * width));
            os << std::string(static_cast<std::size_t>(chars),
                              glyphs[s % glyphs.size()]);
            total += segments[r][s];
        }
        os << "  (" << TextTable::num(total) << ")\n";
    }
    os << "legend:";
    for (std::size_t s = 0; s < segment_names.size(); ++s)
        os << " " << glyphs[s % glyphs.size()] << "=" << segment_names[s];
    os << "\n";
    return os.str();
}

} // namespace core
} // namespace speclens

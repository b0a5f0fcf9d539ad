/**
 * @file
 * Plain-text rendering of tables, scatter plots and stacked bars.
 *
 * The reproductions (reproductions.h) regenerate every table and figure
 * of the paper as text; these helpers give them a consistent look:
 * printf-style appends, fixed-width tables
 * with separators, ASCII scatter plots with point labels (for the PC
 * workload-space figures) and horizontal stacked bars (for the CPI
 * stacks of Fig. 1).
 */

#ifndef SPECLENS_CORE_REPORT_H
#define SPECLENS_CORE_REPORT_H

#include <string>
#include <vector>

namespace speclens {
namespace core {

/** printf-style append of any length to @p out. */
[[gnu::format(printf, 2, 3)]] void appendf(std::string &out,
                                           const char *fmt, ...);

/** Fixed-width text table builder. */
class TextTable
{
  public:
    /** @param headers Column headers (fixes the column count). */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must match the column count. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double value, int precision = 2);

    /** Render with column separators and a header rule. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** One labelled point of a scatter plot. */
struct ScatterPoint
{
    double x = 0.0;
    double y = 0.0;
    std::string label;
    char glyph = 'o'; //!< Marker drawn at the point ('o', 'x', ...).
};

/**
 * ASCII scatter plot on a width x height character grid, with axis
 * ranges annotated and a legend mapping glyphs to the point labels
 * drawn at the margin.
 */
std::string renderScatter(const std::vector<ScatterPoint> &points,
                          const std::string &x_label,
                          const std::string &y_label, int width = 72,
                          int height = 24);

/**
 * Horizontal stacked bar chart: one row per entry, segments scaled to
 * @p max_total across @p width characters.  Segment glyphs cycle
 * through the provided alphabet; a legend line maps glyphs to
 * component names.
 */
std::string
renderStackedBars(const std::vector<std::string> &row_labels,
                  const std::vector<std::vector<double>> &segments,
                  const std::vector<std::string> &segment_names,
                  int width = 60);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_REPORT_H

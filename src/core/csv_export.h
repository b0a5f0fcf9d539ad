/**
 * @file
 * CSV serialisation of labelled feature matrices.
 *
 * Characterization studies like the paper's are usually post-processed
 * in R / Python / JMP (the original authors used commercial statistics
 * tooling); these helpers write the measurement campaign in a form
 * those tools ingest directly.
 *
 * Number format: every value is written as `out << value` writes it on
 * a default-formatted stream, i.e. printf's `%.6g` ("0.125", "1e+21",
 * "inf", "-nan"), whatever format flags the stream carries.  The writers
 * produce it with std::to_chars (chars_format::general, precision 6),
 * which the standard defines to match printf exactly.
 */

#ifndef SPECLENS_CORE_CSV_EXPORT_H
#define SPECLENS_CORE_CSV_EXPORT_H

#include <ostream>
#include <string>
#include <vector>

#include "stats/matrix.h"

namespace speclens {
namespace core {

/**
 * Quote a CSV field per RFC 4180 (quotes applied only when needed:
 * commas, quotes or newlines present).
 */
std::string csvQuote(const std::string &field);

/**
 * Write a labelled matrix as CSV: a header of feature names preceded
 * by a "benchmark" column, then one row per observation.
 *
 * @param out Destination stream.
 * @param labels Row labels (observation names).
 * @param feature_names Column names; must match matrix columns.
 * @param features The matrix; rows must match labels.
 * @throws std::invalid_argument on dimension mismatch.
 */
void writeCsv(std::ostream &out, const std::vector<std::string> &labels,
              const std::vector<std::string> &feature_names,
              const stats::Matrix &features);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_CSV_EXPORT_H

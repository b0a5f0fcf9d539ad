/**
 * @file
 * Tests for CSV export and the markdown suite report.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "core/csv_export.h"
#include "core/report.h"
#include "core/suite_report.h"
#include "suites/machines.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {
namespace {

TEST(CsvQuoteTest, PlainFieldsUntouched)
{
    EXPECT_EQ(csvQuote("505.mcf_r"), "505.mcf_r");
    EXPECT_EQ(csvQuote("skylake.l1d_mpki"), "skylake.l1d_mpki");
}

TEST(CsvQuoteTest, SpecialCharactersQuoted)
{
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvExportTest, RoundTripStructure)
{
    stats::Matrix m{{1.5, 2.0}, {3.0, 4.5}};
    std::ostringstream out;
    writeCsv(out, {"alpha", "beta"}, {"x", "metric,odd"}, m);

    std::string csv = out.str();
    EXPECT_EQ(csv, "benchmark,x,\"metric,odd\"\n"
                   "alpha,1.5,2\n"
                   "beta,3,4.5\n");
}

TEST(CsvExportTest, DimensionMismatchThrows)
{
    stats::Matrix m(2, 2);
    std::ostringstream out;
    EXPECT_THROW(writeCsv(out, {"only-one"}, {"a", "b"}, m),
                 std::invalid_argument);
    EXPECT_THROW(writeCsv(out, {"a", "b"}, {"one-name"}, m),
                 std::invalid_argument);
}

TEST(CsvExportTest, FullCampaignExports)
{
    core::CharacterizationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;
    Characterizer characterizer(suites::profilingMachines(), config);
    auto suite = suites::spec2017SpeedInt();
    stats::Matrix features = characterizer.featureMatrix(suite);

    std::ostringstream out;
    writeCsv(out, suites::benchmarkNames(suite),
             characterizer.featureNames(), features);
    std::string csv = out.str();

    // 1 header + 10 data rows; 141 comma-separated columns each.
    std::size_t lines = 0, first_line_commas = 0;
    for (std::size_t i = 0; i < csv.size(); ++i) {
        if (csv[i] == '\n')
            ++lines;
        if (csv[i] == ',' && lines == 0)
            ++first_line_commas;
    }
    EXPECT_EQ(lines, 11u);
    EXPECT_EQ(first_line_commas, 140u);
    EXPECT_NE(csv.find("605.mcf_s"), std::string::npos);
    EXPECT_NE(csv.find("opteron.dram_power"), std::string::npos);
}

// The number formatters promise iostream's bytes without iostreams:
// num() is `std::fixed << setprecision(p)`, the CSV writers a plain
// `out << value`.  The oracle is that stream, over signed zeros,
// rounding ties, huge and tiny magnitudes, a denormal, infinities and
// NaNs.
const std::vector<double> kFormatOracleValues = {
    0.0,
    -0.0,
    1e-7,
    0.125,
    2.5,
    -2.5,
    1e21,
    -123456.789,
    1e300,
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    -std::numeric_limits<double>::quiet_NaN(),
};

TEST(NumberFormatTest, NumMatchesFixedStreamAtEveryPrecision)
{
    for (double value : kFormatOracleValues) {
        for (int precision = 0; precision <= 6; ++precision) {
            std::ostringstream oracle;
            oracle << std::fixed << std::setprecision(precision) << value;
            EXPECT_EQ(TextTable::num(value, precision), oracle.str())
                << "precision " << precision;
        }
    }
}

TEST(NumberFormatTest, CsvWritersMatchDefaultStream)
{
    const std::size_t n = kFormatOracleValues.size();
    stats::Matrix m(1, n);
    std::vector<std::string> names;
    std::ostringstream oracle;
    oracle << "benchmark";
    for (std::size_t c = 0; c < n; ++c) {
        names.push_back("f" + std::to_string(c));
        oracle << "," << names.back();
    }
    oracle << "\nrow";
    for (std::size_t c = 0; c < n; ++c) {
        m(0, c) = kFormatOracleValues[c];
        oracle << "," << kFormatOracleValues[c];
    }
    oracle << "\n";
    // Format flags left on the stream do not leak into the numbers.
    std::ostringstream out;
    out << std::fixed << std::setprecision(2);
    writeCsv(out, {"row"}, names, m);
    EXPECT_EQ(out.str(), oracle.str());
}

TEST(SuiteReportTest, ContainsAllSections)
{
    core::CharacterizationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;
    Characterizer characterizer(suites::profilingMachines(), config);
    auto suite = suites::spec2017SpeedInt();

    SuiteReportOptions options;
    options.title = "test report";
    options.validation_category = suites::Category::SpeedInt;

    std::ostringstream out;
    writeSuiteReport(out, characterizer, suite, options);
    std::string report = out.str();

    EXPECT_NE(report.find("# test report"), std::string::npos);
    EXPECT_NE(report.find("## Characterization"), std::string::npos);
    EXPECT_NE(report.find("## Similarity"), std::string::npos);
    EXPECT_NE(report.find("## Representative subset"),
              std::string::npos);
    EXPECT_NE(report.find("## Score-prediction accuracy"),
              std::string::npos);
    for (const suites::BenchmarkInfo &b : suite)
        EXPECT_NE(report.find(b.name), std::string::npos) << b.name;
}

TEST(SuiteReportTest, ValidationSkippedWithoutCategory)
{
    core::CharacterizationConfig config;
    config.instructions = 15'000;
    config.warmup = 5'000;
    Characterizer characterizer(suites::profilingMachines(), config);
    auto suite = suites::spec2017SpeedInt();

    std::ostringstream out;
    writeSuiteReport(out, characterizer, suite); // default: Other
    EXPECT_EQ(out.str().find("Score-prediction"), std::string::npos);
}

TEST(SuiteReportTest, InputValidation)
{
    core::CharacterizationConfig config;
    Characterizer characterizer(suites::profilingMachines(), config);
    std::ostringstream out;
    EXPECT_THROW(writeSuiteReport(out, characterizer, {}),
                 std::invalid_argument);
    auto suite = suites::spec2017SpeedInt();
    SuiteReportOptions options;
    options.subset_size = 99;
    EXPECT_THROW(
        writeSuiteReport(out, characterizer, suite, options),
        std::invalid_argument);
}

} // namespace
} // namespace core
} // namespace speclens

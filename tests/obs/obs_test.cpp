/**
 * @file
 * Observability-layer tests (ctest label `obs`).
 *
 * Covers the metrics registry (instrument identity, snapshot ordering,
 * exact counts under concurrent mutation), the RAII timing span, both
 * exporters against golden renderings, the JSON reader and its
 * well-formedness check, and the run-manifest renderer/writer.
 *
 * Tests that assert recorded *values* skip themselves when the build
 * was configured with -DSPECLENS_METRICS=OFF (mutation hooks compile
 * to no-ops); structural tests run in both configurations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace speclens {
namespace obs {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("speclens_obs_test_" + name))
        .string();
}

// ====================================================================
// Registry + instruments
// ====================================================================

TEST(Registry, InstrumentsAreCreatedOnceAndStable)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Registry registry;
    Counter &a = registry.counter("x.events");
    Counter &b = registry.counter("x.events");
    EXPECT_EQ(&a, &b);
    Gauge &g1 = registry.gauge("x.ratio");
    Gauge &g2 = registry.gauge("x.ratio");
    EXPECT_EQ(&g1, &g2);
    Timing &t1 = registry.timing("x.time");
    Timing &t2 = registry.timing("x.time");
    EXPECT_EQ(&t1, &t2);

    // Same name, different kind: distinct instruments.
    Snapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.size(), 1u);
    EXPECT_EQ(snapshot.gauges.size(), 1u);
    EXPECT_EQ(snapshot.timings.size(), 1u);
}

TEST(Registry, SnapshotIsSortedByName)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Registry registry;
    registry.counter("zeta");
    registry.counter("alpha");
    registry.counter("mid.dle");
    Snapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.counters.size(), 3u);
    EXPECT_EQ(snapshot.counters[0].first, "alpha");
    EXPECT_EQ(snapshot.counters[1].first, "mid.dle");
    EXPECT_EQ(snapshot.counters[2].first, "zeta");
}

TEST(Registry, GlobalIsASingleton)
{
    EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(Counter, CountsExactlyUnderConcurrency)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Registry registry;
    Counter &counter = registry.counter("concurrent.events");
    Timing &timing = registry.timing("concurrent.time");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter, &timing] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                counter.add();
                timing.record(i % 97);
            }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    TimingStats stats = timing.stats();
    EXPECT_EQ(stats.count, kThreads * kPerThread);
    EXPECT_EQ(stats.min_ns, 0u);
    EXPECT_EQ(stats.max_ns, 96u);
}

TEST(Timing, TracksCountTotalMinMax)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Timing timing;
    TimingStats empty = timing.stats();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.min_ns, 0u); // Not UINT64_MAX before any record.
    EXPECT_EQ(empty.max_ns, 0u);

    timing.record(30);
    timing.record(10);
    timing.record(20);
    TimingStats stats = timing.stats();
    EXPECT_EQ(stats.count, 3u);
    EXPECT_EQ(stats.total_ns, 60u);
    EXPECT_EQ(stats.min_ns, 10u);
    EXPECT_EQ(stats.max_ns, 30u);

    timing.reset();
    EXPECT_EQ(timing.stats().count, 0u);
    EXPECT_EQ(timing.stats().min_ns, 0u);
}

TEST(Gauge, StoresLastWrittenDouble)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Gauge gauge;
    gauge.set(0.25);
    gauge.set(0.875);
    EXPECT_EQ(gauge.value(), 0.875);
}

TEST(Span, RecordsEnclosedScopeOnDestruction)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Timing timing;
    {
        Span span(timing);
    }
    {
        Span span(timing);
    }
    EXPECT_EQ(timing.stats().count, 2u);
}

TEST(MetricsOff, MutationsAreNoOps)
{
    if (kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled in";
    Counter counter;
    counter.add(42);
    EXPECT_EQ(counter.value(), 0u);
    Timing timing;
    timing.record(99);
    EXPECT_EQ(timing.stats().count, 0u);
    Gauge gauge;
    gauge.set(1.0);
    EXPECT_EQ(gauge.value(), 0.0);
}

// ====================================================================
// Exporters (golden renderings)
// ====================================================================

/** A registry with one instrument of each kind, known values. */
Registry &
goldenRegistry()
{
    // Registry is not movable (it owns a mutex): populate in place.
    static Registry registry;
    static const bool populated = [] {
        registry.counter("core.test.events").add(3);
        registry.gauge("core.test.ratio").set(0.5);
        registry.timing("core.test.span").record(10);
        registry.timing("core.test.span").record(20);
        return true;
    }();
    (void)populated;
    return registry;
}

TEST(ExportPrometheus, GoldenRendering)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    const std::string expected =
        "# TYPE speclens_core_test_events_total counter\n"
        "speclens_core_test_events_total 3\n"
        "# TYPE speclens_core_test_ratio gauge\n"
        "speclens_core_test_ratio 0.5\n"
        "# TYPE speclens_core_test_span_count counter\n"
        "speclens_core_test_span_count 2\n"
        "# TYPE speclens_core_test_span_total_ns counter\n"
        "speclens_core_test_span_total_ns 30\n"
        "# TYPE speclens_core_test_span_min_ns gauge\n"
        "speclens_core_test_span_min_ns 10\n"
        "# TYPE speclens_core_test_span_max_ns gauge\n"
        "speclens_core_test_span_max_ns 20\n";
    EXPECT_EQ(renderPrometheus(goldenRegistry().snapshot()), expected);
}

TEST(ExportJson, GoldenRendering)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    const std::string expected = "{\n"
                                 "  \"counters\": {\n"
                                 "    \"core.test.events\": 3\n"
                                 "  },\n"
                                 "  \"gauges\": {\n"
                                 "    \"core.test.ratio\": 0.5\n"
                                 "  },\n"
                                 "  \"timings\": {\n"
                                 "    \"core.test.span\": {\"count\": 2, "
                                 "\"total_ns\": 30, \"min_ns\": 10, "
                                 "\"max_ns\": 20}\n"
                                 "  }\n"
                                 "}\n";
    std::string json = renderJson(goldenRegistry().snapshot());
    EXPECT_EQ(json, expected);
    EXPECT_TRUE(parseJson(json).has_value());
}

TEST(ExportJson, EmptySnapshotIsValidJson)
{
    Snapshot empty;
    std::string json = renderJson(empty);
    EXPECT_TRUE(parseJson(json).has_value());
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"timings\""), std::string::npos);
}

TEST(ExportFormatName, RoundTripAndRejection)
{
    EXPECT_EQ(exportFormatFromName("prom"), ExportFormat::Prometheus);
    EXPECT_EQ(exportFormatFromName("prometheus"),
              ExportFormat::Prometheus);
    EXPECT_EQ(exportFormatFromName("json"), ExportFormat::Json);
    EXPECT_THROW(exportFormatFromName("xml"), std::invalid_argument);
    EXPECT_THROW(exportFormatFromName(""), std::invalid_argument);
}

TEST(WriteMetricsFile, WritesRenderedSnapshot)
{
    const std::string path = tempPath("metrics.prom");
    std::filesystem::remove(path);
    ASSERT_TRUE(
        writeMetricsFile(path, ExportFormat::Prometheus, goldenRegistry()));
    EXPECT_EQ(readFile(path),
              renderPrometheus(goldenRegistry().snapshot()));

    ASSERT_TRUE(
        writeMetricsFile(path, ExportFormat::Json, goldenRegistry()));
    EXPECT_TRUE(parseJson(readFile(path)).has_value());
    std::filesystem::remove(path);
}

TEST(WriteMetricsFile, UnwritablePathReportsFailureSoftly)
{
    EXPECT_FALSE(writeMetricsFile(
        "/proc/speclens_no_such_dir/metrics.json", ExportFormat::Json,
        goldenRegistry()));
}

// ====================================================================
// JSON well-formedness (parseJson accepts exactly the valid documents)
// ====================================================================

TEST(ValidateJson, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(parseJson("{}").has_value());
    EXPECT_TRUE(parseJson("[]").has_value());
    EXPECT_TRUE(
        parseJson("  { \"a\": [1, 2.5, -3e2] }  ").has_value());
    EXPECT_TRUE(
        parseJson("{\"nested\": {\"b\": [true, false, null]}}")
            .has_value());
    EXPECT_TRUE(
        parseJson("\"esc \\\" \\\\ \\n \\u00e9\"").has_value());
    EXPECT_TRUE(parseJson("42").has_value());
    std::string shallow(10, '[');
    shallow += std::string(10, ']');
    EXPECT_TRUE(parseJson(shallow).has_value());
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    EXPECT_FALSE(parseJson("").has_value());
    EXPECT_FALSE(parseJson("{").has_value());
    EXPECT_FALSE(parseJson("{\"a\":}").has_value());
    EXPECT_FALSE(parseJson("[1,]").has_value());
    EXPECT_FALSE(parseJson("{} trailing").has_value());
    EXPECT_FALSE(parseJson("\"unterminated").has_value());
    EXPECT_FALSE(parseJson("\"bad \\q escape\"").has_value());
    EXPECT_FALSE(parseJson("\"raw \n newline\"").has_value());
    EXPECT_FALSE(parseJson("{'single': 1}").has_value());
    EXPECT_FALSE(parseJson("nul").has_value());
}

TEST(ValidateJson, DepthLimitStopsPathologicalNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(parseJson(deep).has_value());
}

// ====================================================================
// JSON reader
// ====================================================================

TEST(JsonReader, EveryByteRoundTripsThroughQuote)
{
    for (int b = 0; b <= 0xff; ++b) {
        std::string text = "a";
        text.push_back(static_cast<char>(b));
        text.push_back('z');
        std::optional<JsonValue> doc = parseJson(jsonQuote(text));
        ASSERT_TRUE(doc.has_value()) << "byte " << b;
        ASSERT_EQ(doc->kind, JsonValue::Kind::String) << "byte " << b;
        EXPECT_EQ(doc->text, text) << "byte " << b;
    }
}

TEST(JsonReader, PathsResolveWithinTheirSection)
{
    std::optional<JsonValue> doc = parseJson(
        "{\"campaign\": {\"runs\": 3}, "
        "\"stats\": {\"fingerprint\": \"ab\", \"ok\": true}}");
    ASSERT_TRUE(doc.has_value());
    std::string text;
    EXPECT_FALSE(doc->string("campaign.fingerprint", text));
    EXPECT_TRUE(doc->string("stats.fingerprint", text));
    EXPECT_EQ(text, "ab");
    bool flag = false;
    EXPECT_TRUE(doc->boolean("stats.ok", flag));
    EXPECT_TRUE(flag);
    EXPECT_FALSE(doc->boolean("stats.fingerprint", flag));
    EXPECT_EQ(doc->find("campaign.runs.deeper"), nullptr);
    EXPECT_EQ(doc->find(""), &*doc);
}

TEST(JsonReader, ExactUnsignedReadsRejectInexactNumbers)
{
    std::uint64_t value = 0;
    for (const char *exact : {"0", "7", "18446744073709551615"}) {
        std::optional<JsonValue> doc = parseJson(exact);
        ASSERT_TRUE(doc.has_value()) << exact;
        EXPECT_TRUE(doc->u64("", value)) << exact;
    }
    EXPECT_EQ(value, 18446744073709551615ull);
    for (const char *inexact :
         {"1.5", "-1", "1e3", "18446744073709551616", "-0"}) {
        std::optional<JsonValue> doc = parseJson(inexact);
        ASSERT_TRUE(doc.has_value()) << inexact;
        EXPECT_FALSE(doc->u64("", value)) << inexact;
        double number = 0.0;
        EXPECT_TRUE(doc->number("", number)) << inexact;
    }
    EXPECT_FALSE(parseJson("01").has_value());
    EXPECT_FALSE(parseJson("1.").has_value());
    EXPECT_FALSE(parseJson("+1").has_value());
}

// ====================================================================
// Run manifest
// ====================================================================

Manifest
sampleManifest()
{
    Manifest manifest;
    manifest.engine_version = 7;
    manifest.config_fingerprint = "00ff00ff00ff00ff";
    manifest.run = {{"store_dir", "/tmp/store"}, {"metrics", "on"}};
    manifest.totals = {{"entries", 301}, {"hits", 301}};
    manifest.rejected = {{"corrupt", 0}, {"orphaned_temp", 2}};
    manifest.metrics.counters.emplace_back("core.store.hits", 301);
    return manifest;
}

TEST(ManifestRender, SchemaV1KeysAndValidJson)
{
    std::string json = renderManifest(sampleManifest());
    EXPECT_TRUE(parseJson(json).has_value());
    for (const char *key :
         {"\"manifest_version\"", "\"engine_version\"",
          "\"config_fingerprint\"", "\"run\"", "\"totals\"",
          "\"rejected\"", "\"metrics\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(json.find("\"manifest_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"engine_version\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"00ff00ff00ff00ff\""), std::string::npos);
    EXPECT_NE(json.find("\"orphaned_temp\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"core.store.hits\": 301"), std::string::npos);
}

TEST(ManifestRender, EscapesStringFields)
{
    Manifest manifest = sampleManifest();
    manifest.run = {{"store_dir", "dir with \"quote\"\nnewline"}};
    std::string json = renderManifest(manifest);
    EXPECT_TRUE(parseJson(json).has_value());
    EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);
    EXPECT_EQ(json.find("\nnewline"), std::string::npos);
}

TEST(ManifestWrite, RoundTripsThroughDisk)
{
    const std::string path = tempPath(kManifestFileName);
    std::filesystem::remove(path);
    ASSERT_TRUE(writeManifest(path, sampleManifest()));
    std::string body = readFile(path);
    EXPECT_EQ(body, renderManifest(sampleManifest()));
    EXPECT_TRUE(parseJson(body).has_value());
    std::filesystem::remove(path);
}

TEST(ManifestWrite, UnwritablePathReportsFailureSoftly)
{
    EXPECT_FALSE(writeManifest(
        "/proc/speclens_no_such_dir/run-manifest.json",
        sampleManifest()));
}

} // namespace
} // namespace obs
} // namespace speclens

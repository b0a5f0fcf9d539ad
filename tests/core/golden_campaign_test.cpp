/**
 * @file
 * The golden campaign: all of CPU2017 on the seven profiling machines
 * at the pinned 150k + 40k window, salt 0, must reproduce its result
 * fingerprints bit for bit, cold and again from a warm store.
 *
 * Any change to the simulation driver, trace generator, structure
 * models or stats stage that moves a single result bit fails here; a
 * deliberate results change must re-pin both values together with a
 * kStoreEngineVersion bump.
 *
 * The stats fingerprint alone was re-pinned (57331f8fe007d3ea, as in
 * BENCH_10.json, -> 93208e520dfa08fc) when fitPca() moved to the
 * smaller-side eigensolve with a canonical component sign: the same
 * eigenvalues up to rounding, exact zeros past the Gram side's n, and
 * loadings that agree with the correlation-side oracle in
 * tests/stats/pca_parity_test.cpp.  No simulation result changed, so
 * the campaign fingerprint and kStoreEngineVersion stay.
 */

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/characterization.h"
#include "core/service_context.h"
#include "stats/distance.h"
#include "stats/fingerprint.h"
#include "stats/pca.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

struct Fingerprints
{
    std::uint64_t campaign = 0;
    std::uint64_t stats = 0;
};

/**
 * Every simulation result in (benchmark, machine) order, then the
 * feature matrix, PCA eigenvalues and pairwise distances over it.
 */
Fingerprints
fingerprint(core::Characterizer &characterizer,
            const std::vector<suites::BenchmarkInfo> &benchmarks)
{
    Fingerprints out;
    stats::Fingerprinter campaign;
    campaign.tag("speclens-campaign-results-v1");
    for (const suites::BenchmarkInfo &b : benchmarks)
        for (std::size_t m = 0; m < characterizer.machines().size(); ++m)
            characterizer.simulation(b, m).hashInto(campaign);
    out.campaign = campaign.value();

    stats::Matrix features = characterizer.featureMatrix(benchmarks);
    stats::PcaResult pca = stats::fitPca(features);
    stats::Matrix distances = stats::pairwiseDistances(pca.scores);
    stats::Fingerprinter fp;
    fp.tag("speclens-stats-results-v1");
    fp.u64(features.rows());
    fp.u64(features.cols());
    for (double v : features.data())
        fp.f64(v);
    for (double v : pca.eigenvalues)
        fp.f64(v);
    for (double v : distances.data())
        fp.f64(v);
    out.stats = fp.value();
    return out;
}

TEST(GoldenCampaign, PinnedWindowColdAndWarmStore)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "speclens_golden_campaign_test";
    std::filesystem::remove_all(dir);

    core::ServiceConfig config;
    config.machines = suites::profilingMachines();
    config.characterization.instructions = 150'000;
    config.characterization.warmup = 40'000;
    config.characterization.seed_salt = 0;
    config.store_dir = dir.string();
    const std::vector<suites::BenchmarkInfo> &benchmarks =
        suites::spec2017();

    {
        core::ServiceContext cold(config);
        core::Characterizer &characterizer =
            cold.characterizerFor(config.machines);
        characterizer.prepare(benchmarks);
        EXPECT_EQ(characterizer.simulationsRun(), 301u);
        Fingerprints fp = fingerprint(characterizer, benchmarks);
        EXPECT_EQ(fp.campaign, 0xd847d360243018d8ull);
        EXPECT_EQ(fp.stats, 0x93208e520dfa08fcull);
    }

    // A second context over the same store replays every pair from disk
    // and reproduces both fingerprints without simulating.
    {
        core::ServiceContext warm(config);
        core::Characterizer &characterizer =
            warm.characterizerFor(config.machines);
        characterizer.prepare(benchmarks);
        EXPECT_EQ(characterizer.simulationsRun(), 0u);
        EXPECT_EQ(warm.store()->counters().computed, 0u);
        Fingerprints fp = fingerprint(characterizer, benchmarks);
        EXPECT_EQ(fp.campaign, 0xd847d360243018d8ull);
        EXPECT_EQ(fp.stats, 0x93208e520dfa08fcull);
    }
    std::filesystem::remove_all(dir);
}

} // namespace

/**
 * @file
 * The calibration preset tables behind buildProfile(), as constexpr
 * data with compile-time validation.
 *
 * Every qualitative knob of the ProfileSpec vocabulary (data-locality
 * class, code pressure, branch quality) expands through one row of
 * these tables.  Keeping the rows constexpr lets static_asserts prove,
 * for every preset at compile time, the model invariants
 * trace::checkWorkloadProfile() checks at runtime (probabilities in
 * range, line-granular footprints, hot code inside the code footprint)
 * and the calibration conventions lint adds (mixture weights summing
 * to one, working sets growing hot to vast): a typo in a calibration
 * row fails the build rather than skewing an analysis.
 */

#ifndef SPECLENS_SUITES_PRESET_TABLES_H
#define SPECLENS_SUITES_PRESET_TABLES_H

#include <cstddef>
#include <cstdint>

#include "suites/profile_presets.h"

namespace speclens {
namespace suites {

/** Number of components in the data working-set mixture. */
inline constexpr std::size_t kWorkingSetCount = 4;

/** One data-locality preset: the hot/mid/big/vast mixture. */
struct DataPresetRow
{
    DataLocality locality;
    double bytes[kWorkingSetCount];
    double weight[kWorkingSetCount];

    /** Per-set multiplier on the spec's streaming share. */
    double seq_scale[kWorkingSetCount];
};

/** One code-pressure preset, including the static branch population. */
struct CodePresetRow
{
    CodePressure pressure;
    double code_bytes;
    double hot_code_bytes;
    double code_locality;
    std::uint32_t static_branches;
};

/** One branch-quality preset. */
struct BranchPresetRow
{
    BranchQuality quality;
    double biased_fraction;
    double patterned_fraction;
};

namespace preset_tables {

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;

/**
 * The data-locality mixtures, calibrated against the Table II MPKI
 * ranges on the simulated Skylake: the mid / big / vast weights
 * approximate the fraction of memory accesses missing L1 / L2 / L3,
 * because each set is sized to be captured by the next level.  The
 * streaming multiplier applies to the mid and big sets, modelling the
 * L1-filtering effect of unit-stride loops.
 */
inline constexpr DataPresetRow kDataPresets[] = {
    {DataLocality::Resident,
     {8 * kKiB, 96 * kKiB, 1.5 * kMiB, 32 * kMiB},
     {0.9984, 0.0010, 0.0004, 0.0002},
     {0.3, 1.0, 1.0, 0.0}},
    {DataLocality::Small,
     {12 * kKiB, 112 * kKiB, 2 * kMiB, 48 * kMiB},
     {0.9862, 0.010, 0.003, 0.0008},
     {0.3, 1.0, 1.0, 0.0}},
    {DataLocality::Medium,
     {14 * kKiB, 128 * kKiB, 2.5 * kMiB, 64 * kMiB},
     {0.957, 0.031, 0.010, 0.002},
     {0.3, 1.0, 1.0, 0.0}},
    {DataLocality::Large,
     {16 * kKiB, 144 * kKiB, 3 * kMiB, 96 * kMiB},
     {0.914, 0.062, 0.020, 0.004},
     {0.3, 1.0, 1.0, 0.0}},
    {DataLocality::Huge,
     {16 * kKiB, 160 * kKiB, 3 * kMiB, 160 * kMiB},
     {0.860, 0.100, 0.032, 0.008},
     {0.3, 1.0, 1.0, 0.0}},
    {DataLocality::Extreme,
     {16 * kKiB, 160 * kKiB, 3.5 * kMiB, 320 * kMiB},
     {0.790, 0.150, 0.047, 0.013},
     {0.3, 1.0, 1.0, 0.0}},
    // FP stencil pattern (cactuBSSN, fotonik3d): enormous L1 miss
    // rate almost entirely captured by L2/L3 — the Table II shape of
    // L1D up to ~98 MPKI against L2D <= 8.6 and L3 <= 5.
    {DataLocality::L1Bound,
     {8 * kKiB, 144 * kKiB, 2 * kMiB, 256 * kMiB},
     {0.744, 0.240, 0.007, 0.009},
     {0.3, 1.0, 1.0, 0.0}},
};

/**
 * The code-pressure presets.  Locality values are calibrated against
 * the Table II L1I/L2I ranges: even front-end-heavy CPU2017
 * benchmarks stay below ~5 L1I MPKI on Skylake; only the server-class
 * Huge preset (Cassandra) escapes that envelope, as Section V-E
 * requires.  The static branch population scales with the footprint;
 * the dynamic stream is skewed toward low-numbered branches, so even
 * the Large population trains within a 4K-entry predictor.
 */
inline constexpr CodePresetRow kCodePresets[] = {
    {CodePressure::Tiny, 8 * kKiB, 2 * kKiB, 0.999, 64},
    {CodePressure::Small, 32 * kKiB, 4 * kKiB, 0.995, 192},
    {CodePressure::Medium, 96 * kKiB, 8 * kKiB, 0.99, 512},
    {CodePressure::Large, 224 * kKiB, 16 * kKiB, 0.978, 1536},
    // Generated straight-line code (cactuBSSN): the fetch stream
    // marches through a region somewhat larger than a typical L1I
    // with no hot loop.
    {CodePressure::Flat, 40 * kKiB, 40 * kKiB, 1.0, 256},
    {CodePressure::Huge, 2 * kMiB, 32 * kKiB, 0.88, 4096},
};

/** The branch-quality presets. */
inline constexpr BranchPresetRow kBranchPresets[] = {
    {BranchQuality::VeryEasy, 0.99, 0.7},
    {BranchQuality::Easy, 0.965, 0.7},
    {BranchQuality::Moderate, 0.93, 0.6},
    {BranchQuality::Hard, 0.87, 0.5},
    {BranchQuality::VeryHard, 0.82, 0.30},
};

// --------------------------------------------------------------------
// Compile-time validation.  These mirror lint rules SL002 (mix-sum),
// SL004 (working-set-shape), SL005 (code-model) and SL006
// (branch-model) for everything visible at compile time.
// --------------------------------------------------------------------

constexpr bool
inUnitInterval(double v)
{
    return v >= 0.0 && v <= 1.0;
}

constexpr bool
dataRowValid(const DataPresetRow &row)
{
    double total = 0.0;
    for (std::size_t i = 0; i < kWorkingSetCount; ++i) {
        if (row.bytes[i] < 64.0 || row.weight[i] <= 0.0 ||
            !inUnitInterval(row.seq_scale[i]))
            return false;
        if (i > 0 && row.bytes[i] <= row.bytes[i - 1])
            return false;
        total += row.weight[i];
    }
    double diff = total - 1.0;
    return (diff < 0.0 ? -diff : diff) < 1e-9;
}

constexpr bool
codeRowValid(const CodePresetRow &row)
{
    return row.code_bytes >= 64.0 && row.hot_code_bytes >= 64.0 &&
           row.hot_code_bytes <= row.code_bytes &&
           inUnitInterval(row.code_locality) &&
           row.static_branches >= 1 &&
           row.static_branches <= (1u << 20);
}

constexpr bool
branchRowValid(const BranchPresetRow &row)
{
    return inUnitInterval(row.biased_fraction) &&
           inUnitInterval(row.patterned_fraction);
}

template <typename Row, std::size_t N>
constexpr bool
allValid(const Row (&rows)[N], bool (*valid)(const Row &))
{
    for (const Row &row : rows)
        if (!valid(row))
            return false;
    return true;
}

static_assert(allValid(kDataPresets, dataRowValid),
              "a data-locality preset has weights not summing to 1, "
              "non-increasing set sizes, or an out-of-range field");
static_assert(allValid(kCodePresets, codeRowValid),
              "a code preset has hot code exceeding the footprint or "
              "an out-of-range field");
static_assert(allValid(kBranchPresets, branchRowValid),
              "a branch preset has a fraction outside [0, 1]");

static_assert(sizeof(kDataPresets) / sizeof(kDataPresets[0]) == 7,
              "one row per DataLocality value");
static_assert(sizeof(kCodePresets) / sizeof(kCodePresets[0]) == 6,
              "one row per CodePressure value");
static_assert(sizeof(kBranchPresets) / sizeof(kBranchPresets[0]) == 5,
              "one row per BranchQuality value");

} // namespace preset_tables

/**
 * Row for @p locality.  Falls back to the first row — unreachable for
 * valid enum values, which the lookup asserts at compile time when the
 * argument is a constant.
 */
constexpr const DataPresetRow &
dataPresetRow(DataLocality locality)
{
    for (const DataPresetRow &row : preset_tables::kDataPresets)
        if (row.locality == locality)
            return row;
    return preset_tables::kDataPresets[0];
}

/** Row for @p pressure. */
constexpr const CodePresetRow &
codePresetRow(CodePressure pressure)
{
    for (const CodePresetRow &row : preset_tables::kCodePresets)
        if (row.pressure == pressure)
            return row;
    return preset_tables::kCodePresets[0];
}

/** Row for @p quality. */
constexpr const BranchPresetRow &
branchPresetRow(BranchQuality quality)
{
    for (const BranchPresetRow &row : preset_tables::kBranchPresets)
        if (row.quality == quality)
            return row;
    return preset_tables::kBranchPresets[0];
}

} // namespace suites
} // namespace speclens

#endif // SPECLENS_SUITES_PRESET_TABLES_H

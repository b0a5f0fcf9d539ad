/**
 * @file
 * Section II reproductions: the per-benchmark counter readouts on the
 * simulated Skylake (Table I, Table II, Fig. 1).
 */

#include <string>
#include <vector>

#include "core/repro_render.h"
#include "core/report.h"
#include "stats/descriptive.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {
namespace repro {

/**
 * Table I: dynamic instruction count, instruction mix and CPI of the
 * 43 CPU2017 benchmarks on the Skylake i7-6700.  Instruction counts
 * come from the workload models (they are the paper's published
 * values); mixes and CPI are *measured*, so this table doubles as the
 * calibration check that the models reproduce their published rows.
 */
std::string
table1Characterization(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Table I: Icount, instruction mix and CPI of the 43 "
                "SPEC CPU2017 benchmarks (simulated Skylake)");

    const std::size_t skylake = 0;
    TextTable table({"Benchmark", "Icount (B)", "Loads (%)", "Stores (%)",
                     "Branches (%)", "CPI (sim)", "CPI (paper)"});

    auto add_category = [&](const std::vector<suites::BenchmarkInfo> &list,
                            const char *header) {
        table.addRow({header, "", "", "", "", "", ""});
        for (const suites::BenchmarkInfo &b : list) {
            const uarch::SimulationResult &sim =
                characterizer.simulation(b, skylake);
            const uarch::PerfCounters &c = sim.counters;
            table.addRow({
                b.name,
                TextTable::num(b.profile.dynamic_instructions_billions, 0),
                TextTable::num(100.0 * c.loadFraction()),
                TextTable::num(100.0 * c.storeFraction()),
                TextTable::num(100.0 * c.branchFraction()),
                TextTable::num(sim.cpi()),
                TextTable::num(b.published_cpi),
            });
        }
    };

    add_category(suites::spec2017SpeedInt(), "-- SPECspeed Integer --");
    add_category(suites::spec2017RateInt(), "-- SPECrate Integer --");
    add_category(suites::spec2017SpeedFp(),
                 "-- SPECspeed Floating-point --");
    add_category(suites::spec2017RateFp(), "-- SPECrate Floating-point --");

    out += table.render();
    return out;
}

namespace {

/** "min - max" of @p metric over @p list on the Skylake. */
std::string
range(Characterizer &characterizer,
      const std::vector<suites::BenchmarkInfo> &list, Metric metric)
{
    std::vector<double> values;
    values.reserve(list.size());
    for (const suites::BenchmarkInfo &b : list)
        values.push_back(characterizer.metrics(b, 0).get(metric));
    return TextTable::num(stats::minValue(values), 1) + " - " +
           TextTable::num(stats::maxValue(values), 1);
}

} // namespace

/**
 * Table II: min-max ranges of cache MPKI per level/side and branch
 * misprediction MPKI per CPU2017 sub-suite on the simulated Skylake.
 */
std::string
table2MetricRanges(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Table II: metric ranges (min - max) of the CPU2017 "
                "sub-suites (simulated Skylake)");

    auto rate_int = suites::spec2017RateInt();
    auto speed_int = suites::spec2017SpeedInt();
    auto rate_fp = suites::spec2017RateFp();
    auto speed_fp = suites::spec2017SpeedFp();

    struct MetricRow
    {
        const char *label;
        Metric metric;
    };
    const MetricRow rows[] = {
        {"L1D$ MPKI", Metric::L1dMpki},
        {"L1I$ MPKI", Metric::L1iMpki},
        {"L2D$ MPKI", Metric::L2dMpki},
        {"L2I$ MPKI", Metric::L2iMpki},
        {"L3$ MPKI", Metric::L3Mpki},
        {"Branch misp. PKI", Metric::BranchMpki},
    };

    TextTable table(
        {"Metric", "Rate INT", "Speed INT", "Rate FP", "Speed FP"});
    for (const MetricRow &row : rows) {
        table.addRow({row.label, range(characterizer, rate_int, row.metric),
                      range(characterizer, speed_int, row.metric),
                      range(characterizer, rate_fp, row.metric),
                      range(characterizer, speed_fp, row.metric)});
    }
    out += table.render();

    out += "\nPaper reference ranges (Skylake hardware):\n"
           "  L1D$ MPKI:  rate INT ~0-56,  speed INT ~0-54.7, "
           "rate FP 2-95.4, speed FP 5.5-98.4\n"
           "  L1I$ MPKI:  ~0-5.1 / ~0-5.2 / ~0-11.3 / 0.1-11.6\n"
           "  L2D$ MPKI:  ~0-20.5 / ~0-20.7 / ~0-7 / 0.2-8.6\n"
           "  L2I$ MPKI:  ~0-0.9 across categories\n"
           "  L3$ MPKI:   ~0-4.5 / ~0-4.6 / ~0-4.3 / ~0-5\n"
           "  Branch MPKI: 0.9-8.3 / 0.5-8.4 / 0-2.5 / 0.01-2.5\n";
    return out;
}

namespace {

/** Stacked CPI bars of @p list on the Skylake. */
std::string
cpiStacks(Characterizer &characterizer,
          const std::vector<suites::BenchmarkInfo> &list)
{
    std::vector<std::string> labels;
    std::vector<std::vector<double>> stacks;
    for (const suites::BenchmarkInfo &b : list) {
        labels.push_back(b.name);
        stacks.push_back(
            characterizer.simulation(b, 0).cpi_stack.components());
    }
    return renderStackedBars(labels, stacks,
                             uarch::CpiStack::componentNames());
}

} // namespace

/**
 * Fig. 1: top-down CPI stacks of the CPU2017 *rate* benchmarks on the
 * simulated Skylake.  Expected shape (paper): mcf_r and omnetpp_r
 * have the highest CPI; leela/mcf/xz spend heavily on front-end
 * (branch) stalls; omnetpp/xalancbmk/mcf/fotonik3d are back-end bound;
 * blender and imagick are dominated by dependencies ("other").
 */
std::string
fig1CpiStacks(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Fig. 1: CPI stacks of the CPU2017 rate benchmarks "
                "(simulated Skylake)");

    std::vector<suites::BenchmarkInfo> rate = suites::spec2017RateInt();
    for (const suites::BenchmarkInfo &b : suites::spec2017RateFp())
        rate.push_back(b);
    out += cpiStacks(characterizer, rate);

    // Highlight the paper's headline observation.
    double max_cpi = 0.0;
    std::string max_name;
    for (const suites::BenchmarkInfo &b : rate) {
        double cpi = characterizer.simulation(b, 0).cpi();
        if (cpi > max_cpi) {
            max_cpi = cpi;
            max_name = b.name;
        }
    }
    appendf(out,
            "\nHighest CPI: %s at %.2f (paper: mcf_r / omnetpp_r "
            "highest)\n",
            max_name.c_str(), max_cpi);

    // Bonus: the speed-benchmark stacks the paper omits for space
    // ("most speed benchmarks also have similar performance
    // correlations", Sec. II-B).
    banner(out, "Bonus: CPI stacks of the CPU2017 speed benchmarks "
                "(paper: not shown due to space)");
    std::vector<suites::BenchmarkInfo> speed = suites::spec2017SpeedInt();
    for (const suites::BenchmarkInfo &b : suites::spec2017SpeedFp())
        speed.push_back(b);
    out += cpiStacks(characterizer, speed);
    return out;
}

} // namespace repro
} // namespace core
} // namespace speclens

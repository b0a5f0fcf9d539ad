/**
 * @file
 * Reproduces Table VIII: classification of the CPU2017 benchmarks by
 * application domain, marking per domain the benchmarks with distinct
 * performance behaviour (the ones a domain-coverage-minded researcher
 * should run).
 *
 * Method: within each domain, a benchmark is "distinct" when its
 * nearest same-domain neighbour in the joint PC space is further than
 * the suite's median nearest-neighbour distance; when a rate/speed
 * pair is mutually similar, only the (shorter-running) rate version is
 * marked — both rules follow Section IV-F.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "bench_common.h"
#include "core/report.h"
#include "core/similarity.h"
#include "stats/descriptive.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    bench::banner("Table VIII: application domains and their distinct "
                  "benchmarks (marked *)");

    const auto &suite = suites::spec2017();
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));

    // Suite-wide nearest-neighbour scale.
    std::vector<double> nn;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        double nearest = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < suite.size(); ++j)
            if (i != j)
                nearest = std::min(nearest, sim.pcDistance(i, j));
        nn.push_back(nearest);
    }
    double scale = stats::median(nn);

    // Group by domain.
    std::map<std::string, std::vector<std::size_t>> domains;
    for (std::size_t i = 0; i < suite.size(); ++i)
        domains[suites::domainName(suite[i].domain)].push_back(i);

    core::TextTable table({"App domain", "Benchmarks (* = distinct)"});
    for (const auto &[domain, members] : domains) {
        std::string cell;
        for (std::size_t i : members) {
            // Distinct when no same-domain neighbour is close, or when
            // the close neighbour is only its own speed partner (then
            // mark the rate version only).
            double nearest = std::numeric_limits<double>::infinity();
            std::size_t nearest_j = i;
            for (std::size_t j : members) {
                if (j == i)
                    continue;
                double d = sim.pcDistance(i, j);
                if (d < nearest) {
                    nearest = d;
                    nearest_j = j;
                }
            }
            bool partner_only =
                nearest <= scale &&
                suite[nearest_j].name == suite[i].partner;
            bool is_rate =
                suite[i].category == suites::Category::RateInt ||
                suite[i].category == suites::Category::RateFp;
            bool distinct =
                nearest > scale || (partner_only && is_rate);
            if (!cell.empty())
                cell += ", ";
            if (distinct)
                cell += "*";
            cell += suite[i].name;
        }
        table.addRow({domain, cell});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nPaper examples: 502.gcc_r* but 602.gcc_s unmarked "
                "(similar to rate); both versions of bwaves / roms / "
                "lbm marked (rate and speed differ).\n");
    return 0;
}

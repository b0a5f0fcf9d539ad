/**
 * @file
 * Case-study workloads outside SPEC: EDA, database and graph
 * analytics (Sections V-D, V-E, V-F, Fig. 13).
 *
 * The paper compares CPU2017 against:
 *  - two CPU2000 EDA benchmarks (175.vpr, 300.twolf), found to be
 *    covered — their hardware behaviour sits near mcf;
 *  - Cassandra running YCSB workloads A and C (cas-WA, cas-WC), found
 *    NOT covered — their instruction-cache and I-TLB pressure has no
 *    CPU2017 counterpart;
 *  - PageRank and Connected Components on two real-world graphs:
 *    PageRank (pr-g1, pr-g2) is NOT covered due to extreme D-TLB
 *    activity from random vertex access, while Connected Components
 *    (cc-g1, cc-g2) behaves like leela / deepsjeng / xz and is
 *    covered.
 */

#ifndef SPECLENS_SUITES_EMERGING_H
#define SPECLENS_SUITES_EMERGING_H

#include <vector>

#include "suites/benchmark_info.h"

namespace speclens {
namespace suites {

/** The two CPU2000 EDA benchmarks (Section V-D). */
std::vector<BenchmarkInfo> edaBenchmarks();

/** Cassandra/YCSB workloads A and C (Section V-E). */
std::vector<BenchmarkInfo> databaseBenchmarks();

/** PageRank and Connected Components on two graphs (Section V-F). */
std::vector<BenchmarkInfo> graphBenchmarks();

/** All emerging workloads in Fig. 13 order (EDA, database, graph). */
const std::vector<BenchmarkInfo> &emergingBenchmarks();

} // namespace suites
} // namespace speclens

#endif // SPECLENS_SUITES_EMERGING_H

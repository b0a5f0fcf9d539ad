/**
 * @file
 * Emerging / case-study workload models.
 */

#include "emerging.h"

#include "suites/profile_presets.h"

namespace speclens {
namespace suites {

namespace {

using D = DataLocality;
using C = CodePressure;
using B = BranchQuality;

BenchmarkInfo
make(int id, const std::string &name, Suite suite, Domain domain,
     Language language, const ProfileSpec &spec)
{
    BenchmarkInfo b;
    b.id = id;
    b.name = name;
    b.suite = suite;
    b.category = Category::Other;
    b.domain = domain;
    b.language = language;
    b.profile = buildProfile(name, spec);
    return b;
}

} // namespace

std::vector<BenchmarkInfo>
edaBenchmarks()
{
    std::vector<BenchmarkInfo> v;

    {   // 175.vpr: FPGA place-and-route.  Pointer-heavy netlist
        // traversal with data-dependent branches — the profile the
        // paper finds "close to 505.mcf_r and 605.mcf_s" (Fig. 13).
        ProfileSpec s;
        s.icount_billions = 110;
        s.load_pct = 20.0; s.store_pct = 6.0; s.branch_pct = 12.5;
        s.cpi = 1.1;
        s.data = D::Extreme; s.streaming = 0.05; s.code = C::Medium;
        s.branches = B::VeryHard; s.taken_fraction = 0.62;
        s.tlb_stress = 0.20; s.mlp = 1.4;
        v.push_back(make(175, "175.vpr", Suite::Cpu2000, Domain::Eda,
                         Language::C, s));
    }
    {   // 300.twolf: standard-cell placement (simulated annealing);
        // same random-pointer character, slightly smaller footprint.
        ProfileSpec s;
        s.icount_billions = 95;
        s.load_pct = 21.0; s.store_pct = 6.5; s.branch_pct = 12.8;
        s.cpi = 1.05;
        s.data = D::Extreme; s.streaming = 0.05; s.code = C::Medium;
        s.branches = B::VeryHard; s.taken_fraction = 0.65;
        s.tlb_stress = 0.50; s.mlp = 1.35;
        v.push_back(make(300, "300.twolf", Suite::Cpu2000, Domain::Eda,
                         Language::C, s));
    }
    return v;
}

std::vector<BenchmarkInfo>
databaseBenchmarks()
{
    std::vector<BenchmarkInfo> v;

    // Cassandra is a JVM server: a multi-megabyte instruction
    // footprint with poor fetch locality and a substantial kernel
    // share, producing the instruction-cache / I-TLB pressure that the
    // paper finds no CPU2017 benchmark reproduces (Sec. V-E).
    {   // cas-WA: YCSB workload A (50% reads / 50% updates).
        ProfileSpec s;
        s.icount_billions = 500;
        s.load_pct = 27.0; s.store_pct = 14.0; s.branch_pct = 17.0;
        s.cpi = 1.5;
        s.data = D::Large; s.streaming = 0.05; s.code = C::Huge;
        s.branches = B::Moderate; s.taken_fraction = 0.62;
        s.tlb_stress = 0.25; s.kernel = 0.30; s.mlp = 1.6;
        v.push_back(make(0, "cas-WA", Suite::Emerging, Domain::Database,
                         Language::Java, s));
    }
    {   // cas-WC: YCSB workload C (read-only).
        ProfileSpec s;
        s.icount_billions = 480;
        s.load_pct = 31.0; s.store_pct = 6.0; s.branch_pct = 17.5;
        s.cpi = 1.4;
        s.data = D::Large; s.streaming = 0.05; s.code = C::Huge;
        s.branches = B::Moderate; s.taken_fraction = 0.62;
        s.tlb_stress = 0.25; s.kernel = 0.28; s.mlp = 1.6;
        v.push_back(make(0, "cas-WC", Suite::Emerging, Domain::Database,
                         Language::Java, s));
    }
    return v;
}

std::vector<BenchmarkInfo>
graphBenchmarks()
{
    std::vector<BenchmarkInfo> v;

    // PageRank: random vertex-indexed gathers over a graph far larger
    // than any TLB's reach — the extreme L1 D-TLB activity the paper
    // attributes to random data requests (Sec. V-F, refs [26], [27]).
    {   // pr-g1: PageRank on a social-network graph.
        ProfileSpec s;
        s.icount_billions = 220;
        s.load_pct = 38.0; s.store_pct = 9.0; s.branch_pct = 7.0;
        s.cpi = 1.8;
        s.data = D::Extreme; s.streaming = 0.15; s.code = C::Tiny;
        s.branches = B::Easy; s.taken_fraction = 0.8;
        s.tlb_stress = 1.0; s.mlp = 2.5;
        v.push_back(make(0, "pr-g1", Suite::Emerging,
                         Domain::GraphAnalytics, Language::Cpp, s));
    }
    {   // pr-g2: PageRank on a road-network graph (sparser, larger
        // diameter; even worse locality).
        ProfileSpec s;
        s.icount_billions = 180;
        s.load_pct = 36.0; s.store_pct = 8.0; s.branch_pct = 8.0;
        s.cpi = 2.0;
        s.data = D::Extreme; s.streaming = 0.05; s.code = C::Tiny;
        s.branches = B::Easy; s.taken_fraction = 0.8;
        s.tlb_stress = 1.0; s.mlp = 2.0;
        v.push_back(make(0, "pr-g2", Suite::Emerging,
                         Domain::GraphAnalytics, Language::Cpp, s));
    }

    // Connected Components: label propagation converges quickly to
    // mostly-resident frontier processing with data-dependent
    // comparisons — hardware behaviour the paper finds similar to
    // leela / deepsjeng / xz (Sec. V-F).
    {   // cc-g1.
        ProfileSpec s;
        s.icount_billions = 90;
        s.load_pct = 18.0; s.store_pct = 6.0; s.branch_pct = 11.0;
        s.cpi = 0.9;
        s.data = D::Small; s.streaming = 0.1; s.code = C::Small;
        s.branches = B::VeryHard; s.taken_fraction = 0.5;
        s.tlb_stress = 0.10; s.mlp = 1.8;
        v.push_back(make(0, "cc-g1", Suite::Emerging,
                         Domain::GraphAnalytics, Language::Cpp, s));
    }
    {   // cc-g2.
        ProfileSpec s;
        s.icount_billions = 75;
        s.load_pct = 16.0; s.store_pct = 5.0; s.branch_pct = 12.0;
        s.cpi = 0.95;
        s.data = D::Small; s.streaming = 0.1; s.code = C::Small;
        s.branches = B::VeryHard; s.taken_fraction = 0.5;
        s.tlb_stress = 0.10; s.mlp = 1.8;
        v.push_back(make(0, "cc-g2", Suite::Emerging,
                         Domain::GraphAnalytics, Language::Cpp, s));
    }
    return v;
}

const std::vector<BenchmarkInfo> &
emergingBenchmarks()
{
    static const std::vector<BenchmarkInfo> suite = [] {
        std::vector<BenchmarkInfo> v = edaBenchmarks();
        for (const BenchmarkInfo &b : databaseBenchmarks())
            v.push_back(b);
        for (const BenchmarkInfo &b : graphBenchmarks())
            v.push_back(b);
        return v;
    }();
    return suite;
}

} // namespace suites
} // namespace speclens

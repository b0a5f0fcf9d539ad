/**
 * @file
 * Attribution-replay implementation.
 */

#include "replay.h"

#include <array>
#include <memory>
#include <set>
#include <variant>

#include "core/artifact_store.h"
#include "stats/clustering.h"
#include "stats/distance.h"
#include "stats/normalize.h"
#include "stats/pca.h"
#include "suites/spec2017.h"
#include "trace/address_stream.h"
#include "trace/record_batch.h"
#include "trace/trace_generator.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/prewarm.h"
#include "uarch/simulation.h"
#include "uarch/tlb.h"

namespace perfbench {

namespace core = speclens::core;
namespace stats = speclens::stats;
namespace suites = speclens::suites;
namespace trace = speclens::trace;
namespace uarch = speclens::uarch;

namespace {

/** Branch lanes of one batch, compacted as simulate() does. */
struct BranchLanes
{
    std::array<std::uint64_t, trace::kRecordBatchCapacity> pc;
    std::array<std::uint32_t, trace::kRecordBatchCapacity> id;
    std::array<std::uint8_t, trace::kRecordBatchCapacity> taken;
    std::array<std::uint8_t, trace::kRecordBatchCapacity> mispred;
};

/** Prewarm of one pair: the solver, then the walk if it refuses. */
bool
replayPrewarm(const trace::WorkloadProfile &effective,
              const uarch::MachineConfig &machine, Tracer &tracer,
              std::uint32_t op)
{
    uarch::CacheHierarchy caches(machine.caches);
    uarch::TlbHierarchy tlbs(machine.tlbs);
    std::uint64_t llc_lines =
        (machine.caches.l3 ? machine.caches.l3->size_bytes
                           : machine.caches.l2.size_bytes) /
        trace::kLineBytes;
    Tracer::Scope span = Tracer::span(&tracer, "uarch.prewarm", op);
    if (uarch::PrewarmSolver::apply(caches, tlbs, effective, llc_lines))
        return true;
    uarch::PrewarmSolver::walk(caches, tlbs, effective, llc_lines);
    return false;
}

/**
 * Generator and predictor work of one pair: fill() batch by batch over
 * the warm-up and measured windows, and updateBatch() over each batch's
 * branches.  Returns the records generated.
 */
std::uint64_t
replayStream(const trace::WorkloadProfile &effective,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &window, trace::RecordBatch &batch,
             BranchLanes &lanes, Tracer &tracer, std::uint32_t op)
{
    trace::TraceGenerator generator(effective, window.seed_salt);
    uarch::PredictorVariant predictor = uarch::makePredictorVariant(
        machine.predictor, machine.predictor_size_log2);
    std::uint64_t records = 0;
    for (std::uint64_t count : {window.warmup, window.instructions}) {
        std::uint64_t remaining = count;
        while (remaining > 0) {
            std::size_t n = 0;
            {
                Tracer::Scope span = Tracer::span(&tracer, "trace.fill", op);
                n = generator.fill(batch, remaining);
            }
            remaining -= n;
            records += n;
            std::size_t branches = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (batch.op[i] != trace::OpClass::Branch)
                    continue;
                lanes.pc[branches] = batch.pc[i];
                lanes.id[branches] = batch.branch_id[i];
                lanes.taken[branches] = batch.taken(i) ? 1 : 0;
                ++branches;
            }
            Tracer::Scope span =
                Tracer::span(&tracer, "uarch.predictor_batch", op);
            std::visit(
                [&](auto &p) {
                    p.updateBatch(lanes.pc.data(), lanes.id.data(),
                                  lanes.taken.data(), lanes.mispred.data(),
                                  branches);
                },
                predictor);
        }
    }
    return records;
}

} // namespace

SimReplay
replaySimulations(core::ServiceContext &context,
                  const std::vector<CampaignPart> &parts, Tracer &tracer,
                  std::uint32_t op)
{
    const uarch::SimulationConfig window =
        context.config().characterization.simulationConfig();
    auto batch = std::make_unique<trace::RecordBatch>();
    auto lanes = std::make_unique<BranchLanes>();

    SimReplay replay;
    std::set<std::uint64_t> replayed;
    for (const CampaignPart &part : parts) {
        core::Characterizer &characterizer =
            context.characterizerFor(*part.machines);
        for (const suites::BenchmarkInfo &benchmark : part.benchmarks) {
            for (std::size_t m = 0; m < part.machines->size(); ++m) {
                if (!replayed
                         .insert(characterizer.storeKey(benchmark, m)
                                     .fingerprint)
                         .second)
                    continue; // a twin the campaign loaded, not simulated
                const uarch::MachineConfig &machine = (*part.machines)[m];
                uarch::SimulationResult serial;
                {
                    Tracer::Scope span =
                        Tracer::span(&tracer, "uarch.simulate", op);
                    serial = uarch::simulate(benchmark.profile, machine,
                                             window);
                }
                ++replay.pairs;
                if (!uarch::bitIdentical(
                        serial, characterizer.simulation(benchmark, m)))
                    ++replay.mismatches;

                trace::WorkloadProfile effective =
                    window.apply_machine_transform
                        ? uarch::transformForMachine(benchmark.profile,
                                                     machine)
                        : benchmark.profile;
                if (window.prewarm) {
                    ++replay.prewarm_attempts;
                    if (replayPrewarm(effective, machine, tracer, op))
                        ++replay.prewarm_analytic;
                }
                replay.records += replayStream(effective, machine, window,
                                               *batch, *lanes, tracer, op);
            }
        }
    }
    return replay;
}

void
replayStore(core::ServiceContext &context,
            const std::vector<CampaignPart> &parts,
            const std::string &load_dir, const std::string &save_dir,
            Tracer &tracer, std::uint32_t op)
{
    core::CampaignStore source(load_dir);
    std::unique_ptr<core::CampaignStore> sink;
    if (!save_dir.empty())
        sink = std::make_unique<core::CampaignStore>(save_dir);
    std::set<std::uint64_t> saved;
    for (const CampaignPart &part : parts) {
        core::Characterizer &characterizer =
            context.characterizerFor(*part.machines);
        for (const suites::BenchmarkInfo &benchmark : part.benchmarks) {
            for (std::size_t m = 0; m < part.machines->size(); ++m) {
                core::StoreKey key = characterizer.storeKey(benchmark, m);
                uarch::SimulationResult loaded;
                {
                    Tracer::Scope span =
                        Tracer::span(&tracer, "store.load", op);
                    source.load(key, loaded);
                }
                if (!sink || !saved.insert(key.fingerprint).second)
                    continue;
                const uarch::SimulationResult &result =
                    characterizer.simulation(benchmark, m);
                Tracer::Scope span = Tracer::span(&tracer, "store.save", op);
                sink->save(key, result);
            }
        }
    }
}

void
replayStats(core::ServiceContext &context, Tracer &tracer,
            std::uint32_t first_op, std::size_t repeats)
{
    core::Characterizer &profiling =
        context.characterizerFor(context.profilingMachines());
    std::vector<stats::Matrix> matrices;
    for (const std::vector<suites::BenchmarkInfo> &suite :
         {context.cpu2017(), suites::spec2017SpeedInt(),
          suites::spec2017RateInt(), suites::spec2017SpeedFp(),
          suites::spec2017RateFp(), context.cpu2006(), context.emerging()})
        matrices.push_back(profiling.featureMatrix(suite));

    for (std::size_t r = 0; r < repeats; ++r) {
        auto op = static_cast<std::uint32_t>(first_op + r);
        for (const stats::Matrix &features : matrices) {
            {
                Tracer::Scope span = Tracer::span(&tracer, "stats.zscore", op);
                (void)stats::zscore(features);
            }
            stats::PcaResult pca;
            {
                Tracer::Scope span = Tracer::span(&tracer, "stats.pca", op);
                pca = stats::fitPca(features);
            }
            stats::Matrix distances;
            {
                Tracer::Scope span =
                    Tracer::span(&tracer, "stats.distances", op);
                distances = stats::pairwiseDistances(pca.scores);
            }
            Tracer::Scope span =
                Tracer::span(&tracer, "stats.agglomerate", op);
            (void)stats::agglomerate(distances, stats::Linkage::Ward);
        }
    }
}

} // namespace perfbench

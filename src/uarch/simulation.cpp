/**
 * @file
 * Simulation driver implementation.
 */

#include "simulation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "trace/trace_generator.h"
#include "uarch/prewarm.h"
#include "verify/state_audit.h"

namespace speclens {
namespace uarch {

void
SimulationConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("window");
    fp.u64(instructions);
    fp.u64(warmup);
    fp.u64(seed_salt);
    fp.boolean(apply_machine_transform);
    fp.boolean(prewarm);
}

double
SimulationResult::ipc() const
{
    double c = cpi();
    return c > 0.0 ? 1.0 / c : 0.0;
}

SimulationResult::Words
SimulationResult::words() const
{
    Words out{};
    std::size_t i = 0;
    for (const auto &field : kPerfCounterFields)
        out[i++] = counters.*field.member;
    for (const auto &field : kCpiStackFields)
        out[i++] = std::bit_cast<std::uint64_t>(cpi_stack.*field.member);
    for (const auto &field : kPowerFields)
        out[i++] = std::bit_cast<std::uint64_t>(power.*field.member);
    return out;
}

SimulationResult
SimulationResult::fromWords(const Words &words)
{
    SimulationResult result;
    std::size_t i = 0;
    for (const auto &field : kPerfCounterFields)
        result.counters.*field.member = words[i++];
    for (const auto &field : kCpiStackFields)
        result.cpi_stack.*field.member = std::bit_cast<double>(words[i++]);
    for (const auto &field : kPowerFields)
        result.power.*field.member = std::bit_cast<double>(words[i++]);
    return result;
}

void
SimulationResult::hashInto(stats::Fingerprinter &fp) const
{
    for (std::uint64_t word : words())
        fp.u64(word);
}

namespace {

/** Structure counters snapshot used to subtract warm-up windows. */
struct Snapshot
{
    SideCounters l1d, l1i, l2d, l2i, l3;
    std::uint64_t dtlb_acc, dtlb_miss, itlb_acc, itlb_miss;
    std::uint64_t l2tlb_miss, walks;
    std::uint64_t pf_fills, pf_useful, pf_evicted;
    std::uint64_t wp_hits, wp_mispred;
    std::uint64_t dram_acc, dram_row_hits, dram_busy, dram_budget;
};

Snapshot
capture(const CacheHierarchy &caches, const TlbHierarchy &tlbs)
{
    return Snapshot{caches.l1d(),
                    caches.l1i(),
                    caches.l2d(),
                    caches.l2i(),
                    caches.l3(),
                    tlbs.dtlbAccesses(),
                    tlbs.dtlbMisses(),
                    tlbs.itlbAccesses(),
                    tlbs.itlbMisses(),
                    tlbs.l2tlbMisses(),
                    tlbs.pageWalks(),
                    caches.prefetchFills(),
                    caches.prefetchUseful(),
                    caches.prefetchEvictedUnused(),
                    caches.wayPredHits(),
                    caches.wayPredMispredicts(),
                    caches.dramAccesses(),
                    caches.dramRowHits(),
                    caches.dramBusyCycles(),
                    caches.dramBudgetCycles()};
}

/** Add the structure-count delta between two snapshots to counters. */
void
addDelta(PerfCounters &c, const Snapshot &start, const Snapshot &end)
{
    c.l1d_accesses += end.l1d.accesses - start.l1d.accesses;
    c.l1d_misses += end.l1d.misses - start.l1d.misses;
    c.l1i_accesses += end.l1i.accesses - start.l1i.accesses;
    c.l1i_misses += end.l1i.misses - start.l1i.misses;
    c.l2d_accesses += end.l2d.accesses - start.l2d.accesses;
    c.l2d_misses += end.l2d.misses - start.l2d.misses;
    c.l2i_accesses += end.l2i.accesses - start.l2i.accesses;
    c.l2i_misses += end.l2i.misses - start.l2i.misses;
    c.l3_accesses += end.l3.accesses - start.l3.accesses;
    c.l3_misses += end.l3.misses - start.l3.misses;
    c.dtlb_accesses += end.dtlb_acc - start.dtlb_acc;
    c.dtlb_misses += end.dtlb_miss - start.dtlb_miss;
    c.itlb_accesses += end.itlb_acc - start.itlb_acc;
    c.itlb_misses += end.itlb_miss - start.itlb_miss;
    c.l2tlb_misses += end.l2tlb_miss - start.l2tlb_miss;
    c.page_walks += end.walks - start.walks;
    c.prefetch_fills += end.pf_fills - start.pf_fills;
    c.prefetch_useful += end.pf_useful - start.pf_useful;
    c.prefetch_evicted_unused += end.pf_evicted - start.pf_evicted;
    c.way_pred_hits += end.wp_hits - start.wp_hits;
    c.way_pred_mispredicts += end.wp_mispred - start.wp_mispred;
    c.dram_accesses += end.dram_acc - start.dram_acc;
    c.dram_row_hits += end.dram_row_hits - start.dram_row_hits;
    c.dram_busy_cycles += end.dram_busy - start.dram_busy;
    c.dram_budget_cycles += end.dram_budget - start.dram_budget;
}

/**
 * Reserve the calling thread's line storage for every cache and TLB
 * level of @p machine (see Cache::reserveStorage) and return
 * @p machine, so Playback can do it before building its structures.
 */
const MachineConfig &
reserveLineStorage(const MachineConfig &machine)
{
    std::size_t words = Cache::storageWords(machine.caches.l1i) +
                        Cache::storageWords(machine.caches.l1d) +
                        Cache::storageWords(machine.caches.l2) +
                        Cache::storageWords(machine.tlbs.itlb.asCacheConfig()) +
                        Cache::storageWords(machine.tlbs.dtlb.asCacheConfig());
    if (machine.caches.l3)
        words += Cache::storageWords(*machine.caches.l3);
    if (machine.tlbs.l2tlb)
        words += Cache::storageWords(machine.tlbs.l2tlb->asCacheConfig());
    Cache::reserveStorage(words);
    return machine;
}

/** One machine's structures plus the per-instruction playback loop. */
class Playback
{
  public:
    explicit Playback(const MachineConfig &machine)
        : caches_(reserveLineStorage(machine).caches),
          tlbs_(machine.tlbs),
          predictor_(makePredictorVariant(machine.predictor,
                                          machine.predictor_size_log2))
    {
    }

    /**
     * Touch every line of LLC-resident working sets once, coldest set
     * first, so short measurements reflect steady state rather than
     * cold-start compulsory misses (the paper measures full multi-
     * trillion-instruction runs).  Sets too large for the hierarchy
     * are skipped — their misses are genuine capacity misses.
     */
    void
    prewarm(const trace::WorkloadProfile &profile,
            const MachineConfig &machine)
    {
        std::uint64_t llc_lines =
            (machine.caches.l3 ? machine.caches.l3->size_bytes
                               : machine.caches.l2.size_bytes) /
            trace::kLineBytes;

        // Closed-form fast path: when the warmup stream is provably
        // regular (see prewarm.h), the solver writes the exact final
        // state without the per-line walk.  Any structure outside the
        // provable regime — or a touched hierarchy, as in phase 2+ of
        // a phased run — falls back to the walk below, which remains
        // the semantic definition.
        PrewarmSolver::Refusal why = PrewarmSolver::Refusal::None;
        if (PrewarmSolver::apply(caches_, tlbs_, profile, llc_lines, &why)) {
            static obs::Counter &analytic =
                obs::Registry::global().counter("uarch.prewarm.analytic");
            analytic.add();
            return;
        }
        static obs::Counter &walked =
            obs::Registry::global().counter("uarch.prewarm.walked");
        walked.add();
        obs::Registry::global()
            .counter(std::string("uarch.prewarm.refused.") +
                     PrewarmSolver::refusalName(why))
            .add();
        PrewarmSolver::walk(caches_, tlbs_, profile, llc_lines);
    }

    /**
     * Attach an audit trail: subsequent auditPoint() calls (and the
     * sampled chunk-boundary audits inside playLoop) prove the
     * structural invariants and append violations there.  With no
     * trail attached the hooks reduce to one well-predicted null test
     * per 4096-record chunk.
     */
    void attachAudit(verify::AuditTrail *trail) { trail_ = trail; }

    /**
     * Close out prefetch attribution at the warmup->measurement
     * boundary (see CacheHierarchy::retireUnusedPrefetches): without
     * this, measured snapshot deltas could show more useful/evicted
     * prefetches than fills.
     */
    void retireUnusedPrefetches() { caches_.retireUnusedPrefetches(); }

    /**
     * Run one audit point.  @p post_prewarm selects the stricter
     * prewarm-boundary audit (the fill order of the LRU stamps is only
     * defined before demand accesses start).
     */
    void
    auditPoint(bool post_prewarm)
    {
        if (!trail_)
            return;
        ++trail_->audits;
        std::size_t before = trail_->violations.size();
        if (post_prewarm) {
            verify::StateAuditor::auditPrewarm(caches_, tlbs_,
                                               trail_->violations);
            verify::StateAuditor::auditPredictor(predictor_,
                                                 trail_->violations);
        } else {
            verify::StateAuditor::auditAll(caches_, tlbs_, predictor_,
                                           trail_->violations);
        }
        countAudit(before);
    }

    /** Audit one measured window's counters against the accounting
     *  identities of @p machine. */
    void
    auditWindow(const PerfCounters &counters, const MachineConfig &machine)
    {
        ++trail_->audits;
        std::size_t before = trail_->violations.size();
        for (verify::Violation &v : checkCounterIdentities(counters, &machine))
            trail_->violations.push_back(std::move(v));
        countAudit(before);
    }

    /**
     * Play @p count instructions from @p generator.  When @p record is
     * non-null, retirement counters accumulate there and the structure
     * deltas of the window are added at the end.
     *
     * This is the hottest code in SpecLens (hundreds of millions of
     * iterations per campaign).  One loop does all per-record work: it
     * draws each record with TraceGenerator::step (inlined), drives the
     * caches and TLBs in exact stream order — preserving bit-identical
     * results — and counts the record's retirement in the same
     * iteration, so no record is ever stored or re-read.  The loop runs
     * in chunks of trace::kRecordBatchCapacity records; per chunk it
     * takes the sampled audit and hands the chunk's branches to the
     * predictor's batch kernel.  std::visit resolves the predictor's
     * concrete type once per window so its calls are direct and
     * inlinable, and the record/no-record decision is a template
     * parameter so the warm-up loop carries no retirement bookkeeping.
     */
    void
    play(trace::TraceGenerator &generator, std::uint64_t count,
         PerfCounters *record)
    {
        std::visit(
            [&](auto &predictor) {
                if (record)
                    playLoop<true>(predictor, generator, count, record);
                else
                    playLoop<false>(predictor, generator, count,
                                    nullptr);
            },
            predictor_);
    }

  private:
    template <bool Record, typename Predictor>
    void
    playLoop(Predictor &predictor, trace::TraceGenerator &generator,
             std::uint64_t count, PerfCounters *record)
    {
        Snapshot start = capture(caches_, tlbs_);

        // Retirement counts accumulate in locals and flush to the
        // PerfCounters struct once after the loop: one count per op
        // class, and taken/mispredicted totals per chunk from the
        // compacted branch lanes.
        std::array<std::uint64_t, trace::kOpClassCount> retired{};
        std::uint64_t kernel = 0, taken_branches = 0, mispredictions = 0;

        // Branch records compacted out of each chunk, resolved per
        // chunk by the predictor's batch kernel (see updateBatch in
        // branch_predictor.h).  The predictor shares no state with the
        // caches or TLBs and branch outcomes are trace data, so
        // deferring a chunk's predictor work behind its structure
        // accesses is bit-exact.
        std::array<std::uint64_t, trace::kRecordBatchCapacity> branch_pc;
        std::array<std::uint32_t, trace::kRecordBatchCapacity> branch_id;
        std::array<std::uint8_t, trace::kRecordBatchCapacity> branch_taken;
        std::array<std::uint8_t, trace::kRecordBatchCapacity> branch_mispred;

        // Same-line / same-page run collapsing.  Sequential fetch
        // re-probes the same L1I line up to line_bytes/4 times in a
        // row and the same ITLB page thousands of times; each repeat
        // is a guaranteed hit (the line was resident or filled on the
        // previous record, and nothing else touches that structure in
        // between), and its state update collapses exactly (see
        // Cache::repeatLastHit).  So the loop only probes a structure
        // when the line/page changes and counts the repeats, flushing
        // the run right before the next real probe.  Final counters
        // and replacement state are bit-identical to probing every
        // record — the per-record reference model and the parity
        // tests check exactly that.
        constexpr std::uint64_t kNoRun = ~0ull;
        const unsigned i_line_shift = static_cast<unsigned>(
            std::countr_zero(std::uint64_t{caches_.instrLineBytes()}));
        const unsigned d_line_shift = static_cast<unsigned>(
            std::countr_zero(std::uint64_t{caches_.dataLineBytes()}));
        const unsigned i_page_shift = static_cast<unsigned>(
            std::countr_zero(tlbs_.instrPageBytes()));
        const unsigned d_page_shift = static_cast<unsigned>(
            std::countr_zero(tlbs_.dataPageBytes()));
        std::uint64_t last_iline = kNoRun, last_ipage = kNoRun;
        std::uint64_t last_dline = kNoRun, last_dpage = kNoRun;
        std::uint64_t irun = 0, iprun = 0, drun = 0, dprun = 0;
        auto flushRuns = [&] {
            if (irun) {
                caches_.repeatInstrHits(irun);
                irun = 0;
            }
            if (iprun) {
                tlbs_.repeatInstrHits(iprun);
                iprun = 0;
            }
            if (drun) {
                caches_.repeatDataHits(drun);
                drun = 0;
            }
            if (dprun) {
                tlbs_.repeatDataHits(dprun);
                dprun = 0;
            }
        };

        // Sampled chunk-boundary audits: every kAuditChunkInterval-th
        // chunk when a trail is attached (the mid-run invariants hold
        // with runs still open — pending repeats only add counts).
        constexpr std::uint64_t kAuditChunkInterval = 16;

        std::uint64_t remaining = count;
        while (remaining > 0) {
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(remaining,
                                        trace::kRecordBatchCapacity));
            remaining -= n;
            // Keep the 32-bit stamps in range for this chunk.  Open
            // runs are flushed first (splitting a run is exact, see
            // Cache::repeatLastHit) so no earlier record's ticks are
            // still pending; the check is per chunk, not per access.
            flushRuns();
            caches_.reserveTicks(n);
            tlbs_.reserveTicks(n);
            if (trail_ && ++audit_chunks_ % kAuditChunkInterval == 0)
                auditPoint(/*post_prewarm=*/false);

            std::size_t branches_in_chunk = 0;
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t pc = 0, address = 0;
                trace::OpClass op = trace::OpClass::IntAlu;
                std::uint32_t id = 0;
                bool taken = false, in_kernel = false;
                generator.step(pc, op, address, id, taken, in_kernel);

                std::uint64_t iline = pc >> i_line_shift;
                if (iline == last_iline) {
                    ++irun;
                } else {
                    if (irun) {
                        caches_.repeatInstrHits(irun);
                        irun = 0;
                    }
                    caches_.accessInstr(pc);
                    last_iline = iline;
                }
                std::uint64_t ipage = pc >> i_page_shift;
                if (ipage == last_ipage) {
                    ++iprun;
                } else {
                    if (iprun) {
                        tlbs_.repeatInstrHits(iprun);
                        iprun = 0;
                    }
                    tlbs_.accessInstr(pc);
                    last_ipage = ipage;
                }

                if constexpr (Record) {
                    kernel += in_kernel ? 1 : 0;
                    ++retired[static_cast<std::size_t>(op)];
                }
                if (op == trace::OpClass::Branch) {
                    branch_pc[branches_in_chunk] = pc;
                    branch_id[branches_in_chunk] = id;
                    branch_taken[branches_in_chunk] = taken ? 1 : 0;
                    ++branches_in_chunk;
                } else if (op == trace::OpClass::Load ||
                           op == trace::OpClass::Store) {
                    std::uint64_t dline = address >> d_line_shift;
                    if (dline == last_dline) {
                        ++drun;
                    } else {
                        if (drun) {
                            caches_.repeatDataHits(drun);
                            drun = 0;
                        }
                        caches_.accessData(address, pc);
                        last_dline = dline;
                    }
                    std::uint64_t dpage = address >> d_page_shift;
                    if (dpage == last_dpage) {
                        ++dprun;
                    } else {
                        if (dprun) {
                            tlbs_.repeatDataHits(dprun);
                            dprun = 0;
                        }
                        tlbs_.accessData(address);
                        last_dpage = dpage;
                    }
                }
            }

            // Resolve the chunk's branches through the predictor's
            // batch kernel (also needed when not recording: predictor
            // state must advance through warm-up windows).
            predictor.updateBatch(branch_pc.data(), branch_id.data(),
                                  branch_taken.data(),
                                  branch_mispred.data(),
                                  branches_in_chunk);
            if constexpr (Record) {
                for (std::size_t k = 0; k < branches_in_chunk; ++k) {
                    taken_branches += branch_taken[k];
                    mispredictions += branch_mispred[k];
                }
            }
        }

        // Flush the trailing runs so the window's counters are
        // complete before the closing snapshot.
        flushRuns();

        if constexpr (Record) {
            PerfCounters &c = *record;
            c.instructions += count;
            c.kernel_instructions += kernel;
            auto of = [&retired](trace::OpClass op) {
                return retired[static_cast<std::size_t>(op)];
            };
            c.loads += of(trace::OpClass::Load);
            c.stores += of(trace::OpClass::Store);
            c.fp_ops += of(trace::OpClass::FpAlu);
            c.simd_ops += of(trace::OpClass::Simd);
            c.branches += of(trace::OpClass::Branch);
            c.taken_branches += taken_branches;
            c.branch_mispredictions += mispredictions;
            addDelta(c, start, capture(caches_, tlbs_));
        }
    }

    /** Move the verify.* counters for the audit point that started
     *  with @p before violations on the trail. */
    void
    countAudit(std::size_t before)
    {
        static obs::Counter &audits =
            obs::Registry::global().counter("verify.audits");
        static obs::Counter &violations =
            obs::Registry::global().counter("verify.violations");
        audits.add();
        violations.add(trail_->violations.size() - before);
    }

    CacheHierarchy caches_;
    TlbHierarchy tlbs_;
    PredictorVariant predictor_;
    verify::AuditTrail *trail_ = nullptr;
    std::uint64_t audit_chunks_ = 0;
};

/** One phase of a run: an effective profile plus exact window counts. */
struct PhaseWindow
{
    trace::WorkloadProfile effective; //!< Machine-transformed profile.
    std::uint64_t warmup = 0;         //!< Records excluded from counters.
    std::uint64_t instructions = 0;   //!< Measured records.
};

/** @p profile as @p machine runs it under @p config. */
trace::WorkloadProfile
effectiveProfile(const trace::WorkloadProfile &profile,
                 const MachineConfig &machine, const SimulationConfig &config)
{
    return config.apply_machine_transform
               ? transformForMachine(profile, machine)
               : profile;
}

/**
 * The measurement: play @p phases in order over one set of machine
 * structures (caches, TLBs and predictor state carry across phase
 * boundaries, as on hardware) and return one result per phase.  Each
 * phase prewarms (when enabled), plays its warm-up window, closes out
 * prefetch attribution and plays its measured window from a fresh
 * generator.  A non-null @p trail collects audit evidence; a null one
 * audits nothing.
 */
std::vector<SimulationResult>
runPhases(std::span<const PhaseWindow> phases, const MachineConfig &machine,
          const SimulationConfig &config, verify::AuditTrail *trail)
{
    Playback playback(machine);
    playback.attachAudit(trail);

    std::vector<SimulationResult> results;
    results.reserve(phases.size());
    for (const PhaseWindow &phase : phases) {
        if (config.prewarm) {
            playback.prewarm(phase.effective, machine);
            // The prewarm-boundary fill invariants only hold while the
            // structures are untouched; later phases warm into state
            // the previous phase left behind.
            playback.auditPoint(/*post_prewarm=*/results.empty());
        }

        trace::TraceGenerator generator(phase.effective, config.seed_salt);
        playback.play(generator, phase.warmup, nullptr);
        playback.retireUnusedPrefetches();

        SimulationResult &result = results.emplace_back();
        playback.play(generator, phase.instructions, &result.counters);
        result.cpi_stack = computeCpiStack(result.counters,
                                           machine.latencies,
                                           phase.effective.exec);
        result.power = computePower(result.counters,
                                    result.cpi_stack.total(), machine.power);
        if (trail)
            playback.auditWindow(result.counters, machine);

        // Surfaced in the run manifest so the prefetch-vs-demand-miss
        // separation (lint rule SL014) is checkable from artifacts alone.
        if (result.counters.prefetch_fills != 0) {
            static obs::Counter &prefetch_fills =
                obs::Registry::global().counter("uarch.prefetch.fills");
            prefetch_fills.add(result.counters.prefetch_fills);
        }
    }
    playback.auditPoint(/*post_prewarm=*/false);
    return results;
}

} // namespace

SimulationResult
simulate(const trace::WorkloadProfile &profile, const MachineConfig &machine,
         const SimulationConfig &config, verify::AuditTrail *trail)
{
    const PhaseWindow phase{effectiveProfile(profile, machine, config),
                            config.warmup, config.instructions};
    return std::move(runPhases({&phase, 1}, machine, config, trail).front());
}

bool
bitIdentical(const SimulationResult &a, const SimulationResult &b)
{
    return a.words() == b.words();
}

PhasedSimulationResult
simulatePhased(const trace::PhasedWorkload &workload,
               const MachineConfig &machine, const SimulationConfig &config,
               verify::AuditTrail *trail)
{
    workload.validate();

    // Each phase gets a weight-proportional share of both windows,
    // never less than one record.
    std::vector<PhaseWindow> phases;
    phases.reserve(workload.phases.size());
    for (const trace::Phase &phase : workload.phases) {
        auto share = [&phase](std::uint64_t total) {
            return std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       phase.weight * static_cast<double>(total)));
        };
        phases.push_back({effectiveProfile(phase.profile, machine, config),
                          share(config.warmup), share(config.instructions)});
    }

    PhasedSimulationResult result;
    result.per_phase = runPhases(phases, machine, config, trail);
    for (std::size_t i = 0; i < phases.size(); ++i) {
        result.combined_counters += result.per_phase[i].counters;
        result.combined_cpi +=
            workload.phases[i].weight * result.per_phase[i].cpi();
    }
    return result;
}

} // namespace uarch
} // namespace speclens

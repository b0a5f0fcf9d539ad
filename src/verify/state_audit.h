/**
 * @file
 * Structural invariant prover over live simulator state.
 *
 * The auditor walks the private state of the cache hierarchy, the TLB
 * hierarchy and the branch predictor (it is a friend of each) and
 * proves the invariants catalogued in DESIGN.md section 5f:
 *
 *   cache      tags inside the address domain, no duplicate lines per
 *              set, invalid ways form a suffix, LRU stamps in [1, tick]
 *              and unique per set, tick within a 32-bit stamp (no
 *              missed rebase), tree-PLRU node word in domain,
 *              hits <= accesses
 *   way pred   table shape matches the configured kind (one partition
 *              for MRU, two for multi-MRU, none when off), every
 *              predicted way inside the associativity, and the
 *              hit+mispredict total bounded by the cache's hits
 *   TLB        power-of-two page size, L2 reach covers the L1s,
 *              page_walks == l2tlb misses <= itlb+dtlb misses,
 *              plus the cache invariants on each level
 *   predictor  saturating-counter range, history-register width,
 *              table-index domain (size == mask+1) for all four kinds
 *   prefetcher per-slot bit domain, bits only on valid L2 ways, the
 *              accounting identity fills == useful + evicted +
 *              resident bits, stride-table shape/confidence range and
 *              stream-window ring bounds for the configured engine
 *   DRAM       bank-state vector shapes, open-row flags boolean, open
 *              rows inside the address-derived row domain, row hits
 *              bounded by accesses, and the exact busy/budget cycle
 *              identities of the open-page policy
 *   prewarm    the survivor set is a legal end-state: after a
 *              prefetch-free prewarm, the stamps of every LRU set
 *              increase cyclically from its oldest way
 *
 * Every audit entry point appends Violation records; a clean structure
 * appends nothing.  The auditor only reads; the seeded-corruption tests
 * write private state through StateAuditor::TestAccess, which only
 * tests/ defines.
 */

#ifndef SPECLENS_VERIFY_STATE_AUDIT_H
#define SPECLENS_VERIFY_STATE_AUDIT_H

#include <cstddef>
#include <vector>

#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/tlb.h"
#include "verify/violation.h"

namespace speclens {
namespace verify {

class StateAuditor {
  public:
    /// Upper bound on violations appended by one audit* call so a
    /// corrupt structure cannot flood memory with millions of records.
    static constexpr std::size_t kMaxViolationsPerAudit = 64;

    /** Audit one cache (or TLB level) under the given instance name. */
    static void auditCache(const uarch::Cache &cache,
                           std::vector<Violation> &out);

    /**
     * Audit every level of a cache hierarchy, the prefetcher
     * accounting (when a prefetcher is configured) and the DRAM bank
     * state (when the hierarchy has a DRAM model).
     */
    static void auditCaches(const uarch::CacheHierarchy &caches,
                            std::vector<Violation> &out);

    /**
     * Audit the prefetcher state: bit domain, bits only on valid L2
     * ways, the fills == useful + evicted + resident identity, and
     * the engine table shapes (stride confidence, stream ring).
     */
    static void auditPrefetcher(const uarch::CacheHierarchy &caches,
                                std::vector<Violation> &out);

    /** Audit the DRAM bank/row state and cycle identities. */
    static void auditDram(const uarch::DramModel &dram,
                          std::vector<Violation> &out);

    /** Audit TLB geometry, walk counters and the per-level caches. */
    static void auditTlbs(const uarch::TlbHierarchy &tlbs,
                          std::vector<Violation> &out);

    /** Audit whichever predictor the variant holds. */
    static void auditPredictor(const uarch::PredictorVariant &predictor,
                               std::vector<Violation> &out);

    /**
     * Post-prewarm audit: on top of the structural invariants, prove
     * the survivor set of every LRU level is a legal end-state of a
     * pure fill stream (stamps increase cyclically from the oldest
     * way) when the prefetcher is off.  Only valid at the prewarm ->
     * measurement boundary: demand accesses re-stamp arbitrary ways.
     */
    static void auditPrewarm(const uarch::CacheHierarchy &caches,
                             const uarch::TlbHierarchy &tlbs,
                             std::vector<Violation> &out);

    /** Full structural audit of one simulation's state. */
    static void auditAll(const uarch::CacheHierarchy &caches,
                         const uarch::TlbHierarchy &tlbs,
                         const uarch::PredictorVariant &predictor,
                         std::vector<Violation> &out);

    /**
     * The test-side window into private simulator state.  Left
     * incomplete here and defined only under tests/ (see
     * tests/verify/test_access.h): as a member of the auditor it
     * shares the auditor's friend grants, so the corruption and
     * prewarm-equivalence tests need no hook in production code.
     */
    struct TestAccess;

  private:
    // Out-of-line helpers that read private structure state; member
    // functions so the friend grants extend to them.
    static void auditBimodal(const char *structure,
                             const uarch::BimodalPredictor &p,
                             std::vector<Violation> &out);
    static void auditGshare(const char *structure,
                            const uarch::GsharePredictor &p,
                            std::vector<Violation> &out);
    static void auditCacheFillState(const uarch::Cache &cache,
                                    std::vector<Violation> &out);
};

} // namespace verify
} // namespace speclens

#endif // SPECLENS_VERIFY_STATE_AUDIT_H

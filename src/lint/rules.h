/**
 * @file
 * The battery of shipped lint rules.
 *
 * Codes are stable and documented in DESIGN.md:
 *
 * | Code  | Name               | Verifies                                |
 * |-------|--------------------|-----------------------------------------|
 * | SL001 | mix-range          | instruction-mix fractions in [0,1]      |
 * | SL002 | mix-sum            | working-set weights sum to 1            |
 * | SL003 | cpi-components     | non-negative CPI terms, icount > 0      |
 * | SL004 | working-set-shape  | set sizes increase, strides sane        |
 * | SL005 | code-model         | hot code within code footprint          |
 * | SL006 | branch-model       | branch-population probabilities         |
 * | SL007 | cache-monotonic    | cache size/latency grow with level      |
 * | SL008 | cache-geometry     | per-cache geometry (lines, ways, sets)  |
 * | SL009 | tlb-config         | TLB entries/ways/pages, L2 TLB covers L1|
 * | SL010 | machine-config     | frequency, predictor and power sanity   |
 * | SL011 | transform          | ISA/compiler transform keeps mixes valid|
 * | SL012 | cross-reference    | partner links, unique names/ids, counts |
 * | SL013 | input-sets         | variant counts/names/models resolve     |
 * | SL014 | score-database     | finite positive speedups for every pair |
 * | SL015 | paper-bounds       | Table I/II envelopes (deep: simulated)  |
 * | SL016 | store-integrity    | artifact-store entries verify and match |
 * | SL017 | degenerate-features| feature columns vary (deep: simulated)  |
 * | SL018 | store-result-audit | stored counters obey accounting identities|
 * | SL019 | store-metric-range | stored metrics in physical envelopes    |
 * | SL020 | (retired)          | code not reused                         |
 * | SL021 | (retired)          | code not reused                         |
 * | SL022 | manifest-schema    | run-manifest.json carries the v1 schema |
 * | SL023 | manifest-store     | manifest totals match the store on disk |
 * | SL024 | store-phased       | phased entries combine exactly          |
 * | SL025 | store-shard-layout | entries sit in their fingerprint shard  |
 * | SL026 | memory-metric-range| stored memory-centric metrics in range  |
 */

#ifndef SPECLENS_LINT_RULES_H
#define SPECLENS_LINT_RULES_H

#include <memory>
#include <vector>

#include "lint/rule.h"

namespace speclens {
namespace lint {

/** All shipped rules in code order. */
std::vector<std::unique_ptr<Rule>> defaultRules();

/**
 * The shipped rule with diagnostic code @p code ("SL001"...).
 * @throws std::invalid_argument on unknown codes.
 */
std::unique_ptr<Rule> ruleByCode(const std::string &code);

} // namespace lint
} // namespace speclens

#endif // SPECLENS_LINT_RULES_H

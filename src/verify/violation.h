/**
 * @file
 * Structured invariant-violation records produced by the state auditor,
 * uarch::checkMachineConfig, uarch::checkCounterIdentities and
 * trace::checkWorkloadProfile.
 *
 * A Violation names the structure it was found in (cache/TLB/predictor
 * instance, or the lint family / counter group that owns a config or
 * counter invariant), the invariant that failed, the location inside
 * the structure (set/way/table index, config field) and a
 * human-readable detail string with the offending values.  An AuditTrail accumulates violations
 * across the audit points of one simulation.
 */

#ifndef SPECLENS_VERIFY_VIOLATION_H
#define SPECLENS_VERIFY_VIOLATION_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace speclens {
namespace verify {

/** One failed structural invariant. */
struct Violation {
    /// Structure instance, e.g. "l1d" or "predictor/gshare".
    std::string structure;
    /// Invariant identifier, e.g. "stamp-unique" or "counter-range".
    std::string invariant;
    /// Location within the structure, e.g. "set 3 way 1" ("" if global).
    std::string location;
    /// Offending values, e.g. "stamp 7 duplicated".
    std::string detail;
};

/** Render a violation as a single diagnostic line. */
std::string renderViolation(const Violation &violation);

/** Shortest stream rendering of @p value, for violation details. */
std::string renderValue(double value);

/** Appends violations of one family (Violation::structure) to @p out. */
struct Reporter
{
    std::vector<Violation> &out;
    const char *family;

    void
    operator()(std::string location, const char *invariant,
               std::string detail) const
    {
        out.push_back({family, invariant, std::move(location),
                       std::move(detail)});
    }
};

/**
 * Accumulated audit evidence for one simulation.  `audits` counts the
 * audit points that ran; `violations` holds every failed invariant
 * (capped per audit point so a corrupt structure cannot flood memory).
 */
struct AuditTrail {
    std::uint64_t audits = 0;
    std::vector<Violation> violations;

    bool clean() const { return violations.empty(); }
};

} // namespace verify
} // namespace speclens

#endif // SPECLENS_VERIFY_VIOLATION_H

/**
 * @file
 * The reproduction registry: every table and figure SpecLens
 * regenerates from the paper, keyed by name.
 *
 * The paper runs one measurement campaign (43 benchmarks on seven
 * machines) and reads every table and figure off it.  Each entry here
 * renders one of those artifacts from a shared ServiceContext, so a
 * run of several entries measures each (benchmark, machine) pair once:
 * the context's Characterizer memo and store absorb the overlap.
 * `speclens repro --list | NAME... | --all` is the front end.
 *
 * A render is a pure function of the context's window and seed salt:
 * it returns the artifact's text and never writes to stdout or stderr,
 * and it renders the same bytes on a fresh context as on one other
 * entries have already warmed (the `repro` ctest label checks both).
 * A render that cannot produce its artifact throws.
 */

#ifndef SPECLENS_CORE_REPRODUCTIONS_H
#define SPECLENS_CORE_REPRODUCTIONS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/service_context.h"

namespace speclens {
namespace core {

/** Measured instructions per pair every reproduction is rendered at. */
constexpr std::uint64_t kReproductionInstructions = 150'000;

/** Warm-up instructions every reproduction is rendered at. */
constexpr std::uint64_t kReproductionWarmup = 40'000;

/** One reproduced table or figure. */
struct Reproduction
{
    /** Registry key, e.g. "table1_characterization". */
    const char *name;

    /** The paper artifact it reproduces, e.g. "Table I". */
    const char *artifact;

    /** Render the artifact over @p context; throws on failure. */
    std::string (*render)(ServiceContext &context);
};

/** Every reproduction, in the paper's order (`repro --all` order). */
const std::vector<Reproduction> &reproductions();

/** The reproduction named @p name; null when unknown. */
const Reproduction *findReproduction(const std::string &name);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_REPRODUCTIONS_H

/**
 * @file
 * Self-tests of the harness's own logic, run at the start of every
 * benchmark run: the percentile reporting rule, the seeded request mix
 * and span self time.  A failure makes the run's result incorrect.
 */

#ifndef PERFBENCH_SELFTEST_H
#define PERFBENCH_SELFTEST_H

#include <cstddef>

namespace perfbench {

/** Outcome of the self-tests. */
struct SelfTestResult
{
    std::size_t checks = 0;
    std::size_t failures = 0; //!< Each one is described on stderr.
};

SelfTestResult runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_H

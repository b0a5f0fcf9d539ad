/**
 * @file
 * Host-speed reference for normalizing CPU-bound operation times.
 *
 * On a shared virtual host the same code runs up to twice as slow from
 * one minute to the next.  The calibration loop is fixed work owned by
 * the harness (no SpecLens code, so no change to the program can move
 * it): LCG-driven updates and reads over a 256 KiB table, a mix of
 * dependent arithmetic and L2-resident memory access.  Timing it right
 * before and after an operation, on the threads the operation keeps
 * busy, measures how fast the host was meanwhile.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstddef>

namespace perfbench {

/**
 * The calibration loop's time on the reference host (the 4-vCPU virtual
 * machine the benchmark was built on) in a quiet minute.  Scaling a
 * CPU-bound time by this over the calibration measured around it gives
 * the time at the reference speed.
 */
inline constexpr double kReferenceCalibrationSeconds = 0.012;

/**
 * Seconds the calibration loop takes, run on @p threads threads at
 * once (the mean over the threads; 1 = on the calling thread).
 */
double calibrationSeconds(std::size_t threads);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H

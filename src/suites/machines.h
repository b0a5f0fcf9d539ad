/**
 * @file
 * The seven profiling machines of Table IV, plus the machine subsets
 * used by specific analyses: the three Intel boxes with RAPL power
 * measurement (Section V-C) and the four machines of the sensitivity
 * study (Section V-G).
 */

#ifndef SPECLENS_SUITES_MACHINES_H
#define SPECLENS_SUITES_MACHINES_H

#include <string>
#include <vector>

#include "uarch/machine.h"

namespace speclens {
namespace suites {

/**
 * All seven Table IV machines:
 *
 * | Processor             | ISA   | L1     | L2    | LLC  |
 * |-----------------------|-------|--------|-------|------|
 * | Intel Core i7-6700    | x86   | 2x32KB | 256KB | 8MB  |
 * | Intel Xeon E5-2650 v4 | x86   | 2x32KB | 256KB | 30MB |
 * | Intel Xeon E5-2430 v2 | x86   | 2x32KB | 256KB | 15MB |
 * | Intel Xeon E5405      | x86   | 2x32KB | 6MB   | none |
 * | SPARC-IV+ v490        | SPARC | 2x64KB | 2MB   | 32MB |
 * | SPARC T4              | SPARC | 2x16KB | 128KB | 4MB  |
 * | AMD Opteron 2435      | x86   | 2x64KB | 512KB | 6MB  |
 */
const std::vector<uarch::MachineConfig> &profilingMachines();

/** The Skylake i7-6700 used for the Section II characterization. */
const uarch::MachineConfig &skylakeMachine();

/** The four machines of the Table IX sensitivity classification. */
const std::vector<uarch::MachineConfig> &sensitivityMachines();

/**
 * Skylake-derived variants for the memory-centric analysis family:
 * a DRAM-only baseline (prefetcher off) plus one variant per
 * uarch::PrefetcherKind, each with the DRAM row-buffer model and cache
 * way prediction enabled.  Distinct short names ("skylake-dram",
 * "skylake-nl", "skylake-stride", "skylake-stream") keep manifests,
 * feature-matrix labels and store fingerprints separable.
 */
const std::vector<uarch::MachineConfig> &memoryCentricMachines();

/**
 * The prefetcher ablation's Skylake with a degree-4 L2 stream
 * prefetcher.  It keeps Skylake's name on purpose: the ISA/compiler
 * jitter stream is seeded from the name, so both ablation arms see
 * the identical transformed workload and the comparison isolates the
 * prefetcher.  Store entries still never collide: the prefetch degree
 * is part of the machine fingerprint.
 */
uarch::MachineConfig prefetchAblationMachine();

/** Look up a machine by short name ("skylake", "sparc-t4", ...). */
const uarch::MachineConfig &machineByShortName(const std::string &name);

} // namespace suites
} // namespace speclens

#endif // SPECLENS_SUITES_MACHINES_H

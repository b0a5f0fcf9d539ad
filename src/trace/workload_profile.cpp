/**
 * @file
 * Workload profile invariants and fingerprints.
 */

#include "workload_profile.h"

#include <cmath>
#include <stdexcept>

#include "stats/rng.h"
#include "trace/address_stream.h"

namespace speclens {
namespace trace {

namespace {

using verify::Reporter;

const auto num = verify::renderValue;

/** A finite probability; NaN and infinities fail. */
bool
inUnit(double v)
{
    return v >= 0.0 && v <= 1.0;
}

/** A finite value of at least @p lo; NaN and infinities fail. */
bool
finiteAtLeast(double v, double lo)
{
    return std::isfinite(v) && v >= lo;
}

void
checkProbability(const Reporter &fail, const char *field, double value)
{
    if (!inUnit(value))
        fail(field, "probability",
             std::string(field) + " is " + num(value) +
                 ", outside [0, 1]");
}

void
checkMemory(std::vector<verify::Violation> &out, const MemoryModel &m)
{
    const Reporter sum{out, "mix-sum"};
    const Reporter shape{out, "working-set-shape"};
    for (std::size_t i = 0; i < m.data.size(); ++i) {
        const WorkingSet &ws = m.data[i];
        auto field = [i](const char *suffix) {
            return "memory.data[" + std::to_string(i) + "]" + suffix;
        };
        if (!(std::isfinite(ws.weight) && ws.weight > 0.0))
            sum(field(".weight"), "weight",
                "working-set weight is " + num(ws.weight) +
                    ", must be finite and positive");
        if (!finiteAtLeast(ws.bytes, 64.0))
            shape(field(".bytes"), "footprint",
                  "footprint is " + num(ws.bytes) +
                      " bytes, below one cache line or not finite");
        else if (ws.bytes > static_cast<double>(kDataRegionStride))
            shape(field(".bytes"), "address-domain",
                  "footprint is " + num(ws.bytes) +
                      " bytes, more than its data region holds (" +
                      num(static_cast<double>(kDataRegionStride)) + ")");
        if (!finiteAtLeast(ws.stride_bytes, 64.0))
            shape(field(".stride_bytes"), "stride",
                  "stride is " + num(ws.stride_bytes) +
                      " bytes, below one cache line or not finite");
        else if (ws.bytes < ws.stride_bytes)
            shape(field(""), "stride",
                  "footprint " + num(ws.bytes) +
                      " is smaller than its stride " +
                      num(ws.stride_bytes));
        if (!inUnit(ws.sequential))
            shape(field(".sequential"), "probability",
                  "sequential fraction is " + num(ws.sequential) +
                      ", outside [0, 1]");
    }

    const Reporter code{out, "code-model"};
    if (!finiteAtLeast(m.code_bytes, 64.0))
        code("memory.code_bytes", "footprint",
             "code footprint is " + num(m.code_bytes) +
                 " bytes, below one cache line or not finite");
    else if (m.code_bytes > static_cast<double>(kDataBase - kCodeBase))
        code("memory.code_bytes", "address-domain",
             "code footprint is " + num(m.code_bytes) +
                 " bytes, more than fits below the data regions (" +
                 num(static_cast<double>(kDataBase - kCodeBase)) + ")");
    if (!finiteAtLeast(m.hot_code_bytes, 64.0))
        code("memory.hot_code_bytes", "footprint",
             "hot code region is " + num(m.hot_code_bytes) +
                 " bytes, below one cache line or not finite");
    else if (m.hot_code_bytes > m.code_bytes)
        code("memory.hot_code_bytes", "hot-within-code",
             "hot code region (" + num(m.hot_code_bytes) +
                 " bytes) exceeds the code footprint (" +
                 num(m.code_bytes) + " bytes)");
    checkProbability(code, "memory.code_locality", m.code_locality);
}

} // namespace

std::vector<verify::Violation>
checkWorkloadProfile(const WorkloadProfile &profile)
{
    std::vector<verify::Violation> out;

    const Reporter cpi{out, "cpi-components"};
    if (profile.name.empty())
        cpi("name", "name", "profile has an empty name");
    if (!(std::isfinite(profile.dynamic_instructions_billions) &&
          profile.dynamic_instructions_billions > 0.0))
        cpi("dynamic_instructions_billions", "instruction-count",
            "instruction count is " +
                num(profile.dynamic_instructions_billions) +
                " billion, must be finite and positive");

    const Reporter mix{out, "mix-range"};
    const InstructionMix &m = profile.mix;
    checkProbability(mix, "mix.load", m.load);
    checkProbability(mix, "mix.store", m.store);
    checkProbability(mix, "mix.branch", m.branch);
    checkProbability(mix, "mix.fp", m.fp);
    checkProbability(mix, "mix.simd", m.simd);
    if (m.remainder() < 0.0)
        mix("mix", "sum",
            "mix fractions sum to " + num(1.0 - m.remainder()) +
                " > 1: no room for integer-ALU ops");

    checkMemory(out, profile.memory);

    const Reporter branch{out, "branch-model"};
    const BranchModel &b = profile.branch;
    if (b.static_branches == 0 || b.static_branches > (1u << 20))
        branch("branch.static_branches", "population",
               "static branch population is " +
                   std::to_string(b.static_branches) +
                   ", outside [1, 2^20]");
    checkProbability(branch, "branch.taken_fraction", b.taken_fraction);
    checkProbability(branch, "branch.biased_fraction", b.biased_fraction);
    checkProbability(branch, "branch.patterned_fraction",
                     b.patterned_fraction);

    const ExecutionModel &e = profile.exec;
    if (!(std::isfinite(e.base_cpi) && e.base_cpi > 0.0))
        cpi("exec.base_cpi", "cpi",
            "base CPI is " + num(e.base_cpi) +
                ", must be finite and positive");
    if (!finiteAtLeast(e.dependency_cpi, 0.0))
        cpi("exec.dependency_cpi", "cpi",
            "dependency CPI is " + num(e.dependency_cpi) +
                ", must be finite and >= 0");
    if (!finiteAtLeast(e.mlp, 1.0))
        cpi("exec.mlp", "mlp",
            "MLP divisor is " + num(e.mlp) + ", must be finite and >= 1");
    checkProbability(cpi, "exec.kernel_fraction", e.kernel_fraction);
    return out;
}

void
WorkloadProfile::validate() const
{
    std::vector<verify::Violation> found = checkWorkloadProfile(*this);
    if (!found.empty())
        throw std::invalid_argument(
            (name.empty() ? "workload" : name) + ": " +
            verify::renderViolation(found.front()));
}

std::uint64_t
WorkloadProfile::seed() const
{
    return stats::hashName(name);
}

// ---------------------------------------------------------------------
// Fingerprint hooks.  Each hook feeds its fields in declaration order,
// prefixed by a type tag so structurally identical models of different
// types cannot alias.  Adding a field to a model?  Feed it here too —
// the store_test round-trip suite cross-checks that profiles differing
// in any calibrated parameter get distinct fingerprints.
// ---------------------------------------------------------------------

void
InstructionMix::hashInto(stats::Fingerprinter &hasher) const
{
    hasher.tag("mix");
    hasher.f64(load);
    hasher.f64(store);
    hasher.f64(branch);
    hasher.f64(fp);
    hasher.f64(simd);
}

void
WorkingSet::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("wset");
    fp.f64(bytes);
    fp.f64(weight);
    fp.f64(sequential);
    fp.f64(stride_bytes);
}

void
MemoryModel::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("mem");
    for (const WorkingSet &ws : data)
        ws.hashInto(fp);
    fp.f64(code_bytes);
    fp.f64(code_locality);
    fp.f64(hot_code_bytes);
}

void
BranchModel::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("branch");
    fp.u64(static_branches);
    fp.f64(taken_fraction);
    fp.f64(biased_fraction);
    fp.f64(patterned_fraction);
}

void
ExecutionModel::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("exec");
    fp.f64(base_cpi);
    fp.f64(dependency_cpi);
    fp.f64(mlp);
    fp.f64(kernel_fraction);
}

void
WorkloadProfile::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("profile");
    fp.str(name);
    fp.f64(dynamic_instructions_billions);
    mix.hashInto(fp);
    memory.hashInto(fp);
    branch.hashInto(fp);
    exec.hashInto(fp);
}

std::uint64_t
WorkloadProfile::fingerprint() const
{
    stats::Fingerprinter fp;
    hashInto(fp);
    return fp.value();
}

} // namespace trace
} // namespace speclens

/**
 * @file
 * Phased workload implementation.
 */

#include "phased_workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/rng.h"

namespace speclens {
namespace trace {

std::vector<verify::Violation>
checkPhasedWorkload(const PhasedWorkload &workload)
{
    std::vector<verify::Violation> out;
    const verify::Reporter phased{out, "phased-workload"};
    if (workload.name.empty())
        phased("name", "name", "phased workload has an empty name");
    if (workload.phases.empty())
        phased("phases", "phase-count", "workload has no phases");
    auto field = [](std::size_t i, const std::string &path) {
        return "phases[" + std::to_string(i) + "]." + path;
    };
    double total = 0.0;
    bool weights_valid = true;
    for (std::size_t i = 0; i < workload.phases.size(); ++i) {
        const Phase &phase = workload.phases[i];
        // Negated so NaN fails too; simulatePhased casts weight * window
        // to an integer, which is undefined for NaN and infinity.
        if (!(std::isfinite(phase.weight) && phase.weight > 0.0)) {
            phased(field(i, "weight"), "weight",
                   "weight is " + verify::renderValue(phase.weight) +
                       ", must be finite and positive");
            weights_valid = false;
        }
        total += phase.weight;
        for (verify::Violation &v : checkWorkloadProfile(phase.profile)) {
            v.location = field(i, v.location);
            out.push_back(std::move(v));
        }
    }
    // A bad weight already makes the sum meaningless; report it once.
    if (weights_valid && !workload.phases.empty() &&
        std::fabs(total - 1.0) > 1e-6)
        phased("phases", "weight-sum",
               "weights sum to " + verify::renderValue(total) +
                   ", must sum to 1");
    return out;
}

void
PhasedWorkload::validate() const
{
    std::vector<verify::Violation> found = checkPhasedWorkload(*this);
    if (!found.empty())
        throw std::invalid_argument(
            (name.empty() ? "phased workload" : name) + ": " +
            verify::renderViolation(found.front()));
}

void
Phase::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("phase");
    profile.hashInto(fp);
    fp.f64(weight);
}

void
PhasedWorkload::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("phased");
    fp.str(name);
    fp.u64(phases.size());
    for (const Phase &phase : phases)
        phase.hashInto(fp);
}

std::uint64_t
PhasedWorkload::fingerprint() const
{
    stats::Fingerprinter fp;
    hashInto(fp);
    return fp.value();
}

PhasedWorkload
derivePhases(const WorkloadProfile &base, std::size_t num_phases,
             double drift)
{
    if (num_phases < 1)
        throw std::invalid_argument("derivePhases: need >= 1 phase");

    PhasedWorkload out;
    out.name = base.name;

    stats::Rng rng(stats::combineSeeds(base.seed(), 0x9a5e5u));

    // Raw positive weights, normalised below (deterministic Dirichlet
    // stand-in).
    std::vector<double> raw(num_phases);
    double total = 0.0;
    for (double &w : raw) {
        w = 0.25 + rng.uniform();
        total += w;
    }

    for (std::size_t k = 0; k < num_phases; ++k) {
        Phase phase;
        phase.weight = raw[k] / total;
        phase.profile = base;
        phase.profile.name =
            base.name + "@" + std::to_string(k + 1);

        auto drifted = [&rng, drift](double value, double relative) {
            double factor =
                1.0 + rng.gaussian(0.0, drift * relative);
            return value * std::clamp(factor, 0.25, 4.0);
        };

        WorkloadProfile &p = phase.profile;
        for (WorkingSet &ws : p.memory.data) {
            ws.bytes = std::max(ws.stride_bytes,
                                drifted(ws.bytes, 1.0));
            // Phase-dependent access emphasis: hot phases hammer one
            // set, scan phases another.
            ws.weight = std::max(1e-6, drifted(ws.weight, 0.6));
        }
        p.mix.load = std::clamp(drifted(p.mix.load, 0.3), 0.0, 0.6);
        p.mix.store = std::clamp(drifted(p.mix.store, 0.3), 0.0, 0.4);
        p.mix.branch =
            std::clamp(drifted(p.mix.branch, 0.25), 0.005, 0.4);
        // Independent drifts can overfill an FP-heavy mix: shrink the
        // drifted ops back to the base's share, keeping their ratio.
        // Only an overfull mix is touched, so every derivation that
        // never overfilled stays bit-identical.
        if (p.mix.remainder() < 0.0) {
            double drifted_share = p.mix.load + p.mix.store + p.mix.branch;
            double scale =
                (base.mix.load + base.mix.store + base.mix.branch) /
                drifted_share;
            p.mix.load *= scale;
            p.mix.store *= scale;
            p.mix.branch *= scale;
        }
        p.branch.biased_fraction = std::clamp(
            drifted(p.branch.biased_fraction, 0.08), 0.3, 0.995);
        p.memory.code_locality = std::clamp(
            drifted(p.memory.code_locality, 0.02), 0.5, 1.0);

        p.validate();
        out.phases.push_back(std::move(phase));
    }
    out.validate();
    return out;
}

} // namespace trace
} // namespace speclens

/**
 * @file
 * Deterministic pseudo-random number generation for SpecLens.
 *
 * Every stochastic component in the toolkit (synthetic trace generation,
 * the published-score database, random subset baselines) draws from this
 * generator so that a given (workload, machine, seed) triple always
 * produces identical results across runs and platforms.  The generator is
 * SplitMix64 (Steele et al., "Fast splittable pseudorandom number
 * generators", OOPSLA 2014): tiny state, full 64-bit period per stream,
 * and good equidistribution for the modest statistical demands here.
 */

#ifndef SPECLENS_STATS_RNG_H
#define SPECLENS_STATS_RNG_H

#include <cmath>
#include <cstdint>
#include <string_view>

namespace speclens {
namespace stats {

/**
 * Deterministic 64-bit PRNG (SplitMix64).
 *
 * Not cryptographically secure; intended only for reproducible synthetic
 * workload generation and Monte-Carlo style baselines.
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed)
        : state_(seed + kGamma), ahead_(mix(state_))
    {
    }

    /**
     * Next raw 64-bit value.  The output is computed one draw ahead:
     * the value returned now was mixed during the previous call, so a
     * caller's compare on it does not wait on the multiply chain (the
     * mix of the following state overlaps with the caller's work).
     * The output sequence is exactly SplitMix64's.
     */
    std::uint64_t
    next()
    {
        std::uint64_t out = ahead_;
        state_ += kGamma;
        ahead_ = mix(state_);
        return out;
    }

    /**
     * The 53-bit integer k behind the next uniform() = k * 2^-53.
     * Compare it with cut() values to classify one draw against
     * several probabilities.
     */
    std::uint64_t draw() { return next() >> 11; }

    /**
     * Integer cut of probability @p p: the number of draws k with
     * k * 2^-53 < p, i.e. ceil(p * 2^53) clamped to [0, 2^53] (0 for
     * NaN).  Scaling by 2^53 is exact and uniform() is exactly
     * k * 2^-53, so draw() < cut(p) answers exactly what uniform() < p
     * answers for the same draw — without the int-to-double
     * conversion and double compare on the branch's dependency chain.
     */
    static constexpr std::uint64_t
    cut(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kUnit;
        double scaled = p * 0x1.0p53; // exact: a power-of-two scale
        auto k = static_cast<std::uint64_t>(scaled); // floor, < 2^53
        return static_cast<double>(k) < scaled ? k + 1 : k;
    }

    /** Bernoulli trial: draw() < @p cut, true with probability p for
     *  @p cut = cut(p), and the same answer as uniform() < p. */
    bool drawBelow(std::uint64_t cut) { return draw() < cut; }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high-quality mantissa bits.
        return static_cast<double>(draw()) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n).  n must be > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Lemire-style rejection-free mapping is overkill here; the modulo
        // bias for n << 2^64 is far below the noise floor of any analysis.
        return next() % n;
    }

    /**
     * Standard normal variate (Box-Muller, one value per call).
     *
     * The cached second variate is intentionally discarded so that the
     * consumed stream length per call is constant, which keeps generated
     * traces bit-identical when unrelated call sites are reordered.
     */
    double
    gaussian()
    {
        double u1 = 1.0 - uniform(); // (0, 1]: avoids log(0)
        double u2 = uniform();
        double r = std::sqrt(-2.0 * std::log(u1));
        return r * std::cos(6.283185307179586 * u2);
    }

    /** Normal variate with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        return mean + stddev * gaussian();
    }

    /**
     * Geometrically distributed integer >= 0 with success probability p.
     * Used for reuse-distance sampling in the address stream generator.
     */
    std::uint64_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return ~0ull;
        double u = 1.0 - uniform();
        return static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - p));
    }

  private:
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;
    static constexpr std::uint64_t kUnit = 1ull << 53; //!< cut(1.0).

    /** SplitMix64 output function. */
    static std::uint64_t
    mix(std::uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t state_; //!< State of the draw in ahead_.
    std::uint64_t ahead_; //!< The output the next next() returns.
};

/**
 * Stable 64-bit FNV-1a hash of a string.
 *
 * Used to derive per-workload / per-machine seeds from their names so
 * that adding a new workload never perturbs the streams of existing ones.
 */
constexpr std::uint64_t
hashName(std::string_view name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Combine two 64-bit values into a new seed (boost::hash_combine style). */
constexpr std::uint64_t
combineSeeds(std::uint64_t a, std::uint64_t b)
{
    return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}

} // namespace stats
} // namespace speclens

#endif // SPECLENS_STATS_RNG_H

/**
 * @file
 * Low-overhead structured metrics: counters, gauges and timing spans.
 *
 * A measurement campaign should be able to explain itself: where
 * wall-time went (simulate vs. store I/O vs. PCA/clustering), how well
 * the fan-out threads were utilized, and why the artifact store rejected
 * entries.  This header is the single instrumentation substrate the
 * rest of SpecLens records into — the same measurement-first
 * discipline the paper applies to hardware, turned on the toolkit
 * itself.
 *
 * Three instrument kinds, all registered by dotted name in a global
 * Registry and exported together (obs/export.h):
 *
 *  - Counter: monotonically increasing u64 (events, bytes).
 *  - Gauge:   last-written double (utilization fractions, ratios).
 *  - Timing:  aggregate of recorded durations (count / total / min /
 *             max, nanoseconds on the monotonic clock), fed by the
 *             RAII Span.
 *
 * Overhead contract: one relaxed atomic op per counter bump and two
 * steady_clock reads per span, so instrumenting a path that simulates
 * even a few thousand instructions is noise (< 1%).  Hot call sites
 * cache the instrument reference in a function-local static, paying
 * the registry lookup once per process.
 *
 * Determinism contract: metrics NEVER touch stdout.  Exporters write
 * to files or stderr only, so the byte-identical-stdout guarantees of
 * the parallel engine and the artifact store hold with metrics on.
 */

#ifndef SPECLENS_OBS_METRICS_H
#define SPECLENS_OBS_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace speclens {
namespace obs {

/** Monotonic timestamp in nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Monotonically increasing event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written double value (stored as IEEE-754 bits). */
class Gauge
{
  public:
    void
    set(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bits_.store(bits, std::memory_order_relaxed);
    }

    double
    value() const
    {
        std::uint64_t bits = bits_.load(std::memory_order_relaxed);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void reset() { bits_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> bits_{0};
};

/** Aggregate view of one Timing instrument. */
struct TimingStats
{
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0; //!< 0 when count == 0.
    std::uint64_t max_ns = 0;
};

/** Duration aggregator (count / total / min / max, lock-free). */
class Timing
{
  public:
    void
    record(std::uint64_t ns)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        total_.fetch_add(ns, std::memory_order_relaxed);
        std::uint64_t seen = min_.load(std::memory_order_relaxed);
        while (ns < seen &&
               !min_.compare_exchange_weak(seen, ns,
                                           std::memory_order_relaxed)) {
        }
        seen = max_.load(std::memory_order_relaxed);
        while (ns > seen &&
               !max_.compare_exchange_weak(seen, ns,
                                           std::memory_order_relaxed)) {
        }
    }

    TimingStats
    stats() const
    {
        TimingStats out;
        out.count = count_.load(std::memory_order_relaxed);
        out.total_ns = total_.load(std::memory_order_relaxed);
        out.min_ns =
            out.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
        out.max_ns = max_.load(std::memory_order_relaxed);
        return out;
    }

    void
    reset()
    {
        count_.store(0, std::memory_order_relaxed);
        total_.store(0, std::memory_order_relaxed);
        min_.store(UINT64_MAX, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> total_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
};

/**
 * Point-in-time copy of every registered instrument, sorted by name
 * within each kind (the registry map is ordered).  This is the unit
 * the exporters (obs/export.h) and the run manifest consume.
 */
struct Snapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, TimingStats>> timings;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && timings.empty();
    }
};

/**
 * Named instrument registry.
 *
 * Instruments are created on first lookup and live as long as the
 * registry, so returned references are stable — hot paths cache them
 * in function-local statics.  All methods are thread-safe.
 *
 * Most code uses the process-wide Registry::global(); tests build
 * private instances for deterministic golden-file snapshots.
 */
class Registry
{
  public:
    /** The instrument named @p name, created on first use. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Timing &timing(const std::string &name);

    /** Copy of every instrument's current value, sorted by name. */
    Snapshot snapshot() const;

    /** Zero every registered instrument (tests). */
    void reset();

    /** The process-wide registry all shipped instrumentation uses. */
    static Registry &global();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Timing>> timings_;
};

/**
 * RAII timing span: records the enclosed scope's wall time into a
 * Timing on destruction.
 *
 *   static obs::Timing &t =
 *       obs::Registry::global().timing("stats.pca.fit");
 *   obs::Span span(t);
 */
class Span
{
  public:
    explicit Span(Timing &timing) : timing_(&timing), start_(nowNs()) {}
    ~Span() { timing_->record(nowNs() - start_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Timing *timing_;
    std::uint64_t start_;
};

} // namespace obs
} // namespace speclens

#endif // SPECLENS_OBS_METRICS_H

/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is opened around one call from the harness into a SpecLens
 * layer and closed when the call returns.  Each span records its name,
 * start and end (steady clock), the span that was open on the same
 * thread when it started (its parent) and the operation it belongs to
 * (a reproduction pass or a serve request), so all spans of one
 * operation share an identifier.  Spans stay in memory until the run
 * ends; write() then dumps them as CSV.
 *
 * Untraced operations pass a null Tracer to span(), which returns an
 * inert scope that reads no clock.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span. */
struct SpanRecord
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0 for a root span.
    std::uint32_t op = 0;     //!< Operation the span belongs to.
    std::uint32_t name = 0;   //!< Index into Tracer::names().
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/** Thread-safe span store (see file comment). */
class Tracer
{
  public:
    /** RAII span: opened by Tracer::span, recorded on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::uint32_t name, std::uint32_t op);
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope();

      private:
        Tracer *tracer_;
        SpanRecord record_;
    };

    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span on @p tracer; inert when @p tracer is null. */
    static Scope span(Tracer *tracer, const std::string &name,
                      std::uint32_t op);

    /** Copy of every closed span, in closing order. */
    std::vector<SpanRecord> spans() const;

    /** Span names, indexed by SpanRecord::name. */
    std::vector<std::string> names() const;

    /** Durations in seconds of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Sum of durations(@p name). */
    double total(const std::string &name) const;

    /** Write "id,parent,op,name,start_ns,end_ns" lines; false on error. */
    bool write(const std::string &path) const;

  private:
    std::uint32_t intern(const std::string &name);
    void record(const SpanRecord &span);

    const std::uint64_t origin_ns_;
    std::atomic<std::uint32_t> next_id_{1};

    mutable std::mutex mutex_; //!< Guards names_, ids_ and spans_.
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<SpanRecord> spans_;
};

/**
 * Self time of each span in nanoseconds, indexed like @p spans: its
 * duration minus the part of its interval covered by its direct
 * children (overlapping children count once).
 */
std::vector<std::uint64_t> selfTimes(const std::vector<SpanRecord> &spans);

/** Steady-clock now, in nanoseconds. */
std::uint64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_TRACER_H

/**
 * @file
 * Span recorder implementation.
 */

#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/** Innermost open span on this thread (0 when none). */
thread_local std::uint32_t t_current = 0;

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Tracer::Scope::Scope(Tracer *tracer, std::uint32_t name, std::uint32_t op)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    record_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
    record_.parent = t_current;
    record_.op = op;
    record_.name = name;
    t_current = record_.id;
    record_.start_ns = nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    record_.end_ns = nowNs();
    t_current = record_.parent;
    tracer_->record(record_);
}

Tracer::Tracer() : origin_ns_(nowNs()) {}

Tracer::Scope
Tracer::span(Tracer *tracer, const std::string &name, std::uint32_t op)
{
    return Scope(tracer, tracer ? tracer->intern(name) : 0, op);
}

std::uint32_t
Tracer::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted)
        names_.push_back(name);
    return it->second;
}

void
Tracer::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<std::string>
Tracer::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return names_;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    auto it = ids_.find(name);
    if (it == ids_.end())
        return out;
    for (const SpanRecord &span : spans_)
        if (span.name == it->second)
            out.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                          1e-9);
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

bool
Tracer::write(const std::string &path) const
{
    std::vector<SpanRecord> spans = this->spans();
    std::vector<std::string> names = this->names();
    std::ofstream out(path, std::ios::trunc);
    out << "id,parent,op,name,start_ns,end_ns\n";
    for (const SpanRecord &span : spans)
        out << span.id << ',' << span.parent << ',' << span.op << ','
            << names[span.name] << ',' << span.start_ns - origin_ns_ << ','
            << span.end_ns - origin_ns_ << '\n';
    return static_cast<bool>(out);
}

std::vector<std::uint64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // Child intervals of each span, clipped to the parent's interval.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans.size());
    for (const SpanRecord &span : spans) {
        auto it = index.find(span.parent);
        if (span.parent == 0 || it == index.end())
            continue;
        const SpanRecord &parent = spans[it->second];
        std::uint64_t start = std::max(span.start_ns, parent.start_ns);
        std::uint64_t end = std::min(span.end_ns, parent.end_ns);
        if (start < end)
            children[it->second].emplace_back(start, end);
    }

    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        std::uint64_t covered = 0, reach = 0;
        for (const auto &[start, end] : intervals) {
            std::uint64_t from = std::max(start, reach);
            if (end > from)
                covered += end - from;
            reach = std::max(reach, end);
        }
        self[i] = spans[i].end_ns - spans[i].start_ns - covered;
    }
    return self;
}

} // namespace perfbench

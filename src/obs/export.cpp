/**
 * @file
 * Metric exporter implementation.
 */

#include "export.h"
#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>

namespace speclens {
namespace obs {

namespace {

/** Prometheus metric name: `speclens_` + name with [^a-zA-Z0-9_] -> '_'. */
std::string
promName(const std::string &name)
{
    std::string out = "speclens_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** JSON-format a double; non-finite values degrade to 0 (JSON has no inf/nan). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return buffer;
}

void
promLine(std::string &out, const std::string &name, const char *type,
         const std::string &value)
{
    out += "# TYPE " + name + " " + type + "\n";
    out += name + " " + value + "\n";
}

} // namespace

ExportFormat
exportFormatFromName(const std::string &name)
{
    if (name == "prom" || name == "prometheus")
        return ExportFormat::Prometheus;
    if (name == "json")
        return ExportFormat::Json;
    throw std::invalid_argument(
        "unknown metrics format '" + name +
        "' (expected prom, prometheus or json)");
}

std::string
renderPrometheus(const Snapshot &snapshot)
{
    std::string out;
    for (const auto &[name, value] : snapshot.counters) {
        promLine(out, promName(name) + "_total", "counter",
                 std::to_string(value));
    }
    for (const auto &[name, value] : snapshot.gauges)
        promLine(out, promName(name), "gauge", jsonNumber(value));
    for (const auto &[name, stats] : snapshot.timings) {
        std::string base = promName(name);
        promLine(out, base + "_count", "counter",
                 std::to_string(stats.count));
        promLine(out, base + "_total_ns", "counter",
                 std::to_string(stats.total_ns));
        promLine(out, base + "_min_ns", "gauge",
                 std::to_string(stats.min_ns));
        promLine(out, base + "_max_ns", "gauge",
                 std::to_string(stats.max_ns));
    }
    return out;
}

std::string
renderJson(const Snapshot &snapshot)
{
    std::string out = "{\n  \"counters\": {";
    const char *sep = "";
    for (const auto &[name, value] : snapshot.counters) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": " + std::to_string(value);
        sep = ",";
    }
    out += snapshot.counters.empty() ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    sep = "";
    for (const auto &[name, value] : snapshot.gauges) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": " + jsonNumber(value);
        sep = ",";
    }
    out += snapshot.gauges.empty() ? "},\n" : "\n  },\n";

    out += "  \"timings\": {";
    sep = "";
    for (const auto &[name, stats] : snapshot.timings) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": {\"count\": " +
               std::to_string(stats.count) +
               ", \"total_ns\": " + std::to_string(stats.total_ns) +
               ", \"min_ns\": " + std::to_string(stats.min_ns) +
               ", \"max_ns\": " + std::to_string(stats.max_ns) + "}";
        sep = ",";
    }
    out += snapshot.timings.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

bool
writeMetricsFile(const std::string &path, ExportFormat format,
                 const Registry &registry)
{
    Snapshot snapshot = registry.snapshot();
    std::string rendered = format == ExportFormat::Json
                               ? renderJson(snapshot)
                               : renderPrometheus(snapshot);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (file)
        file.write(rendered.data(),
                   static_cast<std::streamsize>(rendered.size()));
    if (!file) {
        std::fprintf(stderr,
                     "[speclens-obs] warning: cannot write metrics to "
                     "%s\n",
                     path.c_str());
        return false;
    }
    return true;
}

namespace {

// Destination of the at-exit export.  Plain globals guarded by a
// mutex: exportAtExit may be called from option parsing in any thread,
// the atexit hook runs once on the main thread.
std::mutex g_export_mutex;
std::string g_export_path;
ExportFormat g_export_format = ExportFormat::Prometheus;

void
exportAtExitHook()
{
    std::string path;
    ExportFormat format;
    {
        std::lock_guard<std::mutex> lock(g_export_mutex);
        path = g_export_path;
        format = g_export_format;
    }
    if (!path.empty())
        writeMetricsFile(path, format);
}

} // namespace

void
exportAtExit(std::string path, ExportFormat format)
{
    // Touch the global registry first: statics destruct in reverse
    // construction order, so constructing it before registering the
    // hook guarantees the hook runs while the registry is alive.
    Registry::global();
    {
        std::lock_guard<std::mutex> lock(g_export_mutex);
        g_export_path = std::move(path);
        g_export_format = format;
    }
    static bool registered = (std::atexit(exportAtExitHook), true);
    (void)registered;
}

bool
validateJson(const std::string &text)
{
    return parseJson(text).has_value();
}

} // namespace obs
} // namespace speclens

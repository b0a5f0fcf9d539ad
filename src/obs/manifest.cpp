/**
 * @file
 * Run-manifest renderer implementation.
 */

#include "manifest.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <system_error>
#include <thread>

#include "export.h"
#include "json.h"

namespace speclens {
namespace obs {

namespace {

void
appendObject(
    std::string &out, const char *key,
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    out += "  \"";
    out += key;
    out += "\": {";
    const char *sep = "";
    for (const auto &[name, value] : fields) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": " + jsonQuote(value);
        sep = ",";
    }
    out += fields.empty() ? "},\n" : "\n  },\n";
}

void
appendObject(
    std::string &out, const char *key,
    const std::vector<std::pair<std::string, std::uint64_t>> &fields)
{
    out += "  \"";
    out += key;
    out += "\": {";
    const char *sep = "";
    for (const auto &[name, value] : fields) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": " + std::to_string(value);
        sep = ",";
    }
    out += fields.empty() ? "},\n" : "\n  },\n";
}

/** The metrics snapshot JSON, indented one level into the manifest. */
std::string
indentedMetrics(const Snapshot &snapshot)
{
    std::string flat = renderJson(snapshot);
    std::string out;
    out.reserve(flat.size() + 64);
    for (std::size_t i = 0; i < flat.size(); ++i) {
        out.push_back(flat[i]);
        if (flat[i] == '\n' && i + 1 < flat.size())
            out += "  ";
    }
    // renderJson ends with "}\n"; drop the trailing newline so the
    // caller controls what follows.
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

} // namespace

std::string
renderManifest(const Manifest &manifest)
{
    std::string out = "{\n";
    out += "  \"manifest_version\": " +
           std::to_string(manifest.manifest_version) + ",\n";
    out += "  \"engine_version\": " +
           std::to_string(manifest.engine_version) + ",\n";
    out += "  \"config_fingerprint\": " +
           jsonQuote(manifest.config_fingerprint) + ",\n";
    appendObject(out, "run", manifest.run);
    appendObject(out, "totals", manifest.totals);
    appendObject(out, "rejected", manifest.rejected);
    out += "  \"metrics\": " + indentedMetrics(manifest.metrics) + "\n";
    out += "}\n";
    return out;
}

bool
writeManifest(const std::string &path, const Manifest &manifest)
{
    // Temp file + atomic rename, the artifact store's idiom: a reader
    // (or a SIGINT arriving mid-write) never observes a half-written
    // manifest — either the previous one survives or the new one is
    // complete.  Orphaned `run-manifest.json.tmp*` files a killed
    // process leaves behind are swept when the store is next opened.
    std::string rendered = renderManifest(manifest);
    std::string temp =
        path + ".tmp" +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
        std::ofstream file(temp, std::ios::binary | std::ios::trunc);
        if (file)
            file.write(rendered.data(),
                       static_cast<std::streamsize>(rendered.size()));
        if (!file) {
            std::fprintf(
                stderr,
                "[speclens-obs] warning: cannot write manifest to "
                "%s\n",
                path.c_str());
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        std::fprintf(stderr,
                     "[speclens-obs] warning: cannot write manifest to "
                     "%s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace obs
} // namespace speclens

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

std::vector<ManifestDefect>
checkManifest(const JsonValue &doc, std::uint64_t engine_version)
{
    std::vector<ManifestDefect> defects;
    auto error = [&](std::string message, std::string fix_hint = "") {
        defects.push_back({false, std::move(message), std::move(fix_hint)});
    };
    std::uint64_t version = 0;
    if (!doc.u64("manifest_version", version) || version != 1)
        error("manifest_version is not 1",
              "this checker understands schema version 1 only");
    std::uint64_t engine = 0;
    if (!doc.u64("engine_version", engine))
        error("engine_version is not an unsigned integer");
    else if (engine != engine_version)
        defects.push_back({true,
                           "manifest was written by engine version " +
                               std::to_string(engine) + ", current is " +
                               std::to_string(engine_version),
                           "re-run the campaign to refresh it"});
    if (!doc.hex16("config_fingerprint"))
        error("config_fingerprint is not a 16-hex digest");
    for (const char *block : {"run", "totals", "rejected", "metrics"})
        if (!doc.find(block))
            error(std::string("missing manifest block \"") + block + "\"");
    const struct
    {
        const char *block;
        std::vector<const char *> keys;
    } counts[] = {
        {"totals", {"entries", "hits", "misses", "simulations", "saves"}},
        {"rejected",
         {"corrupt", "stale_version", "fingerprint_mismatch",
          "orphaned_temp"}},
    };
    for (const auto &c : counts) {
        if (!doc.find(c.block))
            continue;
        for (const char *key : c.keys) {
            std::uint64_t value = 0;
            if (!doc.u64(std::string(c.block) + "." + key, value))
                error(std::string(c.block) + " block lacks '" + key + "'");
        }
    }
    return defects;
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

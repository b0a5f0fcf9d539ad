/**
 * @file
 * Linter driver and report renderers.
 */

#include "linter.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "lint/rules.h"

namespace speclens {
namespace lint {

namespace {

/** JSON string escaping for the report renderer. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

ReportFormat
reportFormatFromName(const std::string &name)
{
    if (name == "text")
        return ReportFormat::Text;
    if (name == "json")
        return ReportFormat::Json;
    throw std::invalid_argument("unknown report format: " + name);
}

Linter::Linter() : rules_(defaultRules()) {}

Linter::Linter(std::vector<std::unique_ptr<Rule>> rules)
    : rules_(std::move(rules))
{
}

LintReport
Linter::run(const LintContext &context) const
{
    LintReport report;
    const StoreSnapshot store(context);
    const DeepCampaign deep(context);
    for (const std::unique_ptr<Rule> &rule : rules_) {
        rule->run(context, store, deep, report.diagnostics);
        ++report.rules_run;
    }
    return report;
}

std::string
renderText(const LintReport &report, Severity min_severity)
{
    std::ostringstream out;
    std::size_t shown = 0;
    for (const Diagnostic &d : report.diagnostics) {
        if (d.severity < min_severity)
            continue;
        ++shown;
        out << d.code << " [" << severityName(d.severity) << "] "
            << d.location << "\n    " << d.message << "\n";
        if (!d.fix_hint.empty())
            out << "    hint: " << d.fix_hint << "\n";
    }
    std::size_t hidden = report.diagnostics.size() - shown;
    out << "lint: " << report.rules_run << " rules, "
        << report.errors() << " errors, " << report.warnings()
        << " warnings";
    if (hidden > 0)
        out << " (" << hidden << " below severity filter)";
    out << "\n";
    return out.str();
}

std::string
renderJson(const LintReport &report, Severity min_severity)
{
    std::ostringstream out;
    out << "{\n  \"rules_run\": " << report.rules_run
        << ",\n  \"errors\": " << report.errors()
        << ",\n  \"warnings\": " << report.warnings()
        << ",\n  \"diagnostics\": [";
    bool first = true;
    for (const Diagnostic &d : report.diagnostics) {
        if (d.severity < min_severity)
            continue;
        out << (first ? "" : ",") << "\n    {\"code\": \""
            << jsonEscape(d.code) << "\", \"severity\": \""
            << severityName(d.severity) << "\", \"location\": \""
            << jsonEscape(d.location) << "\", \"message\": \""
            << jsonEscape(d.message) << "\", \"fix_hint\": \""
            << jsonEscape(d.fix_hint) << "\"}";
        first = false;
    }
    out << (first ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

} // namespace lint
} // namespace speclens

/**
 * @file
 * Violation rendering.
 */

#include "verify/violation.h"

#include <sstream>

namespace speclens {
namespace verify {

std::string
renderViolation(const Violation &v)
{
    std::string line = v.structure + ": " + v.invariant;
    if (!v.location.empty())
        line += " @ " + v.location;
    if (!v.detail.empty())
        line += ": " + v.detail;
    return line;
}

std::string
renderValue(double value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

} // namespace verify
} // namespace speclens

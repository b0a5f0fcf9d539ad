/**
 * @file
 * TLB hierarchy implementation.
 */

#include "tlb.h"

namespace speclens {
namespace uarch {

CacheConfig
TlbConfig::asCacheConfig() const
{
    CacheConfig c;
    c.name = name;
    c.size_bytes = static_cast<std::uint64_t>(entries) * page_bytes;
    c.associativity = associativity;
    c.line_bytes = static_cast<std::uint32_t>(page_bytes);
    c.policy = ReplacementPolicy::Lru;
    return c;
}

void
TlbConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("tlb");
    fp.str(name);
    fp.u64(entries);
    fp.u64(associativity);
    fp.u64(page_bytes);
}

void
TlbHierarchyConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("tlbs");
    itlb.hashInto(fp);
    dtlb.hashInto(fp);
    fp.boolean(l2tlb.has_value());
    if (l2tlb)
        l2tlb->hashInto(fp);
}

TlbHierarchy::TlbHierarchy(const TlbHierarchyConfig &config)
    : itlb_(config.itlb.asCacheConfig()),
      dtlb_(config.dtlb.asCacheConfig())
{
    if (config.l2tlb)
        l2tlb_ = std::make_unique<Cache>(config.l2tlb->asCacheConfig());
}

} // namespace uarch
} // namespace speclens

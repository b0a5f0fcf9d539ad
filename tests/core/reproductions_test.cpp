/**
 * @file
 * Reproduction registry tests (ctest label `repro`).
 *
 * The golden test pins one digest of every reproduced table and figure
 * at a small window, so an edit that changes any artifact's bytes fails
 * ctest instead of being found by hand.  It also proves that sharing
 * one ServiceContext across entries, as `speclens repro --all` does,
 * changes no output: each entry renders the same bytes on a fresh
 * context as on one every other entry has already warmed.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/reproductions.h"
#include "stats/fingerprint.h"

namespace speclens {
namespace core {
namespace {

/** The golden window: 5000 + 1500 instructions, seed salt 0. */
ServiceConfig
goldenConfig()
{
    ServiceConfig config;
    config.characterization.instructions = 5'000;
    config.characterization.warmup = 1'500;
    config.characterization.seed_salt = 0;
    return config;
}

TEST(Reproductions, RegistryNamesAreUniqueAndFindable)
{
    const std::vector<Reproduction> &all = reproductions();
    EXPECT_EQ(all.size(), 26u);
    std::set<std::string> names;
    for (const Reproduction &entry : all) {
        EXPECT_TRUE(names.insert(entry.name).second) << entry.name;
        EXPECT_NE(std::string(entry.artifact), "");
        EXPECT_NE(entry.render, nullptr);
        EXPECT_EQ(findReproduction(entry.name), &entry);
    }
    EXPECT_EQ(findReproduction("no_such_figure"), nullptr);
}

TEST(Reproductions, GoldenDigestAndSharedContextParity)
{
    const std::vector<Reproduction> &all = reproductions();

    // `repro --all`: every entry in order over one context.
    ServiceContext shared(goldenConfig());
    std::vector<std::string> in_order;
    std::string concatenated;
    for (const Reproduction &entry : all) {
        in_order.push_back(entry.render(shared));
        concatenated += in_order.back();
    }
    stats::Fingerprinter fp;
    fp.str(concatenated);
    EXPECT_EQ(stats::hex16(fp.value()), "2fbab90bf9a86318")
        << "the bytes of a reproduced table or figure changed; if that "
           "is intended, re-pin this digest and say which artifacts "
           "moved and why";

    // Each entry alone on a fresh context, and again on the shared
    // context now that every other entry has run on it.
    for (std::size_t i = 0; i < all.size(); ++i) {
        ServiceContext fresh(goldenConfig());
        EXPECT_EQ(all[i].render(fresh), in_order[i]) << all[i].name;
        EXPECT_EQ(all[i].render(shared), in_order[i]) << all[i].name;
    }
}

} // namespace
} // namespace core
} // namespace speclens

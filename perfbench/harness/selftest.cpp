/**
 * @file
 * Harness self-tests.
 */

#include "selftest.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "mix.h"
#include "percentile.h"
#include "tracer.h"

namespace perfbench {

namespace serve = speclens::serve;

namespace {

class Checker
{
  public:
    void
    expect(bool condition, const char *what)
    {
        ++result.checks;
        if (condition)
            return;
        ++result.failures;
        std::fprintf(stderr, "perfbench: self-test failed: %s\n", what);
    }

    SelfTestResult result;
};

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> samples;
    for (std::size_t i = n; i >= 1; --i) // descending: order must not matter
        samples.push_back(static_cast<double>(i));
    return samples;
}

void
testPercentiles(Checker &check)
{
    check.expect(median({3.0, 1.0, 2.0}).value == 2.0, "median of 3");
    check.expect(median({4.0, 1.0, 3.0, 2.0}).value == 2.5, "median of 4");
    check.expect(!median({}).reportable, "median of nothing");
    check.expect(median({7.0}).reportable && median({7.0}).samples == 1,
                 "median of 1 with its count");

    Quantile p90 = tail(ramp(100), 0.90);
    check.expect(p90.value == 90.0 && p90.beyond == 10 && p90.reportable,
                 "p90 of 100 samples has 10 beyond");
    Quantile short_p90 = tail(ramp(99), 0.90);
    check.expect(short_p90.beyond == 9 && !short_p90.reportable,
                 "p90 of 99 samples is withheld");
    check.expect(!tail(ramp(160), 0.99).reportable,
                 "p99 of 160 samples is withheld");

    double level = 0.0;
    Quantile best = highestTail(ramp(1000), level);
    check.expect(level == 0.99 && best.value == 990.0 && best.beyond == 10,
                 "highest tail of 1000 samples is p99");
    best = highestTail(ramp(160), level);
    check.expect(level == 0.90 && best.reportable,
                 "highest tail of 160 samples is p90");
    best = highestTail(ramp(20), level);
    check.expect(level == 0.0 && !best.reportable,
                 "20 samples report no tail");
    check.expect(describe("p90", p90).find("n=100") != std::string::npos,
                 "description carries the sample count");
}

std::string
encoded(const std::vector<serve::Request> &schedule)
{
    std::string out;
    for (const serve::Request &request : schedule)
        out += serve::encodeRequest(request) + "\n";
    return out;
}

void
testMix(Checker &check)
{
    constexpr std::size_t kBlocks = 8;
    check.expect(encoded(clientSchedule(7, 2, kBlocks)) ==
                     encoded(clientSchedule(7, 2, kBlocks)),
                 "same seed gives the same schedule");
    check.expect(encoded(clientSchedule(7, 2, kBlocks)) !=
                     encoded(clientSchedule(8, 2, kBlocks)),
                 "another seed gives another order");
    check.expect(encoded(clientSchedule(7, 1, kBlocks)) !=
                     encoded(clientSchedule(7, 2, kBlocks)),
                 "clients get their own streams");

    bool exact_mix = true, same_requests = true;
    for (std::size_t client = 0; client < 4; ++client) {
        std::vector<serve::Request> schedule =
            clientSchedule(11, client, kBlocks);
        for (std::size_t b = 0; b < kBlocks; ++b) {
            std::array<int, 6> ops{};
            std::vector<std::string> shuffled, original;
            for (std::size_t i = 0; i < kMixBlock; ++i) {
                const serve::Request &r = schedule[b * kMixBlock + i];
                ++ops[static_cast<std::size_t>(r.op)];
                shuffled.push_back(serve::encodeRequest(r));
                original.push_back(serve::encodeRequest(
                    mixedRequest(client, b * kMixBlock + i)));
            }
            exact_mix = exact_mix &&
                        ops[static_cast<int>(serve::Op::Characterize)] == 6 &&
                        ops[static_cast<int>(serve::Op::Subset)] == 2 &&
                        ops[static_cast<int>(serve::Op::Sensitivity)] == 1 &&
                        ops[static_cast<int>(serve::Op::Stats)] == 1;
            std::sort(shuffled.begin(), shuffled.end());
            std::sort(original.begin(), original.end());
            same_requests = same_requests && shuffled == original;
        }
    }
    check.expect(exact_mix, "every block is 6/2/1/1 characterize/subset/"
                            "sensitivity/stats");
    check.expect(same_requests,
                 "shuffling permutes the loadtest mix within a block");
}

void
testSelfTime(Checker &check)
{
    // Root [0,100] with children [10,30], [20,40] (overlapping) and
    // [50,60]; a grandchild [12,18] under the first child.
    std::vector<SpanRecord> spans = {
        {2, 1, 0, 0, 10, 30}, {3, 1, 0, 0, 20, 40}, {4, 1, 0, 0, 50, 60},
        {5, 2, 0, 0, 12, 18}, {1, 0, 0, 0, 0, 100},
    };
    std::vector<std::uint64_t> self = selfTimes(spans);
    check.expect(self[4] == 60, "root self time excludes the union of its "
                                "children");
    check.expect(self[0] == 14, "child self time excludes its grandchild");
    check.expect(self[2] == 10 && self[3] == 6, "leaf self time is its "
                                                "duration");

    Tracer tracer;
    {
        Tracer::Scope outer = Tracer::span(&tracer, "outer", 9);
        Tracer::Scope inner = Tracer::span(&tracer, "inner", 9);
        Tracer::Scope inert = Tracer::span(nullptr, "untraced", 9);
    }
    std::vector<SpanRecord> live = tracer.spans();
    check.expect(live.size() == 2 && live[0].parent == live[1].id &&
                     live[1].parent == 0 && live[0].op == 9,
                 "nested scopes record parent and operation; a null "
                 "tracer records nothing");
    check.expect(selfTimes(live)[1] <=
                     live[1].end_ns - live[1].start_ns,
                 "live self time is within the span");
}

} // namespace

SelfTestResult
runSelfTests()
{
    Checker check;
    testPercentiles(check);
    testMix(check);
    testSelfTime(check);
    return check.result;
}

} // namespace perfbench

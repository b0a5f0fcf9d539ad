/**
 * @file
 * Serve-daemon load test: M client threads fire a deterministic mix of
 * characterize / subset / sensitivity / stats queries at an in-process
 * server and the harness reports latency percentiles, store and memo
 * hit counts and in-flight dedup savings.
 *
 * Output conventions (the bench-suite contract):
 *  - stdout: deterministic facts only — the request mix, response-ok
 *    counts and the cross-client parity verdict.  Byte-identical
 *    across runs with the same flags.
 *  - stderr: timing — p50/p99 latency, throughput, hit rates.
 *  - --out FILE: the timing numbers as a small JSON artifact.  The
 *    file must NOT be named like a BENCH_<pr>.json trajectory (that
 *    schema is linted); the default name is serve_loadtest.json.
 *
 * Exit status is non-zero when any response fails or when two clients
 * receive different bytes for the same query — the daemon must be a
 * pure function of the request.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.h"
#include "core/option_parse.h"
#include "core/service_context.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace speclens;

namespace {

/** The deterministic request mix, indexed by (client, request). */
serve::Request
mixedRequest(std::size_t client, std::size_t index)
{
    static const char *kBenchmarks[] = {
        "505.mcf_r", "519.lbm_r", "557.xz_r", "605.mcf_s",
        "523.xalancbmk_r", "508.namd_r", "531.deepsjeng_r",
        "541.leela_r",
    };
    static const char *kCategories[] = {"rate-int", "speed-int",
                                        "rate-fp", "speed-fp"};
    static const char *kMetrics[] = {"branch", "l1d", "dtlb"};

    serve::Request request;
    std::size_t roll = (client * 7 + index) % 10;
    if (roll < 6) {
        // 60% characterize; step through the benchmark list so
        // concurrent clients keep colliding on the same cells (the
        // dedup path) without all asking the same question.
        request.op = serve::Op::Characterize;
        request.benchmarks = {kBenchmarks[(client + index) % 8]};
    } else if (roll < 8) {
        request.op = serve::Op::Subset;
        request.category = kCategories[(client + index) % 4];
        request.k = 3;
    } else if (roll < 9) {
        request.op = serve::Op::Sensitivity;
        request.metric = kMetrics[(client + index) % 3];
    } else {
        request.op = serve::Op::Stats;
    }
    return request;
}

/** Key identifying a query's expected-identical output. */
std::string
parityKey(const serve::Request &request)
{
    return serve::encodeRequest(request);
}

struct ClientResult
{
    std::vector<std::uint64_t> latencies_ns;
    std::size_t ok = 0;
    std::size_t failed = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::size_t clients = 8;
    std::size_t requests = 40;
    std::string out_path = "serve_loadtest.json";
    serve::ServerConfig config;
    core::CharacterizationConfig &window = config.service.characterization;
    window.instructions = 15'000;
    window.warmup = 5'000;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            std::printf(
                "usage: %s [--clients M] [--requests N] [--out FILE]\n"
                "       [--instructions N] [--warmup N] [--jobs N]\n"
                "       [--seed-salt N] [--store DIR]\n",
                argv[0]);
            return 0;
        }
        if (std::strcmp(argv[i], "--clients") == 0)
            clients = static_cast<std::size_t>(
                core::numericFlagValue("--clients", argc, argv, i));
        else if (std::strcmp(argv[i], "--requests") == 0)
            requests = static_cast<std::size_t>(
                core::numericFlagValue("--requests", argc, argv, i));
        else if (std::strcmp(argv[i], "--out") == 0)
            out_path = core::stringFlagValue("--out", argc, argv, i);
        else if (std::strcmp(argv[i], "--instructions") == 0)
            window.instructions =
                core::numericFlagValue("--instructions", argc, argv, i);
        else if (std::strcmp(argv[i], "--warmup") == 0)
            window.warmup =
                core::numericFlagValue("--warmup", argc, argv, i);
        else if (std::strcmp(argv[i], "--jobs") == 0)
            window.jobs = static_cast<std::size_t>(
                core::numericFlagValue("--jobs", argc, argv, i));
        else if (std::strcmp(argv[i], "--seed-salt") == 0)
            window.seed_salt =
                core::numericFlagValue("--seed-salt", argc, argv, i);
        else if (std::strcmp(argv[i], "--store") == 0)
            config.service.store_dir =
                core::stringFlagValue("--store", argc, argv, i);
        else {
            std::fprintf(stderr,
                         "unknown option: %s (try --help)\n", argv[i]);
            return 1;
        }
    }
    if (clients == 0 || requests == 0) {
        std::fprintf(stderr,
                     "error: --clients and --requests must be > 0\n");
        return 1;
    }

    serve::Server server(config);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::thread accept_thread([&server]() { server.serveForever(); });

    std::mutex parity_mutex;
    std::map<std::string, std::string> parity; // request -> output
    bool parity_ok = true;

    std::vector<ClientResult> results(clients);
    std::vector<std::thread> threads;
    auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            serve::Client client;
            std::string connect_error;
            if (!client.connect("127.0.0.1", server.port(),
                                &connect_error)) {
                results[c].failed = requests;
                return;
            }
            for (std::size_t r = 0; r < requests; ++r) {
                serve::Request request = mixedRequest(c, r);
                serve::Response response;
                std::string call_error;
                auto start = std::chrono::steady_clock::now();
                bool sent =
                    client.call(request, &response, &call_error);
                auto stop = std::chrono::steady_clock::now();
                if (!sent || !response.ok) {
                    ++results[c].failed;
                    continue;
                }
                ++results[c].ok;
                results[c].latencies_ns.push_back(
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(stop - start)
                            .count()));
                // `stats` output is intentionally run-dependent;
                // every other op must be a pure function of the
                // request.
                if (request.op != serve::Op::Stats) {
                    std::lock_guard<std::mutex> lock(parity_mutex);
                    auto [it, inserted] = parity.emplace(
                        parityKey(request), response.output);
                    if (!inserted && it->second != response.output)
                        parity_ok = false;
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    auto wall_stop = std::chrono::steady_clock::now();

    // Drain the server before reading its context counters.
    server.requestDrain();
    accept_thread.join();

    std::vector<std::uint64_t> latencies;
    std::size_t ok = 0, failed = 0;
    for (const ClientResult &result : results) {
        ok += result.ok;
        failed += result.failed;
        latencies.insert(latencies.end(),
                         result.latencies_ns.begin(),
                         result.latencies_ns.end());
    }
    std::sort(latencies.begin(), latencies.end());
    auto percentile = [&](double p) -> std::uint64_t {
        if (latencies.empty())
            return 0;
        std::size_t index = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[index];
    };
    double wall_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                wall_stop - wall_start)
                .count()) /
        1000.0;

    core::ServiceContext &context = *server.context();
    std::size_t simulations = context.simulationsRun();
    std::size_t store_hits = 0, dedup_shared = 0, memo_hits = 0;
    if (core::CampaignStore *store = context.store())
        store_hits = store->counters().hits;
    if (obs::kMetricsEnabled) {
        obs::Snapshot snapshot = obs::Registry::global().snapshot();
        for (const auto &[name, value] : snapshot.counters) {
            if (name == "core.characterize.dedup_shared")
                dedup_shared = static_cast<std::size_t>(value);
            if (name == "core.characterize.memo_hits")
                memo_hits = static_cast<std::size_t>(value);
        }
    }

    // ----- Deterministic facts (stdout) ----------------------------
    std::printf("serve loadtest: %zu clients x %zu requests\n",
                clients, requests);
    std::printf("responses: ok=%zu failed=%zu\n", ok, failed);
    std::printf("parity: identical responses across clients: %s\n",
                parity_ok ? "yes" : "NO");

    // ----- Timing (stderr) -----------------------------------------
    std::fprintf(stderr,
                 "latency: p50=%.3f ms p99=%.3f ms (n=%zu)\n",
                 static_cast<double>(percentile(0.50)) / 1e6,
                 static_cast<double>(percentile(0.99)) / 1e6,
                 latencies.size());
    std::fprintf(stderr,
                 "throughput: %.1f req/s (wall %.1f ms)\n",
                 wall_ms > 0.0 ? static_cast<double>(ok) * 1000.0 /
                                     wall_ms
                               : 0.0,
                 wall_ms);
    std::fprintf(stderr,
                 "reuse: simulations=%zu store_hits=%zu memo_hits=%zu "
                 "dedup_shared=%zu\n",
                 simulations, store_hits, memo_hits, dedup_shared);

    if (!out_path.empty()) {
        std::ofstream file(out_path, std::ios::trunc);
        if (!file) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        file << "{\n"
             << "  \"bench\": \"serve_loadtest\",\n"
             << "  \"clients\": " << clients << ",\n"
             << "  \"requests_per_client\": " << requests << ",\n"
             << "  \"ok\": " << ok << ",\n"
             << "  \"failed\": " << failed << ",\n"
             << "  \"parity\": " << (parity_ok ? "true" : "false")
             << ",\n"
             << "  \"p50_ns\": " << percentile(0.50) << ",\n"
             << "  \"p99_ns\": " << percentile(0.99) << ",\n"
             << "  \"wall_ms\": " << wall_ms << ",\n"
             << "  \"simulations\": " << simulations << ",\n"
             << "  \"store_hits\": " << store_hits << ",\n"
             << "  \"memo_hits\": " << memo_hits << ",\n"
             << "  \"dedup_shared\": " << dedup_shared << "\n"
             << "}\n";
    }

    return (failed == 0 && parity_ok) ? 0 : 1;
}

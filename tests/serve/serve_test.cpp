/**
 * @file
 * Serving-layer tests (ctest label `serve`).
 *
 * Covers the shared-core concurrency contracts the daemon is built
 * on: the sharded store serves parallel mixed read/write traffic with
 * byte-identical files to a serial run, the Characterizer memo holds
 * each requested (benchmark, machine) pair once, two concurrent
 * identical queries share exactly one simulation, the manifest
 * fingerprint does not depend on the first query, the wire protocol
 * round-trips hostile strings, daemon responses to concurrent clients
 * sending every query op are byte-identical to direct query-op
 * rendering and leave a store that lints clean, a warm store answers
 * queries with zero simulations, a graceful drain drops nothing, and
 * finished connections release their handler threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/query_ops.h"
#include "core/service_context.h"
#include "lint/linter.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats/fingerprint.h"
#include "suites/emerging.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

/** Fresh (pre-cleaned) store directory unique to one test. */
std::string
storeDir(const std::string &test)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("speclens_serve_test_" + test);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Tiny window so the cross products stay fast. */
uarch::SimulationConfig
tinyWindow()
{
    uarch::SimulationConfig config;
    config.instructions = 2'000;
    config.warmup = 500;
    return config;
}

core::ServiceConfig
tinyServiceConfig(const std::string &store = "")
{
    core::ServiceConfig config;
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    config.store_dir = store;
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** The sharded on-disk path of @p key under @p dir. */
std::string
shardedPath(const std::string &dir, const core::StoreKey &key)
{
    return dir + "/" +
           core::storeShardDirName(
               core::storeShardIndex(key.fingerprint)) +
           "/" + stats::hex16(key.fingerprint) + core::kStoreEntrySuffix;
}

/** This process's virtual size in kB (/proc/self/status); 0 if unknown. */
std::size_t
vmSizeKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoul(line.substr(7));
    return 0;
}

/**
 * What the batch CLI prints for @p request, rendered directly on
 * @p context: the bytes a daemon answer must equal.
 */
core::QueryOutcome
directAnswer(core::ServiceContext &context, const serve::Request &request)
{
    switch (request.op) {
    case serve::Op::Characterize:
        return core::runCharacterizeQuery(context, request.benchmarks);
    case serve::Op::Memory:
        return core::runMemoryQuery(context, request.benchmarks);
    case serve::Op::Subset:
        return core::runSubsetQuery(context, request.category, request.k);
    case serve::Op::Sensitivity:
        return core::runSensitivityQuery(context, request.metric);
    case serve::Op::Stats:
    case serve::Op::Shutdown:
        break;
    }
    return core::queryError("no fixed answer to " +
                            serve::opName(request.op));
}

/** Start @p server's accept loop on a background thread. */
std::thread
serveOnThread(serve::Server &server)
{
    return std::thread([&server]() { server.serveForever(); });
}

} // namespace

// Eight threads hammering one sharded store with mixed save/load
// traffic must leave exactly the same files on disk as a serial
// single-threaded campaign over the same pairs.
TEST(ShardedStore, ParallelMixedTrafficMatchesSerialStoreBytes)
{
    const uarch::SimulationConfig window = tinyWindow();
    const auto &machines = suites::profilingMachines();
    std::vector<suites::BenchmarkInfo> benchmarks =
        suites::spec2017();
    benchmarks.resize(16);

    // Serial reference.
    const std::string serial_dir = storeDir("parity_serial");
    {
        core::CampaignStore store(serial_dir);
        for (const auto &benchmark : benchmarks)
            for (const auto &machine : machines)
                core::storedSimulate(&store, benchmark.profile,
                                     machine, window);
    }

    // Parallel: 8 threads interleave saves (fresh simulate) and loads
    // across all shards.
    const std::string parallel_dir = storeDir("parity_parallel");
    {
        core::CampaignStore store(parallel_dir);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < 8; ++t) {
            threads.emplace_back([&, t]() {
                for (std::size_t i = t; i < benchmarks.size();
                     i += 8) {
                    for (const auto &machine : machines)
                        core::storedSimulate(&store,
                                             benchmarks[i].profile,
                                             machine, window);
                }
                // Re-load a stride of everyone's entries (read side
                // of the mixed traffic; misses are fine while other
                // threads are still writing).
                for (std::size_t i = 0; i < benchmarks.size(); ++i) {
                    core::StoreKey key = core::makeStoreKey(
                        benchmarks[i].profile, machines[t % machines.size()],
                        window);
                    uarch::SimulationResult result;
                    store.load(key, result);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    std::size_t compared = 0;
    for (const auto &benchmark : benchmarks)
        for (const auto &machine : machines) {
            core::StoreKey key = core::makeStoreKey(
                benchmark.profile, machine, window);
            std::string serial_bytes =
                readFile(shardedPath(serial_dir, key));
            std::string parallel_bytes =
                readFile(shardedPath(parallel_dir, key));
            ASSERT_FALSE(serial_bytes.empty()) << benchmark.name;
            EXPECT_EQ(serial_bytes, parallel_bytes)
                << benchmark.name << " on " << machine.name;
            ++compared;
        }
    EXPECT_EQ(compared, benchmarks.size() * machines.size());

    std::filesystem::remove_all(serial_dir);
    std::filesystem::remove_all(parallel_dir);
}

// Every entry must land in the shard its fingerprint's top nibble
// names.  A pre-shard flat-layout entry left in the store root is not
// an entry: its pair is a Miss and recomputes into its shard.
TEST(ShardedStore, EntriesLandInFingerprintShardAndRootEntriesRecompute)
{
    const std::string dir = storeDir("layout");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017().front();
    const auto &machine = suites::profilingMachines().front();

    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    const std::filesystem::path flat =
        std::filesystem::path(dir) /
        std::filesystem::path(shardedPath(dir, key)).filename();
    {
        core::CampaignStore store(dir);
        core::storedSimulate(&store, benchmark.profile, machine,
                             window);
        EXPECT_TRUE(std::filesystem::exists(shardedPath(dir, key)));

        // Demote the entry to the pre-shard flat layout.
        std::filesystem::rename(shardedPath(dir, key), flat);
    }
    core::CampaignStore reopened(dir);
    uarch::SimulationResult result;
    EXPECT_EQ(reopened.load(key, result), core::StoreStatus::Miss);
    EXPECT_EQ(reopened.entryCount(), 0u);
    EXPECT_TRUE(core::scanStore(reopened.directory()).entries.empty());

    core::storedSimulate(&reopened, benchmark.profile, machine, window);
    EXPECT_EQ(reopened.counters().computed, 1u);
    EXPECT_TRUE(std::filesystem::exists(shardedPath(dir, key)));
    EXPECT_EQ(reopened.load(key, result), core::StoreStatus::Hit);
    std::filesystem::remove_all(dir);
}

// A good load followed by truncation of the entry file reads Corrupt:
// the store keeps no copy of the result that could outlive its file.
TEST(ShardedStore, TruncatedEntryAfterGoodLoadReadsCorrupt)
{
    const std::string dir = storeDir("truncate_after_load");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017().front();
    const auto &machine = suites::profilingMachines().front();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    uarch::SimulationResult result;
    ASSERT_EQ(store.load(key, result), core::StoreStatus::Hit);

    std::filesystem::resize_file(shardedPath(dir, key), 20);
    EXPECT_EQ(store.load(key, result), core::StoreStatus::Corrupt);
    std::filesystem::remove_all(dir);
}

// Two concurrent identical queries against one shared Characterizer
// must run exactly one simulation: one thread simulates, the other
// waits for the in-flight claim and shares the result.
TEST(ServiceContext, ConcurrentIdenticalQueriesShareOneSimulation)
{
    core::ServiceContext context(tinyServiceConfig());
    std::vector<uarch::MachineConfig> one_machine = {
        suites::profilingMachines().front()};
    core::Characterizer &characterizer =
        context.characterizerFor(one_machine);
    const auto &benchmark = suites::spec2017().front();

    std::atomic<int> ready{0};
    auto race = [&]() {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        } // spin: maximise overlap
        characterizer.simulation(benchmark, 0);
    };
    std::thread a(race), b(race);
    a.join();
    b.join();
    EXPECT_EQ(context.simulationsRun(), 1u);
}

// The same machine set requested twice must yield the same pooled
// Characterizer; a different set gets its own.
TEST(ServiceContext, PoolsCharacterizersByMachineSet)
{
    core::ServiceContext context(tinyServiceConfig());
    core::Characterizer &a =
        context.characterizerFor(context.profilingMachines());
    core::Characterizer &b =
        context.characterizerFor(context.profilingMachines());
    core::Characterizer &c =
        context.characterizerFor(context.sensitivityMachines());
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
}

// The configuration fingerprint comes from ServiceConfig::machines, not
// from whichever machine set a context happens to pool first (a
// daemon's first request must not decide what its manifest says).
TEST(ServiceContext, ConfigFingerprintIgnoresFirstPooledSet)
{
    core::ServiceContext sensitivity_first(tinyServiceConfig());
    sensitivity_first.characterizerFor(
        sensitivity_first.sensitivityMachines());
    sensitivity_first.characterizerFor(
        sensitivity_first.profilingMachines());

    core::ServiceContext profiling_first(tinyServiceConfig());
    profiling_first.characterizerFor(profiling_first.profilingMachines());
    profiling_first.characterizerFor(
        profiling_first.sensitivityMachines());

    EXPECT_EQ(sensitivity_first.configFingerprint(),
              profiling_first.configFingerprint());
}

// The memo is the one in-memory result cache: after a round of every
// query op it holds exactly one result per distinct (benchmark,
// machine) pair requested, and repeating the round adds none.  The
// sensitivity machines are profiling machines, so a sensitivity pair of
// a profiled benchmark is the profiling pair, held and simulated once.
TEST(ServiceContext, MemoHoldsEachRequestedPairOnce)
{
    core::ServiceContext context(tinyServiceConfig());
    const std::vector<std::string> characterize = {
        "505.mcf_r", "519.lbm_r", context.cpu2006().front().name,
        context.emerging().front().name};
    const std::vector<std::string> memory = {
        "519.lbm_r", context.cpu2006().front().name,
        context.emerging().front().name};

    std::set<std::string> profiled(characterize.begin(),
                                   characterize.end());
    for (const suites::BenchmarkInfo &b : suites::spec2017SpeedInt())
        profiled.insert(b.name);
    std::size_t sensitivity_only = 0;
    for (const suites::BenchmarkInfo &b : context.cpu2017())
        sensitivity_only += profiled.count(b.name) == 0;
    const std::size_t pairs =
        profiled.size() * context.profilingMachines().size() +
        memory.size() * context.memoryMachines().size() +
        sensitivity_only * context.sensitivityMachines().size();

    for (int round = 0; round < 2; ++round) {
        EXPECT_TRUE(core::runCharacterizeQuery(context, characterize).ok);
        EXPECT_TRUE(core::runMemoryQuery(context, memory).ok);
        EXPECT_TRUE(core::runSubsetQuery(context, "speed-int", 3).ok);
        EXPECT_TRUE(core::runSensitivityQuery(context, "branch").ok);
        EXPECT_EQ(context.cachedMeasurements(), pairs) << "round " << round;
        EXPECT_EQ(context.simulationsRun(), pairs) << "round " << round;
    }
}

// The registry indexes every shipped suite by CLI-visible name.
TEST(ServiceContext, RegistryFindsBenchmarksAcrossSuites)
{
    core::ServiceContext context(tinyServiceConfig());
    ASSERT_NE(context.findBenchmark("505.mcf_r"), nullptr);
    EXPECT_EQ(context.findBenchmark("505.mcf_r")->name, "505.mcf_r");
    EXPECT_EQ(context.findBenchmark("no-such-benchmark"), nullptr);
    EXPECT_FALSE(context.cpu2017().empty());
    EXPECT_FALSE(context.cpu2006().empty());

    // The context reads the one suites:: registry; it copies nothing.
    EXPECT_EQ(&context.cpu2017(), &suites::spec2017());
    EXPECT_EQ(&context.cpu2006(), &suites::spec2006());
    EXPECT_EQ(&context.emerging(), &suites::emergingBenchmarks());
    EXPECT_EQ(&context.profilingMachines(), &suites::profilingMachines());
    EXPECT_EQ(&context.sensitivityMachines(),
              &suites::sensitivityMachines());
    EXPECT_EQ(&context.memoryMachines(), &suites::memoryCentricMachines());
    for (const auto *suite :
         {&suites::spec2017(), &suites::spec2006(),
          &suites::emergingBenchmarks()})
        for (const suites::BenchmarkInfo &b : *suite)
            EXPECT_EQ(context.findBenchmark(b.name), &b) << b.name;
}

// Wire protocol: requests and responses round-trip, including strings
// full of JSON-hostile bytes.
TEST(Protocol, RequestRoundTripsHostileStrings)
{
    serve::Request request;
    request.op = serve::Op::Characterize;
    request.benchmarks = {"505.mcf_r", "with \"quotes\"\n\tand\\back",
                          std::string("nul\x01byte")};
    serve::Request decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeRequest(serve::encodeRequest(request),
                                     decoded, error))
        << error;
    EXPECT_EQ(decoded.op, serve::Op::Characterize);
    EXPECT_EQ(decoded.benchmarks, request.benchmarks);

    serve::Request subset;
    subset.op = serve::Op::Subset;
    subset.category = "rate-int";
    subset.k = 7;
    ASSERT_TRUE(serve::decodeRequest(serve::encodeRequest(subset),
                                     decoded, error));
    EXPECT_EQ(decoded.op, serve::Op::Subset);
    EXPECT_EQ(decoded.category, "rate-int");
    EXPECT_EQ(decoded.k, 7u);
}

TEST(Protocol, ResponseRoundTripsAndRejectsMalformed)
{
    serve::Response response;
    response.ok = true;
    response.output = "line one\nline \"two\"\t\\end\n";
    serve::Response decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeResponse(
        serve::encodeResponse(response), decoded, error));
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.output, response.output);

    serve::Request request;
    EXPECT_FALSE(serve::decodeRequest("not json", request, error));
    EXPECT_FALSE(serve::decodeRequest("{\"op\": \"nonsense\"}",
                                      request, error));
    EXPECT_FALSE(serve::decodeRequest(
        "{\"op\": \"subset\", \"k\": \"three\"}", request, error));
    EXPECT_FALSE(
        serve::decodeRequest("{\"op\": \"stats\"} trailing", request,
                             error));
}

// `k` must be exactly an unsigned integer, and every value flat.
TEST(Protocol, RejectsInexactKAndNestedValues)
{
    serve::Request request;
    std::string error;
    for (const char *k : {"1.5", "-1", "1e3", "18446744073709551616"}) {
        const std::string payload =
            std::string("{\"op\": \"subset\", \"k\": ") + k + "}";
        EXPECT_FALSE(serve::decodeRequest(payload, request, error)) << k;
    }
    EXPECT_TRUE(serve::decodeRequest(
        "{\"op\": \"subset\", \"k\": 18446744073709551615}", request,
        error))
        << error;
    EXPECT_FALSE(serve::decodeRequest(
        "{\"op\": \"stats\", \"extra\": {\"nested\": 1}}", request,
        error));
    EXPECT_FALSE(serve::decodeRequest(
        "{\"op\": \"characterize\", \"benchmarks\": [[\"505.mcf_r\"]]}",
        request, error));
    serve::Response response;
    EXPECT_FALSE(serve::decodeResponse(
        "{\"ok\": true, \"output\": {\"text\": \"x\"}}", response,
        error));
}

// The daemon under concurrent load at the CI window (5000+1500), over a
// fresh store: four clients each send the whole query-op mix, each
// starting at a different op, so they collide on cells within the
// profiling set (characterize, subset) and across the sets that share
// machines (profiling, sensitivity).  Every answer
// must be ok; every non-stats answer byte-identical across clients and
// to direct query-op rendering on the server's context; the server
// must count no error and drop no connection; the context must run
// exactly one simulation per entry it stored, however the sets
// collide; and the store the fill leaves must lint with no error and
// no warning.
TEST(Serve, ConcurrentClientsGetByteIdenticalAnswers)
{
    const std::string dir = storeDir("concurrent_mix");
    std::vector<serve::Request> mix(7); // mix[4] stays a stats request
    mix[0].op = serve::Op::Characterize;
    mix[0].benchmarks = {"505.mcf_r", "557.xz_r"};
    mix[1].op = serve::Op::Memory;
    mix[1].benchmarks = {"519.lbm_r", "505.mcf_r"};
    mix[2].op = serve::Op::Subset;
    mix[2].category = "rate-int";
    mix[3].op = serve::Op::Sensitivity;
    mix[3].metric = "branch";
    mix[5].op = serve::Op::Characterize;
    mix[5].benchmarks = {"519.lbm_r"};
    mix[6].op = serve::Op::Sensitivity;
    mix[6].metric = "dtlb";

    constexpr std::size_t kClients = 4;
    std::vector<std::vector<serve::Response>> responses(
        kClients, std::vector<serve::Response>(mix.size()));
    {
        serve::ServerConfig config;
        config.service.characterization.instructions = 5'000;
        config.service.characterization.warmup = 1'500;
        config.service.store_dir = dir;
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread accept_thread = serveOnThread(server);

        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c]() {
                serve::Client client;
                std::string client_error;
                if (!client.connect("127.0.0.1", server.port(),
                                    &client_error))
                    return;
                for (std::size_t i = 0; i < mix.size(); ++i) {
                    const std::size_t r = (c + i) % mix.size();
                    client.call(mix[r], &responses[c][r], &client_error);
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        server.requestDrain();
        accept_thread.join();

        for (std::size_t r = 0; r < mix.size(); ++r) {
            const std::string sent = serve::encodeRequest(mix[r]);
            for (std::size_t c = 0; c < kClients; ++c)
                EXPECT_TRUE(responses[c][r].ok)
                    << "client " << c << ": " << sent << ": "
                    << responses[c][r].error;
            if (mix[r].op == serve::Op::Stats)
                continue; // live counters: no fixed bytes
            const core::QueryOutcome direct =
                directAnswer(*server.context(), mix[r]);
            ASSERT_TRUE(direct.ok) << sent << ": " << direct.error;
            for (std::size_t c = 0; c < kClients; ++c)
                EXPECT_EQ(responses[c][r].output, direct.output)
                    << "client " << c << ": " << sent;
        }
        EXPECT_EQ(server.stats().requests, kClients * mix.size());
        EXPECT_EQ(server.stats().errors, 0u);
        EXPECT_EQ(server.stats().dropped, 0u);
        EXPECT_EQ(server.context()->simulationsRun(),
                  server.context()->store()->entryCount());
    } // The context writes the run manifest as the server goes.

    lint::LintContext lint_context = lint::shippedContext();
    lint_context.deep = false;
    lint_context.store_dir = dir;
    const lint::LintReport report = lint::Linter().run(lint_context);
    EXPECT_EQ(report.errors(), 0u) << lint::renderText(report);
    EXPECT_EQ(report.warnings(), 0u) << lint::renderText(report);
    std::filesystem::remove_all(dir);
}

// A rejected query reports the error without killing the connection.
TEST(Serve, RejectsUnknownBenchmarkButKeepsServing)
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread accept_thread = serveOnThread(server);

    serve::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    serve::Request request;
    request.op = serve::Op::Characterize;
    request.benchmarks = {"no-such-benchmark"};
    serve::Response response;
    ASSERT_TRUE(client.call(request, &response, &error)) << error;
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, "unknown benchmark: no-such-benchmark");

    // Same connection still answers.
    request.op = serve::Op::Stats;
    request.benchmarks.clear();
    ASSERT_TRUE(client.call(request, &response, &error)) << error;
    EXPECT_TRUE(response.ok);

    server.requestDrain();
    accept_thread.join();
    EXPECT_EQ(server.stats().errors, 1u);
    EXPECT_EQ(server.stats().dropped, 0u);
}

// Warm-store acceptance criterion: a second daemon over a populated
// store answers the same query byte-identically with ZERO simulations.
TEST(Serve, WarmStoreQueryRunsZeroSimulations)
{
    const std::string dir = storeDir("warm");
    std::string cold_output;
    {
        serve::ServerConfig config;
        config.service = tinyServiceConfig(dir);
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread accept_thread = serveOnThread(server);
        serve::Client client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port(), &error));
        serve::Request request;
        request.op = serve::Op::Characterize;
        request.benchmarks = {"505.mcf_r"};
        serve::Response response;
        ASSERT_TRUE(client.call(request, &response, &error));
        ASSERT_TRUE(response.ok);
        cold_output = response.output;
        EXPECT_GT(server.context()->simulationsRun(), 0u);
        server.requestDrain();
        accept_thread.join();
    }
    {
        serve::ServerConfig config;
        config.service = tinyServiceConfig(dir);
        serve::Server server(config);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        std::thread accept_thread = serveOnThread(server);
        serve::Client client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port(), &error));
        serve::Request request;
        request.op = serve::Op::Characterize;
        request.benchmarks = {"505.mcf_r"};
        serve::Response response;
        ASSERT_TRUE(client.call(request, &response, &error));
        ASSERT_TRUE(response.ok);
        EXPECT_EQ(response.output, cold_output);
        EXPECT_EQ(server.context()->simulationsRun(), 0u);
        server.requestDrain();
        accept_thread.join();
    }
    std::filesystem::remove_all(dir);
}

// The shutdown op answers, then the server drains and returns; idle
// parked connections are half-closed cleanly, dropping nothing.
TEST(Serve, ShutdownOpDrainsGracefullyWithIdleConnections)
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread accept_thread = serveOnThread(server);

    serve::Client idle;
    ASSERT_TRUE(idle.connect("127.0.0.1", server.port(), &error));

    serve::Client controller;
    ASSERT_TRUE(controller.connect("127.0.0.1", server.port(),
                                   &error));
    serve::Request request;
    request.op = serve::Op::Shutdown;
    serve::Response response;
    ASSERT_TRUE(controller.call(request, &response, &error)) << error;
    EXPECT_TRUE(response.ok);

    accept_thread.join(); // returns once drained
    EXPECT_TRUE(server.draining());
    EXPECT_EQ(server.stats().dropped, 0u);

    // The drained server no longer accepts.
    serve::Client late;
    EXPECT_FALSE(late.connect("127.0.0.1", server.port(), &error));
}

// A finished connection's handler thread is joined while the daemon
// keeps serving, so its stack (~8 MiB of address space) does not
// outlive the connection: 200 short connections leave the virtual size
// flat.
TEST(Serve, FinishedConnectionsReleaseTheirHandlerThreads)
{
    serve::ServerConfig config;
    config.service = tinyServiceConfig();
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread accept_thread = serveOnThread(server);

    auto ask = [&](serve::Client &client) {
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
            << error;
        serve::Request request;
        request.op = serve::Op::Stats;
        serve::Response response;
        ASSERT_TRUE(client.call(request, &response, &error)) << error;
        EXPECT_TRUE(response.ok);
    };
    // Warm-up: eight handlers alive at once give the allocator its
    // per-thread arenas (64 MB of address space each) up front, so the
    // measured phase, which overlaps at most a few handlers, adds none.
    {
        std::vector<serve::Client> concurrent(8);
        for (serve::Client &client : concurrent)
            ask(client);
    }
    const std::size_t before_kb = vmSizeKb();
    ASSERT_GT(before_kb, 0u);
    for (int i = 0; i < 200; ++i) {
        serve::Client client;
        ask(client);
    }
    const std::size_t after_kb = vmSizeKb();

    server.requestDrain();
    accept_thread.join();
    EXPECT_EQ(server.stats().requests, 208u);
    EXPECT_LT(after_kb, before_kb + 64 * 1024)
        << "VmSize grew from " << before_kb << " kB to " << after_kb
        << " kB over 200 connections";
}

/**
 * @file
 * Serve-warm workload implementation.
 */

#include "serve_load.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/query_ops.h"

namespace perfbench {

namespace core = speclens::core;
namespace serve = speclens::serve;

namespace {

serve::ServerConfig
serverConfig(const core::ServiceConfig &service)
{
    serve::ServerConfig config;
    config.service = service;
    return config;
}

/** In-process answer to @p request (what dispatch() should send). */
core::QueryOutcome
answer(core::ServiceContext &context, const serve::Request &request)
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
    return core::queryError("no in-process answer for " +
                            serve::opName(request.op));
}

/** Operation id of request @p k of client @p client. */
std::uint32_t
requestOp(std::size_t client, std::size_t k)
{
    return static_cast<std::uint32_t>((client << 24) | (k & 0xffffff));
}

} // namespace

LiveServer::LiveServer(const core::ServiceConfig &service)
    : server_(serverConfig(service))
{
    std::string error;
    if (!server_.start(&error))
        throw std::runtime_error("serve start: " + error);
    accept_ = std::thread([this] { server_.serveForever(); });
    for (std::size_t c = 0; c < kClients; ++c) {
        clients_.push_back(std::make_unique<serve::Client>());
        if (!clients_.back()->connect("127.0.0.1", server_.port(), &error)) {
            stop();
            throw std::runtime_error("serve connect: " + error);
        }
    }
}

LiveServer::~LiveServer() { stop(); }

void
LiveServer::stop()
{
    for (auto &client : clients_)
        client->close();
    server_.requestDrain();
    if (accept_.joinable())
        accept_.join();
}

ReferenceOutputs
referenceOutputs(const core::ServiceConfig &service,
                 const std::vector<std::vector<serve::Request>> &schedules,
                 std::size_t &simulations)
{
    core::ServiceContext context(service);
    ReferenceOutputs reference;
    for (const auto &schedule : schedules) {
        for (const serve::Request &request : schedule) {
            if (request.op == serve::Op::Stats)
                continue;
            std::string key = serve::encodeRequest(request);
            if (reference.count(key))
                continue;
            core::QueryOutcome outcome = answer(context, request);
            if (!outcome.ok)
                throw std::runtime_error("reference query rejected: " +
                                         outcome.error);
            reference.emplace(std::move(key), std::move(outcome.output));
        }
    }
    simulations = context.simulationsRun();
    return reference;
}

ServeWindow
runServeWindow(LiveServer &live,
               const std::vector<std::vector<serve::Request>> &schedules,
               const ReferenceOutputs &reference, double seconds,
               Tracer *tracer)
{
    struct ClientWindow
    {
        std::vector<double> rtt_ms, traced_rtt_ms;
        std::size_t attempted = 0, failed = 0;
        std::uint64_t last_reply_ns = 0;
    };
    std::vector<ClientWindow> windows(schedules.size());

    const std::uint64_t start_ns = nowNs();
    const auto deadline_ns =
        start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < schedules.size(); ++c) {
        threads.emplace_back([&, c] {
            ClientWindow &window = windows[c];
            serve::Client &client = live.client(c);
            const auto &schedule = schedules[c];
            for (std::size_t k = 0; nowNs() < deadline_ns; ++k) {
                const serve::Request &request = schedule[k % schedule.size()];
                Tracer *t = tracer && k % 2 == 1 ? tracer : nullptr;
                std::uint32_t op = requestOp(c, k);
                Tracer::Scope root = Tracer::span(t, "serve.request", op);

                serve::Response response;
                std::string error;
                bool sent = false;
                std::uint64_t t0 = nowNs();
                {
                    Tracer::Scope span = Tracer::span(t, "serve.rtt", op);
                    sent = client.call(request, &response, &error);
                }
                std::uint64_t t1 = nowNs();
                window.last_reply_ns = t1;
                ++window.attempted;
                bool correct = sent && response.ok;
                if (correct && request.op != serve::Op::Stats) {
                    auto it = reference.find(serve::encodeRequest(request));
                    correct = it != reference.end() &&
                              it->second == response.output;
                }
                if (!correct) {
                    ++window.failed;
                    if (!sent)
                        break; // the connection is gone
                    continue;
                }
                double ms = static_cast<double>(t1 - t0) * 1e-6;
                (t ? window.traced_rtt_ms : window.rtt_ms).push_back(ms);
                if (!t)
                    continue;

                {
                    Tracer::Scope span = Tracer::span(
                        t, "serve.dispatch." + serve::opName(request.op), op);
                    (void)live.server().dispatch(request);
                }
                Tracer::Scope span = Tracer::span(t, "serve.codec", op);
                serve::Request decoded_request;
                serve::Response decoded_response;
                std::string codec_error;
                serve::decodeRequest(serve::encodeRequest(request),
                                     decoded_request, codec_error);
                serve::decodeResponse(serve::encodeResponse(response),
                                      decoded_response, codec_error);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    ServeWindow out;
    std::uint64_t last_ns = start_ns;
    for (const ClientWindow &window : windows) {
        out.rtt_ms.insert(out.rtt_ms.end(), window.rtt_ms.begin(),
                          window.rtt_ms.end());
        out.traced_rtt_ms.insert(out.traced_rtt_ms.end(),
                                 window.traced_rtt_ms.begin(),
                                 window.traced_rtt_ms.end());
        out.attempted += window.attempted;
        out.failed += window.failed;
        last_ns = std::max(last_ns, window.last_reply_ns);
    }
    out.wall_s = static_cast<double>(last_ns - start_ns) * 1e-9;
    return out;
}

} // namespace perfbench

/**
 * @file
 * The serve-warm workload: an in-process serve::Server over a warm
 * store, driven by kClients persistent connections in a closed loop
 * (each client sends its next request when the previous reply is in).
 */

#ifndef PERFBENCH_SERVE_LOAD_H
#define PERFBENCH_SERVE_LOAD_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/service_context.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tracer.h"

namespace perfbench {

/** Persistent client connections (one per client thread). */
inline constexpr std::size_t kClients = 4;

/**
 * A started server with its accept loop running on a thread and
 * kClients connected clients.  Construction is the serve-warm set-up;
 * destruction closes the clients, drains the server and joins.
 */
class LiveServer
{
  public:
    /** Throws std::runtime_error when the server or a client fails. */
    explicit LiveServer(const speclens::core::ServiceConfig &service);
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;
    ~LiveServer();

    speclens::serve::Server &server() { return server_; }
    speclens::serve::Client &client(std::size_t i) { return *clients_[i]; }

  private:
    void stop();

    speclens::serve::Server server_;
    std::vector<std::unique_ptr<speclens::serve::Client>> clients_;
    std::thread accept_;
};

/** Expected output of each distinct non-stats request, by encoded request. */
using ReferenceOutputs = std::map<std::string, std::string>;

/**
 * Answer every distinct non-stats request of @p schedules in process,
 * through core::query_ops on a fresh ServiceContext built from
 * @p service.  @p simulations receives the simulations that took.
 * Throws std::runtime_error when a query is rejected.
 */
ReferenceOutputs
referenceOutputs(const speclens::core::ServiceConfig &service,
                 const std::vector<std::vector<speclens::serve::Request>>
                     &schedules,
                 std::size_t &simulations);

/** What the closed loop measured. */
struct ServeWindow
{
    std::vector<double> rtt_ms;        //!< Untraced requests.
    std::vector<double> traced_rtt_ms; //!< Traced requests.
    std::size_t attempted = 0;
    std::size_t failed = 0; //!< Transport error, rejection or wrong bytes.
    double wall_s = 0.0;    //!< First send to last reply.
};

/**
 * Run the closed loop for @p seconds: client c cycles through
 * @p schedules[c].  With a @p tracer every other request of each client
 * is traced: spans `serve.request` (root), `serve.rtt`,
 * `serve.dispatch.<op>` (Server::dispatch of the same request, with no
 * socket) and `serve.codec` (encode and decode of request and response),
 * tagged with one operation id per request.
 */
ServeWindow
runServeWindow(LiveServer &live,
               const std::vector<std::vector<speclens::serve::Request>>
                   &schedules,
               const ReferenceOutputs &reference, double seconds,
               Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_H

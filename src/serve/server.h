/**
 * @file
 * The speclens serve daemon: a loopback TCP server answering analysis
 * queries over the length-prefixed JSON protocol (protocol.h).
 *
 * Architecture: one blocking accept loop, one handler thread per
 * connection, all requests dispatched against a single shared
 * ServiceContext — so every query shares the immutable model registry,
 * the artifact store and the per-machine-set Characterizers, whose
 * memo is the one in-memory result cache.  A handler that finishes is
 * joined on the next accept (the rest at drain), so a long-lived
 * daemon holds threads only for its open connections.  A request's
 * simulations fan out on its handler thread plus at most jobs - 1
 * helpers, joined before the request answers.  Two
 * concurrent requests that need the same (benchmark, machine) cell
 * share one simulation through the Characterizer's in-flight dedup
 * map; a warm store makes a query run zero simulations.
 *
 * Graceful drain: requestDrain() is async-signal-safe (an atomic flag
 * plus shutdown() on the listening socket — both fine in a SIGTERM
 * handler).  serveForever() then stops accepting, half-closes idle
 * connections (SHUT_RD: in-flight responses still go out), joins every
 * handler and returns.  No in-flight request is dropped.
 *
 * Observability (--metrics): per-request latency spans
 * `serve.request.<op>`, counters `serve.requests`, `serve.errors`,
 * `serve.dropped` — on top of the core store/characterizer metrics.
 */

#ifndef SPECLENS_SERVE_SERVER_H
#define SPECLENS_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/service_context.h"
#include "serve/protocol.h"

namespace speclens {
namespace serve {

/** Everything a Server is built from. */
struct ServerConfig
{
    /** Listen address; loopback by default (no remote exposure). */
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (see Server::port()). */
    std::uint16_t port = 0;

    /** Shared analysis state (machines, window, jobs, store dir). */
    core::ServiceConfig service;

    /** Per-frame size limit, both directions. */
    std::size_t max_frame_bytes = kMaxFrameBytes;
};

/** Monotonic request counters (also exported as obs counters). */
struct ServerStats
{
    std::size_t requests = 0; //!< Frames dispatched (all ops).
    std::size_t errors = 0;   //!< Malformed/rejected requests.
    std::size_t dropped = 0;  //!< Connections cut mid-request.
};

/** The daemon (see file comment). */
class Server
{
  public:
    explicit Server(ServerConfig config);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Closes the listening socket; the context dies with the server. */
    ~Server();

    /**
     * Bind + listen.  False (with @p error set) on failure; on success
     * port() returns the actual port (resolves ephemeral port 0).
     */
    bool start(std::string *error);

    /** The bound port; 0 before start(). */
    std::uint16_t port() const { return port_; }

    /**
     * Accept/serve until a drain is requested (shutdown op, or
     * requestDrain() from a signal handler), then finish in-flight
     * requests and return.
     */
    void serveForever();

    /**
     * Begin a graceful drain.  Async-signal-safe: callable from a
     * SIGTERM/SIGINT handler.
     */
    void requestDrain();

    /** True once a drain was requested. */
    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    ServerStats stats() const;

    /** The shared analysis state all requests dispatch against. */
    const std::shared_ptr<core::ServiceContext> &context() const
    {
        return context_;
    }

    /** Dispatch one request against the shared context (no socket). */
    Response dispatch(const Request &request);

  private:
    void handleConnection(int fd);

    /** Join (and forget) every handler that has finished serving. */
    void reapFinishedHandlers();

    ServerConfig config_;
    std::shared_ptr<core::ServiceContext> context_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> draining_{false};

    std::mutex mutex_; //!< Guards handlers_, finished_ and open_fds_.
    std::vector<std::thread> handlers_;
    std::vector<std::thread::id> finished_; //!< Handlers done, unjoined.
    std::map<int, bool> open_fds_; //!< fd -> still serving.

    std::atomic<std::size_t> requests_{0};
    std::atomic<std::size_t> errors_{0};
    std::atomic<std::size_t> dropped_{0};
};

} // namespace serve
} // namespace speclens

#endif // SPECLENS_SERVE_SERVER_H

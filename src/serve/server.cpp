/**
 * @file
 * Serve-daemon implementation.
 */

#include "server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/query_ops.h"
#include "obs/metrics.h"

namespace speclens {
namespace serve {

namespace {

/** Close @p fd, retrying on EINTR. */
void
closeFd(int fd)
{
    while (::close(fd) < 0 && errno == EINTR) {
    }
}

} // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      context_(std::make_shared<core::ServiceContext>(config_.service))
{
}

Server::~Server()
{
    if (listen_fd_ >= 0)
        closeFd(listen_fd_);
}

bool
Server::start(std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1) {
        if (error)
            *error = "invalid listen address: " + config_.host;
        return false;
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        if (error)
            *error = std::string("bind: ") + std::strerror(errno);
        closeFd(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::listen(listen_fd_, 64) < 0) {
        if (error)
            *error = std::string("listen: ") + std::strerror(errno);
        closeFd(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = config_.port;
    return true;
}

void
Server::requestDrain()
{
    // Only async-signal-safe operations here: this runs in SIGTERM /
    // SIGINT handlers.  shutdown() on the listening socket makes the
    // blocked accept() in serveForever() fail immediately (EINVAL on
    // Linux), which is the wake-up.
    draining_.store(true, std::memory_order_release);
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
}

void
Server::serveForever()
{
    while (!draining()) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // EINVAL/EBADF after requestDrain() shut the socket down.
            break;
        }
        reapFinishedHandlers();
        std::lock_guard<std::mutex> lock(mutex_);
        open_fds_[fd] = true;
        handlers_.emplace_back(
            [this, fd]() { handleConnection(fd); });
    }

    // Drain: half-close every connection still open so idle handlers
    // see EOF; in-flight requests still write their response (the
    // write side stays open).  Then join everyone.
    std::vector<std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[fd, serving] : open_fds_)
            if (serving)
                ::shutdown(fd, SHUT_RD);
        handlers.swap(handlers_);
    }
    for (std::thread &handler : handlers)
        handler.join();
}

void
Server::reapFinishedHandlers()
{
    // A finished handler has only its fd to close left to do, so the
    // joins below are short; joining keeps each one's stack from
    // outliving its connection.
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::thread::id id : finished_) {
            auto it = std::find_if(
                handlers_.begin(), handlers_.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            finished.push_back(std::move(*it));
            handlers_.erase(it);
        }
        finished_.clear();
    }
    for (std::thread &handler : finished)
        handler.join();
}

Response
Server::dispatch(const Request &request)
{
    obs::Span span(obs::Registry::global().timing(
        "serve.request." + opName(request.op)));
    obs::Registry::global().counter("serve.requests").add(1);
    requests_.fetch_add(1, std::memory_order_relaxed);

    Response response;
    core::QueryOutcome outcome;
    switch (request.op) {
    case Op::Characterize:
        outcome = core::runCharacterizeQuery(*context_,
                                             request.benchmarks);
        break;
    case Op::Memory:
        outcome = core::runMemoryQuery(*context_, request.benchmarks);
        break;
    case Op::Subset:
        outcome = core::runSubsetQuery(*context_, request.category,
                                       request.k);
        break;
    case Op::Sensitivity:
        outcome = core::runSensitivityQuery(*context_, request.metric);
        break;
    case Op::Stats: {
        core::ServiceContext &context = *context_;
        outcome.output =
            "requests=" +
            std::to_string(requests_.load(std::memory_order_relaxed)) +
            " errors=" +
            std::to_string(errors_.load(std::memory_order_relaxed)) +
            " dropped=" +
            std::to_string(dropped_.load(std::memory_order_relaxed)) +
            "\n" + context.summary() + "\nsimulations=" +
            std::to_string(context.simulationsRun()) +
            "\nmemo: entries=" +
            std::to_string(context.cachedMeasurements()) + "\n";
        break;
    }
    case Op::Shutdown:
        outcome.output = "draining\n";
        break;
    }

    response.ok = outcome.ok;
    response.output = std::move(outcome.output);
    response.error = std::move(outcome.error);
    if (!response.ok) {
        obs::Registry::global().counter("serve.errors").add(1);
        errors_.fetch_add(1, std::memory_order_relaxed);
    }
    return response;
}

void
Server::handleConnection(int fd)
{
    std::string payload;
    while (true) {
        FrameStatus status =
            readFrame(fd, payload, config_.max_frame_bytes);
        if (status == FrameStatus::Eof)
            break;
        if (status == FrameStatus::Error) {
            obs::Registry::global().counter("serve.dropped").add(1);
            dropped_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        Response response;
        if (status == FrameStatus::TooLarge) {
            response.error = "request frame too large";
            errors_.fetch_add(1, std::memory_order_relaxed);
            obs::Registry::global().counter("serve.errors").add(1);
            writeFrame(fd, encodeResponse(response));
            break; // framing is lost after an unread oversize payload
        }
        Request request;
        std::string decode_error;
        if (!decodeRequest(payload, request, decode_error)) {
            response.error = decode_error;
            errors_.fetch_add(1, std::memory_order_relaxed);
            obs::Registry::global().counter("serve.errors").add(1);
            if (!writeFrame(fd, encodeResponse(response)))
                break;
            continue;
        }
        response = dispatch(request);
        bool sent = writeFrame(fd, encodeResponse(response));
        if (request.op == Op::Shutdown) {
            requestDrain();
            break;
        }
        if (!sent) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            obs::Registry::global().counter("serve.dropped").add(1);
            break;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open_fds_.erase(fd);
        finished_.push_back(std::this_thread::get_id());
    }
    closeFd(fd);
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.errors = errors_.load(std::memory_order_relaxed);
    stats.dropped = dropped_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace serve
} // namespace speclens

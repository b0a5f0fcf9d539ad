/**
 * @file
 * Wire-protocol implementation: flat-JSON codec and frame I/O.
 */

#include "protocol.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <optional>

#include "obs/json.h"

namespace speclens {
namespace serve {

namespace {

/**
 * @p payload as a flat object: every member a string, a number, a
 * bool or an array of strings.  Nested objects, nulls and mixed
 * arrays are rejected, which doubles as input validation for the
 * server.
 */
std::optional<obs::JsonValue>
parseFlatObject(const std::string &payload)
{
    using Kind = obs::JsonValue::Kind;
    std::optional<obs::JsonValue> doc = obs::parseJson(payload);
    if (!doc || doc->kind != Kind::Object)
        return std::nullopt;
    auto isString = [](const obs::JsonValue &v) {
        return v.kind == Kind::String;
    };
    for (const obs::JsonValue &value : doc->items) {
        bool flat = value.kind == Kind::Array
                        ? std::all_of(value.items.begin(),
                                      value.items.end(), isString)
                        : value.kind != Kind::Object &&
                              value.kind != Kind::Null;
        if (!flat)
            return std::nullopt;
    }
    return doc;
}

// ----- Socket helpers --------------------------------------------------

/** recv() exactly @p count bytes; 0 = clean EOF at offset 0. */
FrameStatus
recvAll(int fd, void *buffer, std::size_t count)
{
    char *out = static_cast<char *>(buffer);
    std::size_t done = 0;
    while (done < count) {
        ssize_t n = ::recv(fd, out + done, count - done, 0);
        if (n == 0)
            return done == 0 ? FrameStatus::Eof : FrameStatus::Error;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameStatus::Error;
        }
        done += static_cast<std::size_t>(n);
    }
    return FrameStatus::Ok;
}

/** send() all of @p count bytes (MSG_NOSIGNAL: no SIGPIPE). */
bool
sendAll(int fd, const void *buffer, std::size_t count)
{
    const char *in = static_cast<const char *>(buffer);
    std::size_t done = 0;
    while (done < count) {
        ssize_t n = ::send(fd, in + done, count - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::string
opName(Op op)
{
    switch (op) {
    case Op::Characterize: return "characterize";
    case Op::Memory: return "memory";
    case Op::Subset: return "subset";
    case Op::Sensitivity: return "sensitivity";
    case Op::Stats: return "stats";
    case Op::Shutdown: return "shutdown";
    }
    return "stats";
}

bool
opFromName(const std::string &name, Op &op)
{
    if (name == "characterize")
        op = Op::Characterize;
    else if (name == "memory")
        op = Op::Memory;
    else if (name == "subset")
        op = Op::Subset;
    else if (name == "sensitivity")
        op = Op::Sensitivity;
    else if (name == "stats")
        op = Op::Stats;
    else if (name == "shutdown")
        op = Op::Shutdown;
    else
        return false;
    return true;
}

std::string
encodeRequest(const Request &request)
{
    std::string out = "{\"op\": " + obs::jsonQuote(opName(request.op));
    if (!request.benchmarks.empty()) {
        out += ", \"benchmarks\": [";
        const char *sep = "";
        for (const std::string &name : request.benchmarks) {
            out += sep;
            out += obs::jsonQuote(name);
            sep = ", ";
        }
        out += "]";
    }
    if (!request.category.empty())
        out += ", \"category\": " + obs::jsonQuote(request.category);
    if (request.op == Op::Subset)
        out += ", \"k\": " + std::to_string(request.k);
    if (!request.metric.empty())
        out += ", \"metric\": " + obs::jsonQuote(request.metric);
    out += "}";
    return out;
}

std::string
encodeResponse(const Response &response)
{
    return std::string("{\"ok\": ") +
           (response.ok ? "true" : "false") +
           ", \"output\": " + obs::jsonQuote(response.output) +
           ", \"error\": " + obs::jsonQuote(response.error) + "}";
}

bool
decodeRequest(const std::string &payload, Request &request,
               std::string &error)
{
    std::optional<obs::JsonValue> doc = parseFlatObject(payload);
    if (!doc) {
        error = "malformed request frame";
        return false;
    }
    std::string op;
    if (!doc->string("op", op) || !opFromName(op, request.op)) {
        error = "unknown op";
        return false;
    }
    if (const obs::JsonValue *benchmarks = doc->find("benchmarks")) {
        if (benchmarks->kind != obs::JsonValue::Kind::Array) {
            error = "benchmarks must be an array of strings";
            return false;
        }
        request.benchmarks.clear();
        for (const obs::JsonValue &name : benchmarks->items)
            request.benchmarks.push_back(name.text);
    }
    if (doc->find("category") && !doc->string("category", request.category)) {
        error = "category must be a string";
        return false;
    }
    std::uint64_t k = 0;
    if (doc->find("k")) {
        if (!doc->u64("k", k)) {
            error = "k must be an unsigned integer";
            return false;
        }
        request.k = static_cast<std::size_t>(k);
    }
    if (doc->find("metric") && !doc->string("metric", request.metric)) {
        error = "metric must be a string";
        return false;
    }
    return true;
}

bool
decodeResponse(const std::string &payload, Response &response,
               std::string &error)
{
    std::optional<obs::JsonValue> doc = parseFlatObject(payload);
    if (!doc) {
        error = "malformed response frame";
        return false;
    }
    if (!doc->boolean("ok", response.ok)) {
        error = "response missing ok";
        return false;
    }
    doc->string("output", response.output);
    doc->string("error", response.error);
    return true;
}

FrameStatus
readFrame(int fd, std::string &payload, std::size_t max_bytes)
{
    unsigned char header[4];
    FrameStatus status = recvAll(fd, header, sizeof(header));
    if (status != FrameStatus::Ok)
        return status;
    std::uint32_t length = (static_cast<std::uint32_t>(header[0]) << 24) |
                           (static_cast<std::uint32_t>(header[1]) << 16) |
                           (static_cast<std::uint32_t>(header[2]) << 8) |
                           static_cast<std::uint32_t>(header[3]);
    if (length > max_bytes)
        return FrameStatus::TooLarge;
    payload.resize(length);
    if (length == 0)
        return FrameStatus::Ok;
    status = recvAll(fd, payload.data(), length);
    return status == FrameStatus::Ok ? FrameStatus::Ok
                                     : FrameStatus::Error;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    unsigned char header[4] = {
        static_cast<unsigned char>((length >> 24) & 0xff),
        static_cast<unsigned char>((length >> 16) & 0xff),
        static_cast<unsigned char>((length >> 8) & 0xff),
        static_cast<unsigned char>(length & 0xff),
    };
    if (!sendAll(fd, header, sizeof(header)))
        return false;
    return sendAll(fd, payload.data(), payload.size());
}

} // namespace serve
} // namespace speclens

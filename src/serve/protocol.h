/**
 * @file
 * Wire protocol of the speclens serve daemon.
 *
 * A connection carries a sequence of length-prefixed JSON frames in
 * each direction:
 *
 *     +----------------+----------------------+
 *     | 4-byte length  |  JSON payload        |
 *     | (big-endian)   |  (UTF-8, no NUL)     |
 *     +----------------+----------------------+
 *
 * Requests are flat JSON objects:
 *
 *     {"op": "characterize", "benchmarks": ["505.mcf_r", "557.xz_r"]}
 *     {"op": "memory", "benchmarks": ["505.mcf_r"]}
 *     {"op": "subset", "category": "rate-int", "k": 3}
 *     {"op": "sensitivity", "metric": "branch"}
 *     {"op": "stats"}
 *     {"op": "shutdown"}
 *
 * Responses are `{"ok": bool, "output": string, "error": string}`
 * where `output` is byte-identical to what the batch CLI prints on
 * stdout for the same query (the serve-smoke check `cmp`s the two).
 *
 * The encoder writes exactly the shapes above; the decoder reads the
 * payload with the shared JSON reader (obs/json.h) and accepts any
 * flat object whose values are strings, unsigned integers, booleans or
 * arrays of strings — enough for this protocol, and strict about
 * everything else.
 */

#ifndef SPECLENS_SERVE_PROTOCOL_H
#define SPECLENS_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace speclens {
namespace serve {

/** Frames above this size are rejected (16 MiB, both directions). */
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/** Request operation. */
enum class Op {
    Characterize, //!< Per-machine metric tables for named benchmarks.
    Memory,       //!< Memory-centric tables (prefetch/way-pred/DRAM).
    Subset,       //!< Representative subset of a CPU2017 category.
    Sensitivity,  //!< Table IX-style sensitivity classes.
    Stats,        //!< Server / store / dedup counters.
    Shutdown,     //!< Graceful drain: finish in-flight work, then exit.
};

/** Wire name of @p op ("characterize", ...). */
std::string opName(Op op);

/** Parse a wire name; returns false on an unknown op. */
bool opFromName(const std::string &name, Op &op);

/** One request frame. */
struct Request
{
    Op op = Op::Stats;

    /** characterize / memory: benchmark names (registry lookup). */
    std::vector<std::string> benchmarks;

    /** subset: category name (speed-int / rate-int / ...). */
    std::string category;

    /** subset: number of representatives. */
    std::size_t k = 3;

    /** sensitivity: metric name (branch / l1d / dtlb). */
    std::string metric;
};

/** One response frame. */
struct Response
{
    bool ok = false;

    /** Rendered report; byte-identical to the batch CLI's stdout. */
    std::string output;

    /** Rejection reason when !ok (no trailing newline). */
    std::string error;
};

/** Encode @p request as a flat JSON object (no frame header). */
std::string encodeRequest(const Request &request);

/** Encode @p response as a flat JSON object (no frame header). */
std::string encodeResponse(const Response &response);

/**
 * Decode a request payload; returns false (and sets @p error) on
 * malformed JSON or an unknown op.
 */
bool decodeRequest(const std::string &payload, Request &request,
                   std::string &error);

/** Decode a response payload; returns false on malformed JSON. */
bool decodeResponse(const std::string &payload, Response &response,
                    std::string &error);

/** Result of reading one frame from a socket. */
enum class FrameStatus {
    Ok,       //!< Payload filled.
    Eof,      //!< Clean close before a header byte arrived.
    Error,    //!< Socket error or mid-frame close.
    TooLarge, //!< Declared length exceeds the limit.
};

/**
 * Read one length-prefixed frame from @p fd into @p payload.
 * Blocks until a full frame (or EOF/error) arrives.
 */
FrameStatus readFrame(int fd, std::string &payload,
                      std::size_t max_bytes = kMaxFrameBytes);

/** Write one length-prefixed frame; false on error or oversize. */
bool writeFrame(int fd, const std::string &payload);

} // namespace serve
} // namespace speclens

#endif // SPECLENS_SERVE_PROTOCOL_H

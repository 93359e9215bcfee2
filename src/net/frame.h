#ifndef ORION_SRC_NET_FRAME_H_
#define ORION_SRC_NET_FRAME_H_

/**
 * @file
 * Orion-Net framing: every message on a serving TCP connection is one
 * length-prefixed frame,
 *
 *   [4]  magic   "ONF1"
 *   [1]  version (kFrameVersion)
 *   [1]  type    (MsgType)
 *   [8]  correlation id (echoed verbatim in the reply; 0 = none)
 *   [8]  payload byte count (must not exceed the receiver's cap)
 *   [..] payload
 *
 * The payload of kRequest/kResponse/kRegister frames is (or contains) an
 * unmodified serve::wire record — the transport moves the existing
 * transport-agnostic byte strings around, it does not reinterpret them.
 * Control payloads (errors, pongs) are built with serial::ByteWriter and
 * decoded through serial::ByteReader, so hostile lengths/counts hit the
 * same bounds-checked validation as every other wire artifact.
 *
 * Hostile-input policy: a frame header that fails validation (bad magic,
 * unknown version/type, payload above the cap) poisons the connection —
 * the stream position can no longer be trusted, so the receiver closes it
 * (FrameServer) or throws (blocking recv_frame).
 */

#include "src/ckks/serial.h"
#include "src/net/socket.h"

namespace orion::telemetry {
class Counter;
}

namespace orion::net {

inline constexpr u8 kFrameMagic[4] = {'O', 'N', 'F', '1'};
inline constexpr u8 kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 1 + 8 + 8;
/** Default per-frame payload cap (key bundles are the largest frames). */
inline constexpr u64 kDefaultMaxFrameBytes = u64(256) << 20;

/** Frame discriminator. Requests carry a correlation id; replies echo it. */
enum class MsgType : u8 {
    kRegister = 1,    ///< c->s: u64 session token + KeyBundle record
    kRegisterOk = 2,  ///< s->c: u64 session token
    kUnregister = 3,  ///< c->s: u64 session token
    kUnregisterOk = 4,  ///< s->c: u64 session token + u8 was_known
    kRequest = 5,     ///< c->s: serve Request record (session = token)
    kResponse = 6,    ///< s->c: serve Response record
    kError = 7,       ///< s->c: u8 ErrCode + string message
    kPing = 8,        ///< health check (empty payload)
    kPong = 9,        ///< u64 queue_depth, inflight, sessions, completed
    kMetrics = 10,    ///< c->s: scrape request (empty payload)
    kMetricsText = 11,  ///< s->c: Prometheus-style exposition string
};
const char* to_string(MsgType t);

/**
 * Typed request failure on the wire. The split that matters operationally:
 * kOverloaded/kShardDown/kShuttingDown are *retryable* (transient server
 * state — back off and resend the same request), kUnknownSession is
 * retryable *after re-registering* (the receiving process has no keys for
 * this session — the failover path), and the rest are permanent for that
 * request.
 */
enum class ErrCode : u8 {
    kOverloaded = 1,      ///< submission queue full (try_submit rejected)
    kUnknownSession = 2,  ///< no keys registered here; re-register first
    kBadSession = 3,      ///< keys vanished mid-request (unregistered)
    kDecodeError = 4,     ///< malformed request record
    kExecError = 5,       ///< execution failed under valid keys
    kShardDown = 6,       ///< router: the owning backend died mid-flight
    kShuttingDown = 7,    ///< endpoint is draining
    kBadFrame = 8,        ///< unhandled/invalid frame for this peer
    kInternal = 9,
};
const char* to_string(ErrCode c);
/** True when resending the identical request later can succeed. */
bool retryable(ErrCode c);
/** True when the client must re-send its key bundle before retrying. */
bool needs_reregister(ErrCode c);

/** One decoded frame. */
struct Frame {
    MsgType type = MsgType::kError;
    u64 corr = 0;
    ckks::serial::Bytes payload;
};

/** Header + payload as one contiguous wire image. */
ckks::serial::Bytes encode_frame(MsgType type, u64 corr,
                                 std::span<const u8> payload);

/**
 * Validates a wire header (magic, version, known type, length <= cap).
 * Throws orion::Error naming the defect; the caller must then drop the
 * connection.
 */
struct FrameHeader {
    MsgType type;
    u64 corr;
    u64 payload_len;
};
FrameHeader decode_frame_header(std::span<const u8> header,
                                u64 max_payload_bytes);

// ---- blocking frame IO (client + router backend links) ----

void send_frame(Conn& conn, MsgType type, u64 corr,
                std::span<const u8> payload, double timeout_s);
Frame recv_frame(Conn& conn, double timeout_s,
                 u64 max_payload_bytes = kDefaultMaxFrameBytes);

// ---- typed control payloads ----

struct WireError {
    ErrCode code = ErrCode::kInternal;
    std::string message;
};
ckks::serial::Bytes encode_error(ErrCode code, const std::string& message);
WireError decode_error(std::span<const u8> payload);

struct Pong {
    u64 queue_depth = 0;
    u64 inflight = 0;
    u64 sessions = 0;
    u64 completed = 0;
};
ckks::serial::Bytes encode_pong(const Pong& p);
Pong decode_pong(std::span<const u8> payload);

/** [u64 token][record bytes] — kRegister's payload. */
ckks::serial::Bytes encode_register(u64 token, std::span<const u8> bundle);
u64 decode_register_token(std::span<const u8> payload);
/** The bundle record bytes of a kRegister payload (view, no copy). */
std::span<const u8> register_bundle(std::span<const u8> payload);

ckks::serial::Bytes encode_u64(u64 v);
u64 decode_u64(std::span<const u8> payload);

ckks::serial::Bytes encode_text(const std::string& s);
std::string decode_text(std::span<const u8> payload);

/**
 * The process-wide net.{bytes,frames}.{rx,tx} counters
 * (telemetry::Registry::global()), bumped by the blocking frame IO above
 * and by FrameServer alike. Captured once: by-name lookup locks the
 * registry.
 */
struct TransportCounters {
    telemetry::Counter& bytes_rx;
    telemetry::Counter& bytes_tx;
    telemetry::Counter& frames_rx;
    telemetry::Counter& frames_tx;
};
const TransportCounters& transport_counters();

}  // namespace orion::net

#endif  // ORION_SRC_NET_FRAME_H_

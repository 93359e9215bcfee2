#include "src/net/frame.h"

#include <cstring>

#include "src/core/telemetry.h"

namespace orion::net {

using ckks::serial::ByteReader;
using ckks::serial::Bytes;
using ckks::serial::ByteWriter;

namespace {

u64
load_u64(const u8* p)
{
    u64 v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;  // little-endian hosts only, matching serial::ByteWriter
}

}  // namespace

const TransportCounters&
transport_counters()
{
    telemetry::Registry& reg = telemetry::Registry::global();
    static const TransportCounters counters{
        reg.counter("net.bytes.rx"), reg.counter("net.bytes.tx"),
        reg.counter("net.frames.rx"), reg.counter("net.frames.tx")};
    return counters;
}

const char*
to_string(MsgType t)
{
    switch (t) {
    case MsgType::kRegister: return "register";
    case MsgType::kRegisterOk: return "register_ok";
    case MsgType::kUnregister: return "unregister";
    case MsgType::kUnregisterOk: return "unregister_ok";
    case MsgType::kRequest: return "request";
    case MsgType::kResponse: return "response";
    case MsgType::kError: return "error";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kMetricsText: return "metrics_text";
    }
    return "unknown";
}

const char*
to_string(ErrCode c)
{
    switch (c) {
    case ErrCode::kOverloaded: return "overloaded";
    case ErrCode::kUnknownSession: return "unknown_session";
    case ErrCode::kBadSession: return "bad_session";
    case ErrCode::kDecodeError: return "decode_error";
    case ErrCode::kExecError: return "exec_error";
    case ErrCode::kShardDown: return "shard_down";
    case ErrCode::kShuttingDown: return "shutting_down";
    case ErrCode::kBadFrame: return "bad_frame";
    case ErrCode::kInternal: return "internal";
    }
    return "unknown";
}

bool
retryable(ErrCode c)
{
    return c == ErrCode::kOverloaded || c == ErrCode::kShardDown ||
           c == ErrCode::kShuttingDown;
}

bool
needs_reregister(ErrCode c)
{
    return c == ErrCode::kUnknownSession || c == ErrCode::kBadSession;
}

Bytes
encode_frame(MsgType type, u64 corr, std::span<const u8> payload)
{
    TELEM_SPAN("net.frame.encode");
    ByteWriter w;
    w.put_raw(kFrameMagic, sizeof(kFrameMagic));
    w.put_u8(kFrameVersion);
    w.put_u8(static_cast<u8>(type));
    w.put_u64(corr);
    w.put_u64(payload.size());
    w.put_raw(payload.data(), payload.size());
    return w.take();
}

FrameHeader
decode_frame_header(std::span<const u8> header, u64 max_payload_bytes)
{
    ORION_CHECK(header.size() >= kFrameHeaderBytes,
                "frame header needs " << kFrameHeaderBytes << " bytes, got "
                                      << header.size());
    ORION_CHECK(std::memcmp(header.data(), kFrameMagic,
                            sizeof(kFrameMagic)) == 0,
                "bad frame magic (not an Orion-Net peer?)");
    const u8 version = header[4];
    ORION_CHECK(version == kFrameVersion,
                "unsupported frame version " << int(version) << " (expected "
                                             << int(kFrameVersion) << ")");
    const u8 type = header[5];
    ORION_CHECK(type >= static_cast<u8>(MsgType::kRegister) &&
                    type <= static_cast<u8>(MsgType::kMetricsText),
                "unknown frame type " << int(type));
    FrameHeader h;
    h.type = static_cast<MsgType>(type);
    h.corr = load_u64(header.data() + 6);
    h.payload_len = load_u64(header.data() + 14);
    ORION_CHECK(h.payload_len <= max_payload_bytes,
                "frame payload of " << h.payload_len
                                    << " bytes exceeds the per-frame cap of "
                                    << max_payload_bytes << " bytes");
    return h;
}

void
send_frame(Conn& conn, MsgType type, u64 corr, std::span<const u8> payload,
           double timeout_s)
{
    const Bytes wire = encode_frame(type, corr, payload);
    conn.write_all(wire.data(), wire.size(), timeout_s);
    transport_counters().bytes_tx.add(wire.size());
    transport_counters().frames_tx.add();
}

Frame
recv_frame(Conn& conn, double timeout_s, u64 max_payload_bytes)
{
    u8 header[kFrameHeaderBytes];
    conn.read_exact(header, sizeof(header), timeout_s);
    FrameHeader h;
    {
        TELEM_SPAN("net.frame.decode");
        h = decode_frame_header(std::span<const u8>(header, sizeof(header)),
                                max_payload_bytes);
    }
    Frame f;
    f.type = h.type;
    f.corr = h.corr;
    f.payload.resize(h.payload_len);
    if (h.payload_len > 0) {
        conn.read_exact(f.payload.data(), f.payload.size(), timeout_s);
    }
    transport_counters().bytes_rx.add(kFrameHeaderBytes + h.payload_len);
    transport_counters().frames_rx.add();
    return f;
}

Bytes
encode_error(ErrCode code, const std::string& message)
{
    ByteWriter w;
    w.put_u8(static_cast<u8>(code));
    w.put_u64(message.size());
    w.put_raw(message.data(), message.size());
    return w.take();
}

WireError
decode_error(std::span<const u8> payload)
{
    ByteReader r(payload);
    WireError e;
    const u8 code = r.read_u8();
    ORION_CHECK(code >= static_cast<u8>(ErrCode::kOverloaded) &&
                    code <= static_cast<u8>(ErrCode::kInternal),
                "unknown wire error code " << int(code));
    e.code = static_cast<ErrCode>(code);
    const u64 len = r.read_count(1, "error message");
    e.message.resize(len);
    r.read_raw(e.message.data(), len);
    r.expect_done("wire error");
    return e;
}

Bytes
encode_pong(const Pong& p)
{
    ByteWriter w;
    w.put_u64(p.queue_depth);
    w.put_u64(p.inflight);
    w.put_u64(p.sessions);
    w.put_u64(p.completed);
    return w.take();
}

Pong
decode_pong(std::span<const u8> payload)
{
    ByteReader r(payload);
    Pong p;
    p.queue_depth = r.read_u64();
    p.inflight = r.read_u64();
    p.sessions = r.read_u64();
    p.completed = r.read_u64();
    r.expect_done("pong");
    return p;
}

Bytes
encode_register(u64 token, std::span<const u8> bundle)
{
    ByteWriter w;
    w.put_u64(token);
    w.put_raw(bundle.data(), bundle.size());
    return w.take();
}

u64
decode_register_token(std::span<const u8> payload)
{
    ByteReader r(payload);
    return r.read_u64();
}

std::span<const u8>
register_bundle(std::span<const u8> payload)
{
    ORION_CHECK(payload.size() > 8,
                "register payload carries no key bundle");
    return payload.subspan(8);
}

Bytes
encode_u64(u64 v)
{
    ByteWriter w;
    w.put_u64(v);
    return w.take();
}

u64
decode_u64(std::span<const u8> payload)
{
    ByteReader r(payload);
    const u64 v = r.read_u64();
    r.expect_done("u64 payload");
    return v;
}

Bytes
encode_text(const std::string& s)
{
    ByteWriter w;
    w.put_u64(s.size());
    w.put_raw(s.data(), s.size());
    return w.take();
}

std::string
decode_text(std::span<const u8> payload)
{
    ByteReader r(payload);
    const u64 len = r.read_count(1, "text payload");
    std::string s(len, '\0');
    r.read_raw(s.data(), len);
    r.expect_done("text payload");
    return s;
}

}  // namespace orion::net

#ifndef QBE_NET_WIRE_H_
#define QBE_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/example_table.h"

namespace qbe {

/// The qbe discovery wire protocol (DESIGN.md §16): versioned,
/// length-framed, XXH64-checksummed binary frames carrying discovery
/// requests and responses between qbe_loadgen / QbeClient and the epoll
/// server behind `qbe_serve --listen`.
///
/// Frame layout (all integers little-endian, like the snapshot and WAL
/// formats; doubles are their 8 IEEE-754 bytes, so scores round-trip
/// bit-exactly):
///
///   offset  0  u32  magic "QBEW"
///   offset  4  u16  protocol version (kWireVersion)
///   offset  6  u16  message type (WireType)
///   offset  8  u32  payload length in bytes
///   offset 12  payload
///   then       u64  XXH64 over header + payload
///
/// Every decode treats the bytes as untrusted input (the PR 4 snapshot
/// reader discipline): bounds-checked cursor, element counts validated
/// against the payload size before any reservation, no trailing garbage
/// accepted, and a corrupted frame yields a *typed* WireFault — never a
/// crash, never a silently wrong message.

inline constexpr uint32_t kWireMagic = 0x57454251;  // "QBEW"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kWireHeaderBytes = 12;
inline constexpr size_t kWireTrailerBytes = 8;
/// Hard cap on a frame's payload; a length field beyond it is rejected
/// before any buffering, so a corrupt length can't balloon memory.
inline constexpr size_t kMaxWirePayload = 16u << 20;

/// Message types. Unknown values are a typed fault.
enum class WireType : uint16_t {
  kDiscoverRequest = 1,
  kDiscoverResponse = 2,
  kError = 3,
};

/// Protocol-level fault taxonomy. Faults about the *byte stream*
/// (kBadMagic..kBadPayload) mean the stream can no longer be trusted and
/// the connection closes after the error frame; server-state faults
/// (kServerBusy..) leave framing intact.
enum class WireFault : uint16_t {
  kNone = 0,
  kBadMagic,      // stream desync or not speaking this protocol
  kBadVersion,    // version skew: peer must upgrade/downgrade
  kBadChecksum,   // frame corrupted in flight
  kBadType,       // unknown message type
  kTooLarge,      // declared payload exceeds the cap
  kBadPayload,    // payload fails structural validation
  kServerBusy,    // connection cap reached — retry later
  kIdleTimeout,   // server closed an idle keep-alive connection
  kShuttingDown,  // server is draining
};

const char* WireFaultName(WireFault fault);

/// A discovery request on the wire: the example table plus the per-request
/// knobs a remote client may set. `id` is client-chosen and echoed back
/// verbatim, so pipelined responses can be matched to their requests.
struct WireRequest {
  uint64_t id = 0;
  /// Per-request deadline in ms; 0 = the server's default.
  uint32_t deadline_ms = 0;
  std::vector<std::string> column_names;
  std::vector<std::vector<EtCell>> rows;

  ExampleTable ToExampleTable() const;
  static WireRequest FromExampleTable(const ExampleTable& et, uint64_t id,
                                      uint32_t deadline_ms = 0);
};

/// One ranked query of a response.
struct WireQuery {
  std::string sql;
  uint32_t matched_rows = 0;
  double score = 0.0;
};

/// A discovery response: the service-level status string (RequestStatus
/// names — "ok", "rejected", "timed_out", ...), the ranked queries, and
/// the per-request metrics the acceptance checks compare bit-exactly.
struct WireResponse {
  uint64_t id = 0;
  std::string status = "ok";
  std::string error;
  bool timed_out = false;
  double latency_seconds = 0.0;
  double queue_seconds = 0.0;
  uint64_t num_candidates = 0;
  int64_t verifications = 0;
  int64_t estimated_cost = 0;
  int64_t pruned_without_verification = 0;
  std::vector<WireQuery> queries;
};

/// A typed protocol error. `id` is the offending request's id when known
/// (0 otherwise — e.g. the frame never decoded far enough to have one).
struct WireErrorMsg {
  uint64_t id = 0;
  WireFault fault = WireFault::kNone;
  std::string message;
};

// --- encoding --------------------------------------------------------------

void EncodeRequestFrame(const WireRequest& request, std::string* out);
void EncodeResponseFrame(const WireResponse& response, std::string* out);
void EncodeErrorFrame(const WireErrorMsg& error, std::string* out);

// --- incremental frame extraction ------------------------------------------

enum class FrameStatus {
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kFrame,     // one whole valid frame extracted
  kFault,     // stream-level fault; *fault / *detail say why
};

/// A validated frame inside the caller's buffer (payload is a borrowed
/// pointer — valid until the buffer is consumed/moved).
struct FrameView {
  WireType type = WireType::kError;
  const char* payload = nullptr;
  size_t payload_bytes = 0;
  /// Total bytes this frame occupies; consume this many from the buffer.
  size_t frame_bytes = 0;
};

/// Tries to extract one frame from the front of `data`. Validation order:
/// magic (as soon as 4 bytes exist), version/type/length plausibility (at
/// a full header), checksum (at a full frame). kFault fills `*fault` and,
/// if non-null, `*detail`.
FrameStatus TryExtractFrame(const char* data, size_t len, FrameView* frame,
                            WireFault* fault, std::string* detail = nullptr);

// --- payload decoding (all bounds-checked; false = reject) -----------------

/// Also rejects example-table shapes ExampleTable cannot hold: no columns,
/// or more than ExampleTable::kMaxColumns. The server answers a rejected
/// payload with kBadPayload.
bool DecodeRequestPayload(const char* data, size_t len, WireRequest* out,
                          std::string* error);
bool DecodeResponsePayload(const char* data, size_t len, WireResponse* out,
                           std::string* error);
bool DecodeErrorPayload(const char* data, size_t len, WireErrorMsg* out,
                        std::string* error);

}  // namespace qbe

#endif  // QBE_NET_WIRE_H_

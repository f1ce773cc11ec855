#include "net/wire.h"

#include <cstring>

#include "util/hash64.h"

namespace qbe {
namespace {

// --- little put/get primitives (same memcpy discipline as ingest/wal.cc) ---

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  char buf[2];
  std::memcpy(buf, &v, 2);
  out->append(buf, 2);
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutI64(std::string* out, int64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over untrusted payload bytes.
struct Cursor {
  const char* p;
  size_t remaining;

  bool U8(uint8_t* v) {
    if (remaining < 1) return false;
    *v = static_cast<uint8_t>(*p);
    ++p;
    --remaining;
    return true;
  }
  bool U16(uint16_t* v) { return Fixed(v, 2); }
  bool U32(uint32_t* v) { return Fixed(v, 4); }
  bool U64(uint64_t* v) { return Fixed(v, 8); }
  bool I64(int64_t* v) { return Fixed(v, 8); }
  bool F64(double* v) { return Fixed(v, 8); }
  bool Str(std::string* out) {
    uint32_t n = 0;
    if (!U32(&n) || remaining < n) return false;
    out->assign(p, n);
    p += n;
    remaining -= n;
    return true;
  }

 private:
  template <typename T>
  bool Fixed(T* v, size_t n) {
    if (remaining < n) return false;
    std::memcpy(v, p, n);
    p += n;
    remaining -= n;
    return true;
  }
};

void AppendFrame(WireType type, const std::string& payload, std::string* out) {
  std::string frame;
  frame.reserve(kWireHeaderBytes + payload.size() + kWireTrailerBytes);
  PutU32(&frame, kWireMagic);
  PutU16(&frame, kWireVersion);
  PutU16(&frame, static_cast<uint16_t>(type));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  const uint64_t checksum = Hash64(frame.data(), frame.size());
  out->append(frame);
  PutU64(out, checksum);
}

}  // namespace

const char* WireFaultName(WireFault fault) {
  switch (fault) {
    case WireFault::kNone: return "none";
    case WireFault::kBadMagic: return "bad_magic";
    case WireFault::kBadVersion: return "bad_version";
    case WireFault::kBadChecksum: return "bad_checksum";
    case WireFault::kBadType: return "bad_type";
    case WireFault::kTooLarge: return "too_large";
    case WireFault::kBadPayload: return "bad_payload";
    case WireFault::kServerBusy: return "server_busy";
    case WireFault::kIdleTimeout: return "idle_timeout";
    case WireFault::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

ExampleTable WireRequest::ToExampleTable() const {
  ExampleTable et(column_names);
  for (const std::vector<EtCell>& row : rows) et.AddRowCells(row);
  return et;
}

WireRequest WireRequest::FromExampleTable(const ExampleTable& et, uint64_t id,
                                          uint32_t deadline_ms) {
  WireRequest request;
  request.id = id;
  request.deadline_ms = deadline_ms;
  for (int c = 0; c < et.num_columns(); ++c) {
    request.column_names.push_back(et.column_name(c));
  }
  for (int r = 0; r < et.num_rows(); ++r) {
    std::vector<EtCell> row;
    row.reserve(static_cast<size_t>(et.num_columns()));
    for (int c = 0; c < et.num_columns(); ++c) row.push_back(et.cell(r, c));
    request.rows.push_back(std::move(row));
  }
  return request;
}

void EncodeRequestFrame(const WireRequest& request, std::string* out) {
  std::string payload;
  PutU64(&payload, request.id);
  PutU32(&payload, request.deadline_ms);
  PutU32(&payload, static_cast<uint32_t>(request.column_names.size()));
  for (const std::string& name : request.column_names) {
    PutString(&payload, name);
  }
  PutU32(&payload, static_cast<uint32_t>(request.rows.size()));
  for (const std::vector<EtCell>& row : request.rows) {
    for (const EtCell& cell : row) {
      PutU8(&payload, cell.exact ? 1 : 0);
      PutString(&payload, cell.text);
    }
  }
  AppendFrame(WireType::kDiscoverRequest, payload, out);
}

void EncodeResponseFrame(const WireResponse& response, std::string* out) {
  std::string payload;
  PutU64(&payload, response.id);
  PutString(&payload, response.status);
  PutString(&payload, response.error);
  PutU8(&payload, response.timed_out ? 1 : 0);
  PutF64(&payload, response.latency_seconds);
  PutF64(&payload, response.queue_seconds);
  PutU64(&payload, response.num_candidates);
  PutI64(&payload, response.verifications);
  PutI64(&payload, response.estimated_cost);
  PutI64(&payload, response.pruned_without_verification);
  PutU32(&payload, static_cast<uint32_t>(response.queries.size()));
  for (const WireQuery& query : response.queries) {
    PutString(&payload, query.sql);
    PutU32(&payload, query.matched_rows);
    PutF64(&payload, query.score);
  }
  AppendFrame(WireType::kDiscoverResponse, payload, out);
}

void EncodeErrorFrame(const WireErrorMsg& error, std::string* out) {
  std::string payload;
  PutU64(&payload, error.id);
  PutU16(&payload, static_cast<uint16_t>(error.fault));
  PutString(&payload, error.message);
  AppendFrame(WireType::kError, payload, out);
}

FrameStatus TryExtractFrame(const char* data, size_t len, FrameView* frame,
                            WireFault* fault, std::string* detail) {
  auto fail = [&](WireFault f, const std::string& why) {
    *fault = f;
    if (detail != nullptr) *detail = why;
    return FrameStatus::kFault;
  };
  // Magic is checked the moment 4 bytes exist: a desynced or non-protocol
  // stream is rejected without waiting for a phantom "rest of the frame".
  if (len < 4) return FrameStatus::kNeedMore;
  uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  if (magic != kWireMagic) {
    return fail(WireFault::kBadMagic, "frame does not start with QBEW");
  }
  if (len < kWireHeaderBytes) return FrameStatus::kNeedMore;
  uint16_t version = 0, type = 0;
  uint32_t payload_bytes = 0;
  std::memcpy(&version, data + 4, 2);
  std::memcpy(&type, data + 6, 2);
  std::memcpy(&payload_bytes, data + 8, 4);
  // Length plausibility comes before the checksum: an absurd length would
  // otherwise make us wait forever for bytes that never come.
  if (payload_bytes > kMaxWirePayload) {
    return fail(WireFault::kTooLarge,
                "declared payload of " + std::to_string(payload_bytes) +
                    " bytes exceeds the " +
                    std::to_string(kMaxWirePayload) + "-byte cap");
  }
  const size_t frame_bytes =
      kWireHeaderBytes + payload_bytes + kWireTrailerBytes;
  if (len < frame_bytes) return FrameStatus::kNeedMore;
  uint64_t stored = 0;
  std::memcpy(&stored, data + kWireHeaderBytes + payload_bytes, 8);
  const uint64_t computed =
      Hash64(data, kWireHeaderBytes + payload_bytes);
  if (stored != computed) {
    return fail(WireFault::kBadChecksum, "frame fails its XXH64 checksum");
  }
  // Version/type checks run on a checksum-clean frame so the error names
  // the real condition (skew, unknown type) rather than line noise.
  if (version != kWireVersion) {
    return fail(WireFault::kBadVersion,
                "peer speaks protocol version " + std::to_string(version) +
                    ", this build speaks " + std::to_string(kWireVersion));
  }
  if (type != static_cast<uint16_t>(WireType::kDiscoverRequest) &&
      type != static_cast<uint16_t>(WireType::kDiscoverResponse) &&
      type != static_cast<uint16_t>(WireType::kError)) {
    return fail(WireFault::kBadType,
                "unknown message type " + std::to_string(type));
  }
  frame->type = static_cast<WireType>(type);
  frame->payload = data + kWireHeaderBytes;
  frame->payload_bytes = payload_bytes;
  frame->frame_bytes = frame_bytes;
  return FrameStatus::kFrame;
}

bool DecodeRequestPayload(const char* data, size_t len, WireRequest* out,
                          std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  Cursor cur{data, len};
  uint32_t num_columns = 0, num_rows = 0;
  if (!cur.U64(&out->id) || !cur.U32(&out->deadline_ms) ||
      !cur.U32(&num_columns)) {
    return fail("request header truncated");
  }
  // Each column name costs at least its 4-byte length; each cell at least
  // its flag byte + length. Counts the payload cannot possibly hold are
  // rejected before any reservation (the WAL decoder's rule).
  if (num_columns > len / 4) return fail("column count exceeds payload");
  if (num_columns == 0) return fail("request has no columns");
  if (num_columns > static_cast<uint32_t>(ExampleTable::kMaxColumns)) {
    return fail("request has " + std::to_string(num_columns) +
                " columns; example tables are limited to " +
                std::to_string(ExampleTable::kMaxColumns));
  }
  out->column_names.clear();
  out->column_names.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string name;
    if (!cur.Str(&name)) return fail("column name truncated");
    out->column_names.push_back(std::move(name));
  }
  if (!cur.U32(&num_rows)) return fail("row count truncated");
  if (num_rows > len / num_columns) {
    return fail("row count exceeds payload");
  }
  out->rows.clear();
  out->rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    std::vector<EtCell> row;
    row.reserve(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      uint8_t flags = 0;
      EtCell cell;
      if (!cur.U8(&flags) || flags > 1 || !cur.Str(&cell.text)) {
        return fail("cell (" + std::to_string(r) + ", " + std::to_string(c) +
                    ") truncated or has bad flags");
      }
      cell.exact = flags != 0;
      row.push_back(std::move(cell));
    }
    out->rows.push_back(std::move(row));
  }
  if (cur.remaining != 0) return fail("trailing bytes after request");
  return true;
}

bool DecodeResponsePayload(const char* data, size_t len, WireResponse* out,
                           std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  Cursor cur{data, len};
  uint8_t timed_out = 0;
  uint32_t num_queries = 0;
  if (!cur.U64(&out->id) || !cur.Str(&out->status) || !cur.Str(&out->error) ||
      !cur.U8(&timed_out) || timed_out > 1 ||
      !cur.F64(&out->latency_seconds) || !cur.F64(&out->queue_seconds) ||
      !cur.U64(&out->num_candidates) || !cur.I64(&out->verifications) ||
      !cur.I64(&out->estimated_cost) ||
      !cur.I64(&out->pruned_without_verification) || !cur.U32(&num_queries)) {
    return fail("response header truncated");
  }
  out->timed_out = timed_out != 0;
  // A query costs at least its three fixed fields (4 + 4 + 8 bytes).
  if (num_queries > len / 16) return fail("query count exceeds payload");
  out->queries.clear();
  out->queries.reserve(num_queries);
  for (uint32_t q = 0; q < num_queries; ++q) {
    WireQuery query;
    if (!cur.Str(&query.sql) || !cur.U32(&query.matched_rows) ||
        !cur.F64(&query.score)) {
      return fail("query " + std::to_string(q) + " truncated");
    }
    out->queries.push_back(std::move(query));
  }
  if (cur.remaining != 0) return fail("trailing bytes after response");
  return true;
}

bool DecodeErrorPayload(const char* data, size_t len, WireErrorMsg* out,
                        std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  Cursor cur{data, len};
  uint16_t fault = 0;
  if (!cur.U64(&out->id) || !cur.U16(&fault) || !cur.Str(&out->message)) {
    return fail("error frame truncated");
  }
  if (fault == 0 || fault > static_cast<uint16_t>(WireFault::kShuttingDown)) {
    return fail("unknown fault code " + std::to_string(fault));
  }
  out->fault = static_cast<WireFault>(fault);
  if (cur.remaining != 0) return fail("trailing bytes after error");
  return true;
}

}  // namespace qbe

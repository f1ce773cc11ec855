#include "ingest/wal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/hash64.h"

namespace qbe {
namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
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

/// Bounds-checked little cursor over untrusted log bytes.
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
  bool U32(uint32_t* v) {
    if (remaining < 4) return false;
    std::memcpy(v, p, 4);
    p += 4;
    remaining -= 4;
    return true;
  }
  bool I64(int64_t* v) {
    if (remaining < 8) return false;
    std::memcpy(v, p, 8);
    p += 8;
    remaining -= 8;
    return true;
  }
  bool Bytes(size_t n, std::string* out) {
    if (remaining < n) return false;
    out->assign(p, n);
    p += n;
    remaining -= n;
    return true;
  }
};

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  PutU32(&payload, record.rel);
  if (record.kind == WalRecord::kTombstone) {
    PutU32(&payload, record.row);
    return payload;
  }
  PutU32(&payload, static_cast<uint32_t>(record.values.size()));
  for (const Value& value : record.values) {
    if (std::holds_alternative<int64_t>(value)) {
      PutU8(&payload, 0);
      PutI64(&payload, std::get<int64_t>(value));
    } else {
      const std::string& text = std::get<std::string>(value);
      PutU8(&payload, 1);
      PutU32(&payload, static_cast<uint32_t>(text.size()));
      payload.append(text);
    }
  }
  return payload;
}

bool DecodePayload(uint32_t kind, const char* data, size_t len,
                   WalRecord* record) {
  Cursor cur{data, len};
  record->kind = kind;
  if (!cur.U32(&record->rel)) return false;
  if (kind == WalRecord::kTombstone) {
    return cur.U32(&record->row) && cur.remaining == 0;
  }
  uint32_t num_cells = 0;
  if (!cur.U32(&num_cells)) return false;
  // A cell is at least 2 bytes (tag + empty text length would be 5; id is
  // 9) — reject counts the payload cannot possibly hold before reserving.
  if (num_cells > len) return false;
  record->values.clear();
  record->values.reserve(num_cells);
  for (uint32_t c = 0; c < num_cells; ++c) {
    uint8_t tag = 0;
    if (!cur.U8(&tag)) return false;
    if (tag == 0) {
      int64_t v = 0;
      if (!cur.I64(&v)) return false;
      record->values.emplace_back(v);
    } else if (tag == 1) {
      uint32_t bytes = 0;
      std::string text;
      if (!cur.U32(&bytes) || !cur.Bytes(bytes, &text)) return false;
      record->values.emplace_back(std::move(text));
    } else {
      return false;
    }
  }
  return cur.remaining == 0;
}

}  // namespace

std::string EncodeWalHeader() {
  std::string header;
  PutU64(&header, kWalMagic);
  PutU32(&header, kWalVersion);
  PutU32(&header, 0);
  return header;
}

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  std::string payload = EncodePayload(record);
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, record.kind);
  frame.append(payload);
  uint64_t checksum = Hash64(frame.data(), frame.size());
  out->append(frame);
  PutU64(out, checksum);
}

WalReadResult ReadWal(const std::string& path) {
  WalReadResult result;
  if (!std::filesystem::exists(path)) {
    result.ok = true;  // no log yet — nothing to replay
    return result;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.error = "cannot open WAL " + path;
    return result;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string header = EncodeWalHeader();
  if (bytes.size() < header.size()) {
    result.error = "WAL " + path + " is shorter than its 16-byte header";
    return result;
  }
  if (std::memcmp(bytes.data(), header.data(), 8) != 0) {
    result.error = "WAL " + path + " has a bad magic number";
    return result;
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  if (version != kWalVersion) {
    result.error = "WAL " + path + " has unsupported version " +
                   std::to_string(version);
    return result;
  }

  size_t offset = header.size();
  while (offset < bytes.size()) {
    size_t remaining = bytes.size() - offset;
    if (remaining < 8) {
      result.truncated_tail = true;  // torn mid-frame-header
      break;
    }
    uint32_t payload_bytes = 0;
    uint32_t kind = 0;
    std::memcpy(&payload_bytes, bytes.data() + offset, 4);
    std::memcpy(&kind, bytes.data() + offset + 4, 4);
    const size_t frame_bytes = 8 + static_cast<size_t>(payload_bytes) + 8;
    if (remaining < frame_bytes) {
      result.truncated_tail = true;  // torn mid-payload or mid-checksum
      break;
    }
    uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + offset + 8 + payload_bytes, 8);
    uint64_t computed = Hash64(bytes.data() + offset, 8 + payload_bytes);
    if (stored != computed) {
      result.error = "WAL " + path + ": record " +
                     std::to_string(result.records.size()) + " at offset " +
                     std::to_string(offset) + " fails its checksum";
      return result;
    }
    if (kind != WalRecord::kAppend && kind != WalRecord::kTombstone) {
      result.error = "WAL " + path + ": record " +
                     std::to_string(result.records.size()) +
                     " has unknown kind " + std::to_string(kind);
      return result;
    }
    WalRecord record;
    if (!DecodePayload(kind, bytes.data() + offset + 8, payload_bytes,
                       &record)) {
      result.error = "WAL " + path + ": record " +
                     std::to_string(result.records.size()) +
                     " has an undecodable payload";
      return result;
    }
    result.records.push_back(std::move(record));
    offset += frame_bytes;
  }
  result.ok = true;
  return result;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(static_cast<FILE*>(file_));
    file_ = nullptr;
  }
}

bool WalWriter::Open(const std::string& path, std::string* error) {
  Close();
  path_ = path;
  bool needs_header = !std::filesystem::exists(path) ||
                      std::filesystem::file_size(path) == 0;
  FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open WAL " + path + " for append: " +
               std::strerror(errno);
    }
    return false;
  }
  file_ = f;
  if (needs_header) {
    const std::string header = EncodeWalHeader();
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
      if (error != nullptr) *error = "cannot write WAL header to " + path;
      Close();
      return false;
    }
  }
  return true;
}

bool WalWriter::Append(const WalRecord& record, std::string* error) {
  if (file_ == nullptr) {
    if (error != nullptr) *error = "WAL writer is not open";
    return false;
  }
  std::string frame;
  EncodeWalRecord(record, &frame);
  if (std::fwrite(frame.data(), 1, frame.size(),
                  static_cast<FILE*>(file_)) != frame.size()) {
    if (error != nullptr) *error = "short write appending to WAL " + path_;
    return false;
  }
  return true;
}

bool WalWriter::Sync(std::string* error) {
  if (file_ == nullptr) {
    if (error != nullptr) *error = "WAL writer is not open";
    return false;
  }
  FILE* f = static_cast<FILE*>(file_);
  if (std::fflush(f) != 0) {
    if (error != nullptr) *error = "fflush failed on WAL " + path_;
    return false;
  }
#ifndef _WIN32
  if (fsync(fileno(f)) != 0) {
    if (error != nullptr) *error = "fsync failed on WAL " + path_;
    return false;
  }
#endif
  return true;
}

bool WalWriter::Truncate(const std::vector<WalRecord>& records,
                         std::string* error) {
  const std::string tmp = path_ + ".tmp";
  {
    FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    std::string bytes = EncodeWalHeader();
    for (const WalRecord& record : records) EncodeWalRecord(record, &bytes);
    // The kept records were acknowledged as durable in the old log, so the
    // new one is synced before it replaces it.
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size()
              && std::fflush(out) == 0;
#ifndef _WIN32
    ok = ok && fsync(fileno(out)) == 0;
#endif
    ok = std::fclose(out) == 0 && ok;
    if (!ok) {
      if (error != nullptr) *error = "cannot write and sync " + tmp;
      return false;
    }
  }
  Close();
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot rename " + tmp + " over " + path_ + ": " + ec.message();
    }
    return false;
  }
  return Open(path_, error);
}

}  // namespace qbe

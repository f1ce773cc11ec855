#include "obs/slow_log.h"

#include <cstdio>

namespace qbe {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string SlowQueryJson(const SlowQueryRecord& record) {
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"event\":\"slow_query\",\"request_id\":%llu,"
                "\"status\":\"%s\",\"latency_ms\":%.3f,\"queue_ms\":%.3f",
                static_cast<unsigned long long>(record.request_id),
                JsonEscape(record.status).c_str(),
                record.latency_seconds * 1e3, record.queue_seconds * 1e3);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"et_rows\":%d,\"et_cols\":%d,\"candidates\":%lld,"
                "\"verifications\":%lld,\"queries\":%lld,"
                "\"traced\":%s",
                record.et_rows, record.et_cols,
                static_cast<long long>(record.candidates),
                static_cast<long long>(record.verifications),
                static_cast<long long>(record.queries),
                record.traced ? "true" : "false");
  out += buf;
  out += ",\"phases\":{";
  bool first = true;
  for (const auto& [name, seconds] : record.phases) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", first ? "" : ",",
                  JsonEscape(name).c_str(), seconds * 1e3);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace qbe

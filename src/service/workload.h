#ifndef QBE_SERVICE_WORKLOAD_H_
#define QBE_SERVICE_WORKLOAD_H_

#include <optional>
#include <string>
#include <vector>

#include "core/example_table.h"

namespace qbe {

/// Request-workload parsing shared by qbe_serve and qbe_loadgen.
///
/// File format: one example table per line; rows separated by ';', cells
/// by '|' (the qbe_cli --row syntax). Blank lines and lines starting with
/// '#' are skipped. Example (the paper's Figure 2 ET):
///
///   Mike|ThinkPad|Office;Mary|iPad|;Bob||Dropbox
///
/// Rows narrower than the first row are padded with empty (unconstrained)
/// cells — that's what a trailing '|' means. A row *wider* than the first
/// is rejected: silently dropping cells would verify a different query
/// than the one the user wrote. So is a first row wider than
/// ExampleTable::kMaxColumns.

/// "Mike|ThinkPad|Office;Mary|iPad|" -> ExampleTable. On a malformed line
/// returns nullopt and (if non-null) sets *error to the reason.
std::optional<ExampleTable> ParseRequestLine(const std::string& line,
                                             std::string* error = nullptr);

/// Loads a request file into *out. On failure returns false with *error
/// naming the file, the 1-based offending line number, its content, and
/// the reason — e.g.
///
///   workload.txt:7: row 2 has 4 cells, wider than the 3-column first row:
///   "Mike|ThinkPad|Office|extra"
bool LoadRequestFile(const std::string& path, std::vector<ExampleTable>* out,
                     std::string* error);

}  // namespace qbe

#endif  // QBE_SERVICE_WORKLOAD_H_

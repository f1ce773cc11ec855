#include "core/session.h"

#include "util/check.h"

namespace qbe {

DiscoverySession::DiscoverySession(const Database& db,
                                   const DiscoveryOptions& options)
    : DiscoverySession(db, options, nullptr) {}

DiscoverySession::DiscoverySession(const Database& db,
                                   const DiscoveryOptions& options,
                                   EvalCacheBase* shared_cache)
    : db_(db),
      options_(options),
      cache_(shared_cache != nullptr ? shared_cache : &own_cache_) {
  options_.cache = cache_;
}

void DiscoverySession::SetTable(ExampleTable et) {
  column_names_.clear();
  for (int c = 0; c < et.num_columns(); ++c) {
    column_names_.push_back(et.column_name(c));
  }
  rows_.clear();
  for (int r = 0; r < et.num_rows(); ++r) {
    std::vector<EtCell> row;
    for (int c = 0; c < et.num_columns(); ++c) row.push_back(et.cell(r, c));
    rows_.push_back(std::move(row));
  }
  RebuildTable();
}

void DiscoverySession::AddRow(const std::vector<std::string>& cells) {
  if (column_names_.empty()) {
    column_names_.assign(cells.size(), "");
  }
  QBE_CHECK_MSG(cells.size() == column_names_.size(),
                "row width does not match the session's column count");
  std::vector<EtCell> row;
  row.reserve(cells.size());
  for (const std::string& text : cells) row.push_back(EtCell{text, false});
  rows_.push_back(std::move(row));
  RebuildTable();
}

void DiscoverySession::RemoveLastRow() {
  QBE_CHECK(!rows_.empty());
  rows_.pop_back();
  RebuildTable();
}

void DiscoverySession::RebuildTable() {
  et_ = std::make_unique<ExampleTable>(column_names_);
  for (const std::vector<EtCell>& row : rows_) et_->AddRowCells(row);
}

DiscoveryResult DiscoverySession::Discover() {
  QBE_CHECK_MSG(et_ != nullptr && et_->num_rows() > 0,
                "add at least one example row first");
  DiscoveryResult result = DiscoverQueries(db_, *et_, options_);
  total_verifications_ += result.counters.verifications;
  return result;
}

const ExampleTable& DiscoverySession::table() const {
  QBE_CHECK(et_ != nullptr);
  return *et_;
}

int DiscoverySession::num_rows() const {
  return static_cast<int>(rows_.size());
}

}  // namespace qbe

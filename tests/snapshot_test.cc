// Binary snapshot store (DESIGN.md §11): round-trip bit-identity between a
// CSV-built database and its mmap-opened snapshot — same schema, same cell
// values, same discovery outcomes — plus
// corruption handling: a truncated file, a flipped byte in any section, or
// a wrong format version must be rejected cleanly, never crash.

#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "snapshot/format.h"
#include "storage/database.h"
#include "util/hash64.h"

namespace qbe {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = testing::TempDir() + "/snapshot_" + name + ".qbes";
  std::filesystem::remove(path);
  return path;
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Discovery outcome fingerprint: the sorted valid-SQL set plus the
/// verification counter — the two things the snapshot must reproduce
/// exactly for the paper's algorithms to be unaffected by the storage mode.
struct Outcome {
  std::vector<std::string> sqls;
  int64_t verifications;
  bool operator==(const Outcome&) const = default;
};

Outcome Discover(const Database& db, const ExampleTable& et) {
  DiscoveryResult result = DiscoverQueries(db, et);
  Outcome out;
  for (const auto& q : result.queries) out.sqls.push_back(q.sql);
  std::sort(out.sqls.begin(), out.sqls.end());
  out.verifications = result.counters.verifications;
  return out;
}

class SnapshotTest : public ::testing::Test {
 protected:
  /// Writes `db` to a fresh snapshot and returns the path; asserts success.
  std::string Snapshot(const Database& db, const std::string& name) {
    std::string path = TempPath(name);
    std::string error;
    EXPECT_TRUE(WriteSnapshot(db, path, &error)) << error;
    return path;
  }
};

TEST_F(SnapshotTest, RoundTripPreservesSchemaAndCells) {
  Database original = MakeRetailerDatabase();
  std::string path = Snapshot(original, "cells");
  std::string error;
  std::optional<Database> loaded = Database::OpenSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  ASSERT_EQ(loaded->num_relations(), original.num_relations());
  ASSERT_EQ(loaded->foreign_keys().size(), original.foreign_keys().size());
  EXPECT_EQ(loaded->token_dict().size(), original.token_dict().size());
  for (int r = 0; r < original.num_relations(); ++r) {
    const Relation& a = original.relation(r);
    const Relation& b = loaded->relation(loaded->RelationIdByName(a.name()));
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (int c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.columns()[c].name, b.columns()[c].name);
      ASSERT_EQ(a.columns()[c].type, b.columns()[c].type);
      for (uint32_t row = 0; row < a.num_rows(); ++row) {
        if (a.columns()[c].type == ColumnType::kId) {
          ASSERT_EQ(a.IdAt(c, row), b.IdAt(c, row));
        } else {
          ASSERT_EQ(a.TextAt(c, row), b.TextAt(c, row));
        }
      }
    }
  }
  for (const ForeignKey& fk : original.foreign_keys()) {
    auto to_vec = [](std::span<const uint32_t> s) {
      return std::vector<uint32_t>(s.begin(), s.end());
    };
    EXPECT_EQ(to_vec(loaded->ReferencedRows(fk.id)),
              to_vec(original.ReferencedRows(fk.id)));
    EXPECT_EQ(to_vec(loaded->ValidFromRows(fk.id)),
              to_vec(original.ValidFromRows(fk.id)));
    EXPECT_EQ(loaded->EdgeHasNoDangling(fk.id),
              original.EdgeHasNoDangling(fk.id));
    EXPECT_EQ(loaded->FkDistinctValues(fk.id),
              original.FkDistinctValues(fk.id));
  }
}

TEST_F(SnapshotTest, RoundTripDiscoveryIdentical) {
  Database original = MakeRetailerDatabase();
  std::string path = Snapshot(original, "discovery");
  std::string error;
  std::optional<Database> loaded = Database::OpenSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  ExampleTable et = MakeFigure2ExampleTable();
  Outcome a = Discover(original, et);
  Outcome b = Discover(*loaded, et);
  EXPECT_FALSE(a.sqls.empty());
  EXPECT_EQ(a, b);
}

TEST_F(SnapshotTest, RoundTripImdbLikeDiscoveryIdentical) {
  // A second schema shape: 21 relations, parallel edges, shared token
  // dictionary across 42 text columns.
  ImdbConfig config;
  config.scale = 0.1;
  config.seed = 7;
  Database original = MakeImdbLikeDatabase(config);
  std::string path = Snapshot(original, "imdb");
  std::string error;
  std::optional<Database> loaded = Database::OpenSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  ExampleTable et({"A", "B"});
  et.AddRow({"mike", "the"});
  EXPECT_EQ(Discover(original, et), Discover(*loaded, et));
}

TEST_F(SnapshotTest, KeyLookupsWorkOnMappedDatabase) {
  // PkLookup/FkLookup are built lazily after a snapshot open; they must
  // return the same rows as the eagerly built CSV-path maps.
  Database original = MakeRetailerDatabase();
  std::string path = Snapshot(original, "lookups");
  std::optional<Database> loaded = Database::OpenSnapshot(path);
  ASSERT_TRUE(loaded.has_value());
  const ForeignKey& fk = original.foreign_keys()[0];
  for (uint32_t row = 0; row < original.relation(fk.to_rel).num_rows();
       ++row) {
    int64_t key = original.relation(fk.to_rel).IdAt(fk.to_col, row);
    EXPECT_EQ(loaded->PkLookup(fk.to_rel, fk.to_col, key),
              original.PkLookup(fk.to_rel, fk.to_col, key));
    const std::vector<uint32_t>* a = original.FkLookup(fk.id, key);
    const std::vector<uint32_t>* b = loaded->FkLookup(fk.id, key);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST_F(SnapshotTest, VerifyAcceptsIntactFile) {
  std::string path = Snapshot(MakeRetailerDatabase(), "verify");
  std::string error;
  EXPECT_TRUE(VerifySnapshot(path, &error)) << error;
  std::optional<SnapshotFileInfo> info = ReadSnapshotInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->version, snapshot::kVersion);
  EXPECT_GT(info->sections.size(), 0u);
}

TEST_F(SnapshotTest, MissingFileReportsPath) {
  std::string error;
  EXPECT_FALSE(Database::OpenSnapshot("/no/such/file.qbes", &error));
  EXPECT_NE(error.find("/no/such/file.qbes"), std::string::npos);
}

TEST_F(SnapshotTest, TruncatedFileRejected) {
  std::string path = Snapshot(MakeRetailerDatabase(), "truncated");
  std::vector<char> bytes = ReadFile(path);
  // Every truncation point must fail cleanly: mid-header, mid-directory,
  // and mid-payload.
  for (size_t keep : {size_t{10}, size_t{200}, bytes.size() / 2}) {
    WriteFile(path, std::vector<char>(bytes.begin(), bytes.begin() + keep));
    std::string error;
    EXPECT_FALSE(Database::OpenSnapshot(path, &error).has_value())
        << "accepted a file truncated to " << keep << " bytes";
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(VerifySnapshot(path));
  }
}

TEST_F(SnapshotTest, FlippedByteInEverySectionRejected) {
  std::string path = Snapshot(MakeRetailerDatabase(), "flip");
  const std::vector<char> intact = ReadFile(path);
  std::string error;
  std::optional<SnapshotFileInfo> info = ReadSnapshotInfo(path, &error);
  ASSERT_TRUE(info.has_value()) << error;
  for (const SnapshotSectionInfo& s : info->sections) {
    if (s.bytes == 0) continue;
    std::vector<char> bytes = intact;
    bytes[s.offset + s.bytes / 2] ^= 0x40;
    WriteFile(path, bytes);
    EXPECT_FALSE(Database::OpenSnapshot(path, &error).has_value())
        << "accepted a flipped byte in section " << s.name;
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    EXPECT_FALSE(VerifySnapshot(path));
  }
  WriteFile(path, intact);
  EXPECT_TRUE(VerifySnapshot(path, &error)) << error;
}

TEST_F(SnapshotTest, WrongVersionRejected) {
  std::string path = Snapshot(MakeRetailerDatabase(), "version");
  std::vector<char> bytes = ReadFile(path);
  // Bump the version and recompute the header checksum so rejection comes
  // from the version gate, not from checksum validation.
  snapshot::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = snapshot::kVersion + 1;
  header.header_checksum =
      Hash64(&header, offsetof(snapshot::FileHeader, header_checksum));
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteFile(path, bytes);
  std::string error;
  EXPECT_FALSE(Database::OpenSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(SnapshotTest, BadMagicRejected) {
  std::string path = TempPath("magic");
  WriteFile(path, std::vector<char>(4096, 'x'));
  std::string error;
  EXPECT_FALSE(Database::OpenSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(SnapshotTest, WriteRequiresBuiltDatabase) {
  Database db;
  std::string error;
  EXPECT_FALSE(WriteSnapshot(db, TempPath("unbuilt"), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace qbe

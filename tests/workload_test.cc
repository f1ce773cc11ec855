#include "service/workload.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace qbe {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  std::string path = testing::TempDir() + "/workload_" + name + ".txt";
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return path;
}

TEST(ParseRequestLineTest, ParsesRowsAndPadsNarrowOnes) {
  std::optional<ExampleTable> et =
      ParseRequestLine("Mike|ThinkPad|Office;Mary|iPad|;Bob||Dropbox");
  ASSERT_TRUE(et.has_value());
  EXPECT_EQ(et->num_rows(), 3);
  EXPECT_EQ(et->num_columns(), 3);
  EXPECT_EQ(et->cell(0, 0).text, "Mike");
  EXPECT_EQ(et->cell(1, 2).text, "");  // trailing '|' = unconstrained
  EXPECT_EQ(et->cell(2, 1).text, "");
  EXPECT_EQ(et->cell(2, 2).text, "Dropbox");

  // A row shorter than the first is padded, same as a trailing '|'.
  et = ParseRequestLine("Mike|ThinkPad|Office;Mary");
  ASSERT_TRUE(et.has_value());
  EXPECT_EQ(et->num_columns(), 3);
  EXPECT_EQ(et->cell(1, 0).text, "Mary");
  EXPECT_EQ(et->cell(1, 1).text, "");
}

TEST(ParseRequestLineTest, RejectsWideRowNamingIt) {
  std::string error;
  std::optional<ExampleTable> et =
      ParseRequestLine("Mike|ThinkPad;Mary|iPad|Office", &error);
  EXPECT_FALSE(et.has_value());
  EXPECT_NE(error.find("row 2"), std::string::npos) << error;
  EXPECT_NE(error.find("3 cells"), std::string::npos) << error;
}

TEST(ParseRequestLineTest, RejectsMoreColumnsThanAnExampleTableHolds) {
  std::string line = "a";
  for (int c = 1; c < ExampleTable::kMaxColumns; ++c) line += "|a";
  std::string error;
  std::optional<ExampleTable> et = ParseRequestLine(line, &error);
  ASSERT_TRUE(et.has_value()) << error;
  EXPECT_EQ(et->num_columns(), ExampleTable::kMaxColumns);

  et = ParseRequestLine(line + "|a", &error);
  EXPECT_FALSE(et.has_value());
  EXPECT_NE(error.find("33 cells"), std::string::npos) << error;
}

TEST(ParseRequestLineTest, RejectsAllEmptyCells) {
  std::string error;
  EXPECT_FALSE(ParseRequestLine("||;||", &error).has_value());
  EXPECT_EQ(error, "no non-empty cells");
  EXPECT_FALSE(ParseRequestLine("", &error).has_value());
}

TEST(LoadRequestFileTest, LoadsSkippingCommentsAndBlanks) {
  std::string path = WriteTemp("good",
                               "# workload\n"
                               "\n"
                               "Mike|ThinkPad|Office\n"
                               "Mary|iPad\n");
  std::vector<ExampleTable> requests;
  std::string error;
  ASSERT_TRUE(LoadRequestFile(path, &requests, &error)) << error;
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].num_columns(), 3);
  EXPECT_EQ(requests[1].num_columns(), 2);
}

TEST(LoadRequestFileTest, ErrorNamesLineNumberAndContent) {
  std::string path = WriteTemp("bad",
                               "# comment line\n"
                               "Mike|ThinkPad\n"
                               "\n"
                               "|||\n"
                               "Mary|iPad\n");
  std::vector<ExampleTable> requests;
  std::string error;
  EXPECT_FALSE(LoadRequestFile(path, &requests, &error));
  // The bad line is line 4 of the file (1-based, comments/blanks counted).
  EXPECT_NE(error.find(":4:"), std::string::npos) << error;
  EXPECT_NE(error.find("\"|||\""), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(LoadRequestFileTest, MissingFileIsAnError) {
  std::vector<ExampleTable> requests;
  std::string error;
  EXPECT_FALSE(LoadRequestFile(testing::TempDir() + "/does_not_exist.txt",
                               &requests, &error));
  EXPECT_NE(error.find("does_not_exist"), std::string::npos);
}

}  // namespace
}  // namespace qbe

// SpanOrVec is the storage dual behind every array the snapshot can map:
// owned vector (build path) or borrowed span (mmap path). The property that
// matters is that query kernels cannot tell the modes apart — this suite
// drives the CSR span-intersection kernels (kernels/kernels.h) with the same
// data in both modes and requires identical output, across the merge and
// galloping regimes. Plus the XXH64 checksum primitive the snapshot format
// builds on.

#include "util/span_or_vec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "kernels/kernels.h"
#include "util/hash64.h"

namespace qbe {
namespace {

TEST(SpanOrVecTest, OwnedModeBasics) {
  SpanOrVec<uint32_t> v(std::vector<uint32_t>{1, 2, 3});
  EXPECT_FALSE(v.is_mapped());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2u);
  EXPECT_EQ(v.back(), 3u);
  EXPECT_GT(v.OwnedBytes(), 0u);
  v.MutableVec().push_back(4);
  EXPECT_EQ(v.size(), 4u);
}

TEST(SpanOrVecTest, MappedModeAliasesWithoutOwning) {
  std::vector<uint32_t> backing = {5, 6, 7};
  SpanOrVec<uint32_t> v =
      SpanOrVec<uint32_t>::Mapped(std::span<const uint32_t>(backing));
  EXPECT_TRUE(v.is_mapped());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), backing.data());  // zero-copy: same address
  EXPECT_EQ(v.OwnedBytes(), 0u);
}

TEST(SpanOrVecDeathTest, MutableVecForbiddenInMappedMode) {
  std::vector<uint32_t> backing = {1};
  SpanOrVec<uint32_t> v =
      SpanOrVec<uint32_t>::Mapped(std::span<const uint32_t>(backing));
  EXPECT_DEATH(v.MutableVec(), "mapped");
}

TEST(SpanOrVecTest, AssigningVectorLeavesMappedMode) {
  std::vector<uint32_t> backing = {1, 2};
  SpanOrVec<uint32_t> v =
      SpanOrVec<uint32_t>::Mapped(std::span<const uint32_t>(backing));
  v = std::vector<uint32_t>{9};
  EXPECT_FALSE(v.is_mapped());
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 9u);
}

/// Sorted-unique random row set, the invariant every CSR posting list and
/// semijoin row set maintains.
std::vector<uint32_t> RandomRowSet(std::mt19937_64* rng, size_t max_size,
                                   uint32_t universe) {
  std::uniform_int_distribution<size_t> size_dist(0, max_size);
  std::uniform_int_distribution<uint32_t> val_dist(0, universe - 1);
  std::set<uint32_t> rows;
  size_t want = size_dist(*rng);
  while (rows.size() < want) rows.insert(val_dist(*rng));
  return std::vector<uint32_t>(rows.begin(), rows.end());
}

TEST(SpanOrVecTest, IntersectionKernelsIdenticalAcrossModesProperty) {
  std::mt19937_64 rng(20140622);
  for (int trial = 0; trial < 300; ++trial) {
    // Vary the size ratio to hit both the linear-merge regime and the
    // galloping regime (one side >= 16x smaller).
    bool skewed = trial % 3 == 0;
    std::vector<uint32_t> a =
        RandomRowSet(&rng, skewed ? 4 : 200, /*universe=*/1000);
    std::vector<uint32_t> b = RandomRowSet(&rng, 400, /*universe=*/1000);

    SpanOrVec<uint32_t> owned_a(a), owned_b(b);
    SpanOrVec<uint32_t> mapped_a =
        SpanOrVec<uint32_t>::Mapped(std::span<const uint32_t>(a));
    SpanOrVec<uint32_t> mapped_b =
        SpanOrVec<uint32_t>::Mapped(std::span<const uint32_t>(b));

    std::vector<uint32_t> from_owned, from_mapped, from_mixed;
    kernels::IntersectSortedInto(owned_a.span(), owned_b.span(),
                                 &from_owned);
    kernels::IntersectSortedInto(mapped_a.span(), mapped_b.span(),
                                 &from_mapped);
    kernels::IntersectSortedInto(owned_a.span(), mapped_b.span(),
                                 &from_mixed);
    EXPECT_EQ(from_owned, from_mapped) << "trial " << trial;
    EXPECT_EQ(from_owned, from_mixed) << "trial " << trial;

    // Reference: naive set intersection.
    std::vector<uint32_t> expected;
    std::set<uint32_t> in_b(b.begin(), b.end());
    for (uint32_t v : a) {
      if (in_b.count(v) > 0) expected.push_back(v);
    }
    EXPECT_EQ(from_owned, expected) << "trial " << trial;

    // In-place variant against a mapped right-hand side.
    std::vector<uint32_t> acc = a, scratch;
    kernels::IntersectSortedInPlace(&acc, mapped_b.span(), &scratch);
    EXPECT_EQ(acc, expected) << "trial " << trial;
  }
}

TEST(Hash64Test, MatchesXxh64ReferenceVectors) {
  // Official XXH64 test vectors (seed 0).
  EXPECT_EQ(Hash64(nullptr, 0), 0xef46db3751d8e999ULL);
  const char abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(Hash64(abc, 3), 0x44bc2cf5ad770999ULL);
}

TEST(Hash64Test, SensitiveToEveryByte) {
  std::vector<char> data(1000);
  std::mt19937_64 rng(99);
  for (char& c : data) c = static_cast<char>(rng());
  const uint64_t base = Hash64(data.data(), data.size());
  EXPECT_EQ(Hash64(data.data(), data.size()), base);  // deterministic
  for (size_t i : {size_t{0}, size_t{31}, size_t{500}, data.size() - 1}) {
    data[i] ^= 1;
    EXPECT_NE(Hash64(data.data(), data.size()), base) << "byte " << i;
    data[i] ^= 1;
  }
  EXPECT_NE(Hash64(data.data(), data.size() - 1), base);
}

}  // namespace
}  // namespace qbe

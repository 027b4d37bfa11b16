#include "src/digg/hybrid_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "src/stats/rng.h"

namespace digg::platform {
namespace {

std::vector<std::uint32_t> sorted_unique_span(stats::Rng& rng,
                                              std::size_t universe,
                                              std::size_t max_len) {
  std::set<std::uint32_t> picked;
  const std::size_t len =
      static_cast<std::size_t>(rng.uniform_int(0, int64_t(max_len)));
  while (picked.size() < len)
    picked.insert(static_cast<std::uint32_t>(
        rng.uniform_int(0, int64_t(universe) - 1)));
  return {picked.begin(), picked.end()};
}

/// The set's members in ascending order, by probing every key of its
/// universe (insert grows the universe to cover every key it takes).
std::vector<std::uint32_t> members(const HybridSet& set) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 0; id < set.universe(); ++id)
    if (set.contains(id)) out.push_back(id);
  return out;
}

void expect_equals_reference(const HybridSet& set,
                             const std::set<std::uint32_t>& ref,
                             const char* where) {
  ASSERT_EQ(set.size(), ref.size()) << where;
  const std::vector<std::uint32_t> got = members(set);
  const std::vector<std::uint32_t> want(ref.begin(), ref.end());
  ASSERT_EQ(got, want) << where;
}

TEST(HybridSet, EmptyAfterReset) {
  HybridSet s(100);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.is_bitmap());
  EXPECT_EQ(s.universe(), 100u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(members(s).empty());
}

TEST(HybridSet, InsertEraseContains) {
  HybridSet s(1000);
  EXPECT_TRUE(s.insert(42));
  EXPECT_FALSE(s.insert(42));  // already present
  EXPECT_TRUE(s.contains(42));
  EXPECT_FALSE(s.contains(41));
  EXPECT_TRUE(s.erase(42));
  EXPECT_FALSE(s.erase(42));  // already gone
  EXPECT_FALSE(s.contains(42));
  EXPECT_EQ(s.size(), 0u);
}

// Erase + reinsert through the tombstone staging buffer: the id must
// resurrect, not stay dead (the platform re-adds watchers whose fan voted).
TEST(HybridSet, TombstoneEraseThenReinsert) {
  HybridSet s(100000);  // large universe: stays in array mode
  for (std::uint32_t id = 0; id < 500; id += 5) s.insert(id);
  ASSERT_FALSE(s.is_bitmap());
  EXPECT_TRUE(s.erase(250));   // tombstoned in dead_
  EXPECT_FALSE(s.contains(250));
  EXPECT_TRUE(s.insert(250));  // cancels the tombstone
  EXPECT_TRUE(s.contains(250));
  EXPECT_TRUE(s.erase(250));
  EXPECT_TRUE(s.insert(250));
  EXPECT_TRUE(s.contains(250));
}

// More than kStageCap pending inserts must survive the staging flush.
TEST(HybridSet, StagingFlushPastCap) {
  HybridSet s(1u << 20);  // threshold 32768: array mode throughout
  std::set<std::uint32_t> ref;
  // Descending singles: worst case for a sorted array, every id stages.
  for (std::uint32_t i = 0; i < 3 * HybridSet::kStageCap + 7; ++i) {
    const std::uint32_t id = 1000000 - 31 * i;
    EXPECT_TRUE(s.insert(id));
    ref.insert(id);
  }
  ASSERT_FALSE(s.is_bitmap());
  expect_equals_reference(s, ref, "after staged singles");
  // And the same number of staged erases.
  for (std::uint32_t i = 0; i < 2 * HybridSet::kStageCap + 3; ++i) {
    const std::uint32_t id = 1000000 - 31 * i;
    EXPECT_TRUE(s.erase(id));
    ref.erase(id);
  }
  expect_equals_reference(s, ref, "after staged erases");
}

// Crossing promote_threshold flips to bitmap mode exactly once, with no
// observable change in contents.
TEST(HybridSet, PromotionBoundaryPreservesContents) {
  const std::size_t universe = 4096;
  EXPECT_EQ(HybridSet::promote_threshold(universe), 128u);  // 4096/32
  // Tiny universes floor at kStageCap so staging can fill before promoting.
  EXPECT_EQ(HybridSet::promote_threshold(100), HybridSet::kStageCap);
  EXPECT_EQ(HybridSet::promote_threshold(1u << 20), (1u << 20) / 32);

  // Drive a set over its threshold with a bulk union and check the flip.
  HybridSet t(universe);
  std::set<std::uint32_t> ref;
  std::vector<std::uint32_t> span;
  for (std::uint32_t id = 0; id < universe; id += 2) span.push_back(id);
  ASSERT_GT(span.size(), HybridSet::promote_threshold(universe));
  EXPECT_FALSE(t.is_bitmap());
  t.union_span(span);
  ref.insert(span.begin(), span.end());
  EXPECT_TRUE(t.is_bitmap());
  expect_equals_reference(t, ref, "after promoting union");

  // Bitmap-mode ops still agree with the reference.
  EXPECT_FALSE(t.insert(span.front()));
  EXPECT_TRUE(t.insert(1));
  ref.insert(1);
  EXPECT_TRUE(t.erase(2));
  ref.erase(2);
  expect_equals_reference(t, ref, "bitmap-mode mutations");

  // reset() drops back to array mode.
  t.reset(universe);
  EXPECT_FALSE(t.is_bitmap());
  EXPECT_EQ(t.size(), 0u);
}

// Gallop search edges: first element, last element, gaps, before-begin,
// past-end, and a query sequence that jumps backwards (pos hint must not
// produce false negatives — union_span only ever walks forward, but
// contains() is called with arbitrary keys).
TEST(HybridSet, GallopEdgeCases) {
  HybridSet s(1u << 20);
  const std::uint32_t ids[] = {3, 10, 11, 12, 500, 65536, 1000000};
  for (std::uint32_t id : ids) s.insert(id);
  for (std::uint32_t id : ids) EXPECT_TRUE(s.contains(id)) << id;
  const std::uint32_t absent[] = {0, 2, 4, 9, 13, 499, 501, 65535, 1000001};
  for (std::uint32_t id : absent) EXPECT_FALSE(s.contains(id)) << id;
  // Ascending span probing through all the gaps exercises the gallop hint.
  std::vector<std::uint32_t> span;
  for (std::uint32_t k = 0; k <= 1000; ++k) span.push_back(k);
  std::size_t news = 0;
  s.union_span(
      span, [](std::uint32_t) { return true; },
      [&](std::uint32_t) { ++news; });
  EXPECT_EQ(news, span.size() - 5);  // 3, 10, 11, 12, 500 already present
}

// union_span's accept filter and on_new ordering contract.
TEST(HybridSet, UnionSpanAcceptAndOrder) {
  HybridSet s(100000);
  s.insert(20);
  s.insert(40);
  const std::vector<std::uint32_t> span = {10, 20, 30, 40, 50, 60};
  std::vector<std::uint32_t> seen;
  s.union_span(
      span, [](std::uint32_t id) { return id != 50; },
      [&](std::uint32_t id) { seen.push_back(id); });
  // Present ids (20, 40) and the rejected id (50) never reach on_new; the
  // rest arrive in span order.
  const std::vector<std::uint32_t> want = {10, 30, 60};
  EXPECT_EQ(seen, want);
  EXPECT_FALSE(s.contains(50));
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(60));
  EXPECT_EQ(s.size(), 5u);
}

TEST(HybridSet, InsertBeyondUniverseGrows) {
  HybridSet s(10);
  EXPECT_TRUE(s.insert(1000));
  EXPECT_GE(s.universe(), 1001u);
  EXPECT_TRUE(s.contains(1000));
  // Bitmap mode grows too.
  HybridSet t(64);
  for (std::uint32_t id = 0; id < 64; ++id) t.insert(id);
  ASSERT_TRUE(t.is_bitmap());
  EXPECT_TRUE(t.insert(5000));
  EXPECT_TRUE(t.contains(5000));
  EXPECT_EQ(t.size(), 65u);
}

// The randomized property test: a HybridSet and a std::set driven by the
// same operation stream must agree at every step, across both
// representations and the promotion in between. With `filtered`, every
// union vetoes the ids divisible by 7, so the accept path runs in both
// modes too.
void run_against_reference(std::size_t universe, bool filtered) {
  SCOPED_TRACE(filtered ? "accept id % 7 != 0" : "accept all");
  const auto accept = [filtered](std::uint32_t v) {
    return !filtered || v % 7 != 0;
  };
  stats::Rng rng(42 + static_cast<std::uint64_t>(universe));
  HybridSet s(universe);
  std::set<std::uint32_t> ref;
  bool promoted = false;
  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t id = static_cast<std::uint32_t>(
        rng.uniform_int(0, int64_t(universe) - 1));
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // single insert
        EXPECT_EQ(s.insert(id), ref.insert(id).second);
        break;
      }
      case 4:
      case 5: {  // single erase
        EXPECT_EQ(s.erase(id), ref.erase(id) > 0);
        break;
      }
      case 6:
      case 7: {  // membership probe
        EXPECT_EQ(s.contains(id), ref.count(id) > 0);
        break;
      }
      case 8: {  // sorted-span union (the CSR fan-list path)
        const auto span = sorted_unique_span(rng, universe, 64);
        std::vector<std::uint32_t> news;
        s.union_span(span, accept,
                     [&](std::uint32_t v) { news.push_back(v); });
        std::vector<std::uint32_t> want_new;
        for (const std::uint32_t v : span)
          if (accept(v) && ref.insert(v).second) want_new.push_back(v);
        EXPECT_EQ(news, want_new);
        break;
      }
      case 9: {  // occasional full reset
        if (rng.uniform_int(0, 9) == 0) {
          s.reset(universe);
          ref.clear();
        }
        break;
      }
      default:
        break;
    }
    promoted = promoted || s.is_bitmap();
    ASSERT_EQ(s.size(), ref.size()) << "universe " << universe
                                    << " step " << step;
    if (step % 257 == 0) {
      const std::vector<std::uint32_t> want(ref.begin(), ref.end());
      ASSERT_EQ(members(s), want)
          << "universe " << universe << " step " << step;
    }
  }
  expect_equals_reference(s, ref, "final state");
  // The two small universes cross promotion under either filter, so the
  // bitmap pair runs in the check as well as the array mode.
  if (universe < 100000) {
    EXPECT_TRUE(promoted) << "universe " << universe;
  }
}

TEST(HybridSet, RandomizedAgainstReferenceSet) {
  const std::size_t universes[] = {300, 4096, 100000};
  for (const std::size_t universe : universes) {
    for (const bool filtered : {false, true})
      run_against_reference(universe, filtered);
  }
}

}  // namespace
}  // namespace digg::platform

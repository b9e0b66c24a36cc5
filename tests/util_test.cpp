#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/small_vec.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace splice::util {
namespace {

// ---------------------------------------------------------------------------
// SmallVec
// ---------------------------------------------------------------------------

/// True while the elements live inside the vector object itself.
template <typename V>
bool stored_inline(const V& v) {
  const auto* self = reinterpret_cast<const std::byte*>(&v);
  const auto* elems = reinterpret_cast<const std::byte*>(v.data());
  return elems >= self && elems < self + sizeof(V);
}

// The heap pointer shares the inline bytes and size/capacity are 16-bit:
// the whole header is 4 bytes over the inline elements.
static_assert(sizeof(SmallVec<std::uint32_t, 2>) == 12);
static_assert(sizeof(SmallVec<std::uint32_t, 8>) == 36);
static_assert(sizeof(SmallVec<std::uint32_t, 15>) == 64);

TEST(SmallVec, SpillsPastInlineCapacityAndShrinksBack) {
  SmallVec<std::uint32_t, 4> v;
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(stored_inline(v));
  EXPECT_EQ(v.capacity(), 4U);
  v.push_back(4);  // spill
  EXPECT_FALSE(stored_inline(v));
  EXPECT_GT(v.capacity(), 4U);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);

  v.shrink_to_fit();  // 5 > N: stays on the heap
  EXPECT_FALSE(stored_inline(v));
  v.pop_back();
  v.pop_back();
  v.shrink_to_fit();  // 3 <= N: back inline, heap cell returned
  EXPECT_TRUE(stored_inline(v));
  EXPECT_EQ(v.capacity(), 4U);
  ASSERT_EQ(v.size(), 3U);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(v[i], i);
  v.push_back(9);  // refills inline without spilling again
  EXPECT_TRUE(stored_inline(v));
  EXPECT_EQ(v.back(), 9U);
}

TEST(SmallVec, NonTrivialElementsSurviveSpillAndShrink) {
  SmallVec<std::string, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(std::string(40, 'a' + i));
  EXPECT_FALSE(stored_inline(v));
  v.resize(2);
  v.shrink_to_fit();
  EXPECT_TRUE(stored_inline(v));
  EXPECT_EQ(v[0], std::string(40, 'a'));
  EXPECT_EQ(v[1], std::string(40, 'b'));
}

TEST(SmallVec, CopyIsDeepForInlineAndSpilled) {
  for (const std::size_t n : {std::size_t{3}, std::size_t{9}}) {
    SmallVec<std::string, 4> original;
    for (std::size_t i = 0; i < n; ++i) {
      original.push_back("item" + std::to_string(i));
    }
    SmallVec<std::string, 4> copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_NE(copy.data(), original.data());
    EXPECT_EQ(stored_inline(copy), n <= 4);
    copy[0] = "changed";
    EXPECT_EQ(original[0], "item0");

    SmallVec<std::string, 4> assigned;
    assigned.push_back("stale");
    assigned = original;
    EXPECT_EQ(assigned, original);
    const SmallVec<std::string, 4>& alias = assigned;
    assigned = alias;  // self-assignment keeps the contents
    EXPECT_EQ(assigned, original);
  }
}

TEST(SmallVec, MoveStealsHeapAndRelocatesInline) {
  SmallVec<std::string, 2> spilled;
  for (int i = 0; i < 6; ++i) spilled.push_back(std::to_string(i));
  const std::string* cell = spilled.data();
  SmallVec<std::string, 2> stolen(std::move(spilled));
  EXPECT_EQ(stolen.data(), cell);  // the heap cell changed hands
  ASSERT_EQ(stolen.size(), 6U);
  EXPECT_EQ(stolen[5], "5");
  // NOLINTBEGIN(bugprone-use-after-move): moved-from state is the contract
  EXPECT_TRUE(spilled.empty());
  EXPECT_TRUE(stored_inline(spilled));
  EXPECT_EQ(spilled.capacity(), 2U);
  spilled.push_back("reused");
  EXPECT_EQ(spilled[0], "reused");
  // NOLINTEND(bugprone-use-after-move)

  SmallVec<std::string, 2> small;
  small.push_back("x");
  SmallVec<std::string, 2> target;
  for (int i = 0; i < 5; ++i) target.push_back("old");  // spilled target
  target = std::move(small);
  EXPECT_TRUE(stored_inline(target));
  ASSERT_EQ(target.size(), 1U);
  EXPECT_EQ(target[0], "x");
  target = std::move(stolen);  // inline target takes a heap cell
  EXPECT_EQ(target.data(), cell);
  EXPECT_EQ(target.size(), 6U);
}

TEST(SmallVec, SelfAliasingPushBackAcrossSpillBoundary) {
  SmallVec<std::string, 2> v;
  v.push_back(std::string(32, 'x'));
  v.push_back(std::string(32, 'y'));
  v.push_back(v[0]);  // full inline: the argument moves with the storage
  ASSERT_EQ(v.size(), 3U);
  EXPECT_EQ(v[2], std::string(32, 'x'));
  while (v.size() < v.capacity()) v.push_back("fill");
  v.push_back(v[1]);  // full on the heap: regrowth with an aliased argument
  EXPECT_EQ(v.back(), std::string(32, 'y'));

  SmallVec<std::uint32_t, 3> w{7, 8, 9};
  w.push_back(w[2]);
  EXPECT_EQ(w[3], 9U);
}

TEST(SmallVec, GrowthPastSixteenBitSizeThrows) {
  using Bytes = SmallVec<std::uint8_t, 4>;
  Bytes v;
  for (std::size_t i = 0; i < Bytes::kMaxSize; ++i) {
    v.push_back(static_cast<std::uint8_t>(i));
  }
  ASSERT_EQ(v.size(), 65535U);
  EXPECT_THROW(v.push_back(1), std::length_error);
  EXPECT_EQ(v.size(), 65535U);  // nothing wrapped or was lost
  EXPECT_EQ(v[65534], static_cast<std::uint8_t>(65534));
  Bytes r;
  EXPECT_THROW(r.reserve(65536), std::length_error);
  EXPECT_THROW(r.resize(70000), std::length_error);
  EXPECT_TRUE(r.empty());
}

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  SplitMix64 c(43);
  const std::uint64_t x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro256, ReplaysExactlyForSameSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro256, NextBelowRespectsBound) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_EQ(rng.next_below(0), 0U);
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8U);
}

TEST(Xoshiro256, NextRangeInclusiveBounds) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256, BernoulliExtremes) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Xoshiro256, ExponentialHasRequestedMean) {
  Xoshiro256 rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Xoshiro256, ShufflePreservesElements) {
  Xoshiro256 rng(19);
  std::vector<int> xs{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = xs;
  rng.shuffle(xs);
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, sorted);
}

TEST(Xoshiro256, SplitProducesIndependentStream) {
  Xoshiro256 a(21);
  Xoshiro256 child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(Table, AsciiAlignmentAndCsvEscaping) {
  Table t({"name", "value"});
  t.set_title("demo");
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "2"});
  t.add_row({"short"});  // padded
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("demo"), std::string::npos);
  EXPECT_NE(ascii.find("| plain"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_EQ(t.row_count(), 3U);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(7)), "7");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-7)), "-7");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOne) {
  parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0U);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace splice::util

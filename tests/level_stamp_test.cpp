#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "net/codec.h"
#include "net/message.h"
#include "runtime/level_stamp.h"
#include "util/rng.h"

namespace {
// Every global operator new in this binary, so a test can check that a
// block of code allocates nothing.
std::atomic<std::size_t> g_news{0};
}  // namespace

// Opaque bodies keep GCC from pairing the malloc inside an inlined new with
// the free inside an inlined delete (-Wmismatched-new-delete). The array
// forms are replaced too: AddressSanitizer intercepts them on its own.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  return ::operator new(n);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace splice::runtime {
namespace {

using Model = std::vector<StampDigit>;

Model digits_of(const LevelStamp& s) { return Model(s.begin(), s.end()); }

/// Heap allocations `fn` makes.
template <typename Fn>
std::size_t news_during(Fn&& fn) {
  const std::size_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(LevelStamp, RootIsNull) {
  const LevelStamp root = LevelStamp::root();
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.depth(), 0U);
  EXPECT_EQ(root.to_string(), "<root>");
}

TEST(LevelStamp, ChildAppendsDigit) {
  const LevelStamp child = LevelStamp::root().child(3).child(7);
  EXPECT_EQ(child.depth(), 2U);
  EXPECT_EQ(digits_of(child), (Model{3, 7}));
  EXPECT_EQ(child.digit(0), 3U);
  EXPECT_EQ(child.last(), 7U);
  EXPECT_EQ(child.to_string(), "<3.7>");
}

TEST(LevelStamp, ParentInvertsChild) {
  const LevelStamp s = LevelStamp::root().child(1).child(2).child(3);
  EXPECT_EQ(s.parent(), LevelStamp::root().child(1).child(2));
  EXPECT_EQ(s.parent().parent().parent(), LevelStamp::root());
}

TEST(LevelStamp, AncestryIsProperPrefix) {
  const LevelStamp root = LevelStamp::root();
  const LevelStamp a = root.child(1);
  const LevelStamp ab = a.child(2);
  const LevelStamp ac = a.child(3);

  EXPECT_TRUE(root.is_ancestor_of(a));
  EXPECT_TRUE(root.is_ancestor_of(ab));
  EXPECT_TRUE(a.is_ancestor_of(ab));
  EXPECT_FALSE(a.is_ancestor_of(a));      // strict
  EXPECT_FALSE(ab.is_ancestor_of(a));     // reversed
  EXPECT_FALSE(ab.is_ancestor_of(ac));    // siblings' children
  EXPECT_TRUE(ab.is_descendant_of(root));
  EXPECT_TRUE(a.subsumes(a));
  EXPECT_TRUE(a.subsumes(ab));
  EXPECT_FALSE(ab.subsumes(a));
}

TEST(LevelStamp, DifferentBranchesUnrelated) {
  const LevelStamp left = LevelStamp::root().child(1).child(5);
  const LevelStamp right = LevelStamp::root().child(2).child(5);
  EXPECT_FALSE(left.is_ancestor_of(right));
  EXPECT_FALSE(right.is_ancestor_of(left));
  EXPECT_EQ(left.common_prefix(right), 0U);
}

TEST(LevelStamp, CommonPrefixLength) {
  const LevelStamp a = LevelStamp::root().child(1).child(2).child(3);
  const LevelStamp b = LevelStamp::root().child(1).child(2).child(9).child(4);
  EXPECT_EQ(a.common_prefix(b), 2U);
  EXPECT_EQ(a.common_prefix(a), 3U);
}

TEST(LevelStamp, UniquenessByConstruction) {
  // Stamps of distinct tree paths are distinct ("its uniqueness is
  // guaranteed by the program structure").
  std::set<LevelStamp> seen;
  std::function<void(const LevelStamp&, int)> walk = [&](const LevelStamp& s,
                                                         int depth) {
    EXPECT_TRUE(seen.insert(s).second) << s.to_string();
    if (depth == 0) return;
    for (StampDigit d = 0; d < 3; ++d) walk(s.child(d), depth - 1);
  };
  walk(LevelStamp::root(), 4);
  EXPECT_EQ(seen.size(), 1 + 3 + 9 + 27 + 81U);
}

TEST(LevelStamp, HashConsistentWithEquality) {
  LevelStamp::Hash hash;
  const LevelStamp a = LevelStamp::root().child(1).child(2);
  const LevelStamp b = LevelStamp::root().child(1).child(2);
  EXPECT_EQ(hash(a), hash(b));
  std::unordered_set<std::size_t> hashes;
  for (StampDigit d = 0; d < 100; ++d) {
    hashes.insert(hash(LevelStamp::root().child(d)));
  }
  EXPECT_GT(hashes.size(), 95U);  // no mass collisions
}

TEST(LevelStamp, OrderingIsTotalAndDeterministic) {
  const LevelStamp a = LevelStamp::root().child(1);
  const LevelStamp b = LevelStamp::root().child(2);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

// Property sweep: for random pairs, exactly one of {ancestor, descendant,
// equal, unrelated} holds, and ancestry implies shorter depth.
TEST(LevelStampProperty, RelationTrichotomy) {
  util::Xoshiro256 rng(99);
  auto random_stamp = [&](std::size_t max_depth) {
    LevelStamp s = LevelStamp::root();
    const auto depth = rng.next_below(max_depth + 1);
    for (std::uint64_t i = 0; i < depth; ++i) {
      s = s.child(static_cast<StampDigit>(rng.next_below(3)));
    }
    return s;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const LevelStamp a = random_stamp(6);
    const LevelStamp b = random_stamp(6);
    const int relations = static_cast<int>(a == b) +
                          static_cast<int>(a.is_ancestor_of(b)) +
                          static_cast<int>(b.is_ancestor_of(a));
    EXPECT_LE(relations, 1);
    if (a.is_ancestor_of(b)) {
      EXPECT_LT(a.depth(), b.depth());
      EXPECT_EQ(a.common_prefix(b), a.depth());
    }
    // subsumes == ancestor-or-equal
    EXPECT_EQ(a.subsumes(b), a == b || a.is_ancestor_of(b));
  }
}

// The recovery schemes rely on twins regenerating children with identical
// stamps: stamp construction is a pure function of the path digits.
TEST(LevelStampProperty, ReincarnationYieldsIdenticalStamps) {
  const LevelStamp original =
      LevelStamp::root().child(4).child(1).child(9);
  const LevelStamp twin_child =
      LevelStamp::root().child(4).child(1).child(9);
  EXPECT_EQ(original, twin_child);
  LevelStamp::Hash hash;
  EXPECT_EQ(hash(original), hash(twin_child));
}

// ---- differential test against a std::vector model -------------------------

/// A digit from one of four bands: tiny (so random stamps share prefixes),
/// either side of the 16-bit boundary, and the full 32-bit range.
StampDigit random_digit(util::Xoshiro256& rng) {
  switch (rng.next_below(6)) {
    case 0: return static_cast<StampDigit>(65534 + rng.next_below(4));
    case 1: return static_cast<StampDigit>(rng.next());
    case 2: return static_cast<StampDigit>(rng.next_below(65536));
    default: return static_cast<StampDigit>(rng.next_below(3));
  }
}

/// Depth 0-40. A quarter of the stamps draw every digit from 0-2, so
/// narrow stamps of every depth to 15 are common.
Model random_model(util::Xoshiro256& rng) {
  Model m(rng.next_below(41));
  const bool small = rng.next_below(4) == 0;
  for (StampDigit& d : m) {
    d = small ? static_cast<StampDigit>(rng.next_below(3)) : random_digit(rng);
  }
  return m;
}

/// A stamp related to `base`: a prefix of it, maybe extended, so equal,
/// ancestor and descendant pairs all occur.
Model related_model(util::Xoshiro256& rng, const Model& base) {
  Model m(base.begin(),
          base.begin() + static_cast<std::ptrdiff_t>(
                             rng.next_below(base.size() + 1)));
  const std::uint64_t extra = rng.next_below(3) == 0 ? rng.next_below(6) : 0;
  for (std::uint64_t i = 0; i < extra; ++i) m.push_back(random_digit(rng));
  return m;
}

std::string model_string(const Model& m) {
  if (m.empty()) return "<root>";
  std::ostringstream out;
  out << "<";
  for (std::size_t i = 0; i < m.size(); ++i) out << (i ? "." : "") << m[i];
  out << ">";
  return out.str();
}

std::size_t model_hash(const Model& m) {
  std::size_t h = 14695981039346656037ULL;
  for (const StampDigit d : m) {
    h ^= d;
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t model_prefix(const Model& a, const Model& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Builds the stamp digit by digit through child(), the way the runtime
/// does, so a form that depends on the path taken would not compare equal
/// to the span-constructed one.
LevelStamp grown(const Model& m) {
  LevelStamp s;
  for (const StampDigit d : m) s = s.child(d);
  return s;
}

void expect_matches(const LevelStamp& s, const Model& m) {
  ASSERT_EQ(s.depth(), m.size());
  EXPECT_EQ(s.is_root(), m.empty());
  EXPECT_EQ(digits_of(s), m);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(s.digit(i), m[i]);
  if (!m.empty()) {
    EXPECT_EQ(s.last(), m.back());
  }
  EXPECT_EQ(s.to_string(), model_string(m));
  EXPECT_EQ(LevelStamp::Hash{}(s), model_hash(m));
}

TEST(LevelStampProperty, MatchesAVectorModel) {
  util::Xoshiro256 rng(0x5A3B);
  for (int trial = 0; trial < 3000; ++trial) {
    const Model ma = random_model(rng);
    const Model mb = rng.next_below(2) == 0 ? related_model(rng, ma)
                                            : random_model(rng);
    const LevelStamp a(ma);
    const LevelStamp b(mb);
    SCOPED_TRACE(model_string(ma) + " vs " + model_string(mb));
    expect_matches(a, ma);
    expect_matches(b, mb);
    EXPECT_EQ(a, grown(ma));
    EXPECT_EQ(b, grown(mb));

    // Relations.
    const std::size_t prefix = model_prefix(ma, mb);
    const bool ancestor = ma.size() < mb.size() && prefix == ma.size();
    const bool descendant = mb.size() < ma.size() && prefix == mb.size();
    EXPECT_EQ(a == b, ma == mb);
    EXPECT_EQ(a != b, ma != mb);
    EXPECT_EQ(a < b, ma < mb);
    EXPECT_EQ(b < a, mb < ma);
    EXPECT_EQ(a.common_prefix(b), prefix);
    EXPECT_EQ(b.common_prefix(a), prefix);
    EXPECT_EQ(a.is_ancestor_of(b), ancestor);
    EXPECT_EQ(a.is_descendant_of(b), descendant);
    EXPECT_EQ(b.is_ancestor_of(a), descendant);
    EXPECT_EQ(a.subsumes(b), ancestor || ma == mb);
    EXPECT_EQ(b.subsumes(a), descendant || ma == mb);
    if (ma == mb) {
      EXPECT_EQ(LevelStamp::Hash{}(a), LevelStamp::Hash{}(b));
    }

    // Derivations.
    const StampDigit d = random_digit(rng);
    Model child = ma;
    child.push_back(d);
    expect_matches(a.child(d), child);
    EXPECT_EQ(a.child(d), LevelStamp(child));
    EXPECT_TRUE(a.is_ancestor_of(a.child(d)));
    if (!ma.empty()) {
      const Model parent(ma.begin(), ma.end() - 1);
      expect_matches(a.parent(), parent);
      EXPECT_EQ(a.parent(), LevelStamp(parent));
    }
    for (std::size_t k = 0; k <= ma.size(); ++k) {
      const Model prefix_model(ma.begin(),
                               ma.begin() + static_cast<std::ptrdiff_t>(k));
      const LevelStamp t = a.truncated(k);
      expect_matches(t, prefix_model);
      EXPECT_EQ(t, grown(prefix_model));
    }

    // Copies and moves, across forms.
    LevelStamp copy(a);
    EXPECT_EQ(copy, a);
    copy = b;
    expect_matches(copy, mb);
    const LevelStamp& alias = copy;
    copy = alias;  // self-assignment keeps the value
    expect_matches(copy, mb);
    LevelStamp moved(std::move(copy));
    expect_matches(moved, mb);
    copy = a;  // a moved-from stamp takes a new value
    expect_matches(copy, ma);
    moved = std::move(copy);
    expect_matches(moved, ma);
    expect_matches(a, ma);
    expect_matches(b, mb);
  }
}

TEST(LevelStamp, DepthLimitIsTheCodecs) {
  const Model deepest(LevelStamp::kMaxDepth, 7);
  const LevelStamp s(deepest);
  EXPECT_EQ(s.depth(), LevelStamp::kMaxDepth);
  EXPECT_EQ(s.last(), 7U);
  EXPECT_THROW((void)s.child(1), std::length_error);
  const Model deeper(LevelStamp::kMaxDepth + 1, 7);
  EXPECT_THROW((void)LevelStamp(deeper), std::length_error);
}

// §3.1's one digit per level makes stamp depth the program's call depth:
// a 65,535-task binary tree reaches depth 15, which must stay inline (no
// heap on any stamp copy) in a 32-byte stamp.
TEST(LevelStamp, ChildChainsStayInlineThroughDepthFifteen) {
  static_assert(LevelStamp::kInlineDepth == 15);
  static_assert(sizeof(LevelStamp) == 32);
  LevelStamp stamp = LevelStamp::root();
  std::vector<LevelStamp> copies;
  copies.reserve(4);
  const std::size_t news = news_during([&] {
    for (StampDigit d = 1; d <= LevelStamp::kInlineDepth; ++d) {
      stamp = stamp.child(d * 4000);  // up to 60,000: every digit narrow
    }
    copies.push_back(stamp);
    copies.emplace_back(copies.front());
    copies[1] = stamp;
    copies.push_back(std::move(copies[1]));
  });
  EXPECT_EQ(news, 0U) << "a narrow stamp allocated";
  ASSERT_EQ(stamp.depth(), 15U);
  EXPECT_EQ(copies[0], stamp);
  EXPECT_EQ(copies[2], stamp);
}

TEST(LevelStamp, WideStampsOwnOneCellEach) {
  LevelStamp deep = LevelStamp::root();
  for (StampDigit d = 1; d <= 16; ++d) deep = deep.child(d);
  const LevelStamp big = LevelStamp::root().child(3).child(65536);
  for (const LevelStamp& wide : {deep, big}) {
    EXPECT_EQ(news_during([&] { const LevelStamp copy(wide); }), 1U);
    EXPECT_EQ(news_during([&] {
                LevelStamp copy(wide);
                const LevelStamp moved(std::move(copy));
              }),
              1U);
  }
  // A prefix that fits inline is narrow again: copying it is free.
  const LevelStamp shallow = deep.truncated(15);
  const LevelStamp small = big.parent();
  EXPECT_EQ(news_during([&] {
              const LevelStamp a(shallow);
              const LevelStamp b(small);
            }),
            0U);
  EXPECT_TRUE(shallow.is_ancestor_of(deep));
  EXPECT_TRUE(small.is_ancestor_of(big));
}

/// The stamp as a `Msg` carrying it decodes from its wire bytes; the
/// decoded message must re-encode to the same bytes.
template <typename Msg>
LevelStamp through_codec(const LevelStamp& stamp, net::MsgKind kind) {
  Msg msg;
  msg.stamp = stamp;
  net::Envelope env;
  env.kind = kind;
  env.payload = msg;
  const std::vector<std::uint8_t> bytes = net::codec::encode_envelope(env);
  const net::Envelope back =
      net::codec::decode_envelope(bytes.data(), bytes.size());
  EXPECT_EQ(net::codec::encode_envelope(back), bytes);
  return std::get<net::Boxed<Msg>>(back.payload)->stamp;
}

TEST(LevelStamp, WideAndDeepStampsRoundTripThroughCodec) {
  util::Xoshiro256 rng(0xC0DEC);
  for (int trial = 0; trial < 400; ++trial) {
    const Model m = random_model(rng);
    const LevelStamp stamp(m);
    for (const LevelStamp& decoded :
         {through_codec<TaskPacket>(stamp, net::MsgKind::kTaskPacket),
          through_codec<AckMsg>(stamp, net::MsgKind::kSpawnAck),
          through_codec<ResultMsg>(stamp, net::MsgKind::kForwardResult),
          through_codec<CancelMsg>(stamp, net::MsgKind::kCancel)}) {
      EXPECT_EQ(decoded, stamp) << model_string(m);
      expect_matches(decoded, m);
    }
  }
  // Depth 16-40 with digits to 40,000 (wide by depth), then a digit past
  // 16 bits at every depth to 15 (wide by digit).
  LevelStamp deep = LevelStamp::root();
  for (StampDigit d = 1; d <= 40; ++d) {
    deep = deep.child(d * 1000);
    EXPECT_EQ(through_codec<AckMsg>(deep, net::MsgKind::kSpawnAck), deep);
  }
  LevelStamp big = LevelStamp::root();
  for (StampDigit d = 1; d <= 15; ++d) {
    big = big.child(d);
    const LevelStamp wide = big.child(UINT32_MAX - d);
    EXPECT_EQ(through_codec<AckMsg>(wide, net::MsgKind::kSpawnAck), wide);
  }
}

}  // namespace
}  // namespace splice::runtime

// Wire-codec round-trip property suite.
//
// The codec contract is bijectivity on the canonical form: for every
// envelope e, decode(encode(e)) == e, and for every canonical byte string
// b, encode(decode(b)) == b byte for byte. The suite drives all 15
// MsgKinds through seeded fuzz generators (random stamps, deep ancestor
// chains, extreme integers, empty and huge lists, nested bounce boxes)
// and asserts the re-encode is byte-identical. Truncation and mutation
// fuzz additionally pin the safety contract: malformed input raises
// CodecError, never an out-of-bounds read (this suite runs under
// ASan/UBSan in the sanitize preset).
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/message.h"

namespace splice {
namespace {

using net::Envelope;
using net::EnvelopeBox;
using net::MsgKind;
using net::codec::CodecError;
using runtime::LevelStamp;
using runtime::TaskRef;

using Rng = std::mt19937_64;

constexpr MsgKind kAllKinds[net::kMsgKindCount] = {
    MsgKind::kTaskPacket,      MsgKind::kSpawnAck,
    MsgKind::kForwardResult,   MsgKind::kFetchData,
    MsgKind::kDataReply,       MsgKind::kErrorDetection,
    MsgKind::kDeliveryFailure, MsgKind::kHeartbeat,
    MsgKind::kLoadUpdate,      MsgKind::kCheckpointXfer,
    MsgKind::kRejoinNotice,    MsgKind::kStateRequest,
    MsgKind::kStateChunk,      MsgKind::kCancel,
    MsgKind::kControl,
};

std::uint64_t pick(Rng& rng, std::uint64_t bound) { return rng() % bound; }

/// Integers with occasional extremes: varint/zigzag boundary values are
/// exactly where a codec bug would hide.
std::int64_t fuzz_i64(Rng& rng) {
  switch (pick(rng, 8)) {
    case 0: return 0;
    case 1: return -1;
    case 2: return INT64_MAX;
    case 3: return INT64_MIN;
    case 4: return static_cast<std::int64_t>(rng());
    default: return static_cast<std::int64_t>(pick(rng, 1000)) - 500;
  }
}

LevelStamp fuzz_stamp(Rng& rng) {
  // Sometimes draw depths 12..31, straddling kInlineDepth (15): the
  // heap-spill path of the digit SmallVec must encode identically to the
  // inline path.
  const std::size_t depth =
      pick(rng, 4) == 0 ? 12 + pick(rng, 20) : pick(rng, 8);
  LevelStamp::Digits digits;
  for (std::size_t i = 0; i < depth; ++i) {
    digits.push_back(pick(rng, 8) == 0
                         ? static_cast<runtime::StampDigit>(rng())
                         : static_cast<runtime::StampDigit>(pick(rng, 16)));
  }
  return LevelStamp(std::move(digits));
}

TaskRef fuzz_ref(Rng& rng) {
  TaskRef ref;
  ref.proc = static_cast<net::ProcId>(pick(rng, 256));
  ref.uid = pick(rng, 4) == 0 ? rng() : pick(rng, 100000);
  return ref;
}

util::SmallVec<TaskRef, 4> fuzz_ancestors(Rng& rng) {
  util::SmallVec<TaskRef, 4> chain;
  // Up to depth 9: well past the inline capacity, so max-lineage chains
  // (the §5.2 great-grandparent extension at its deepest) are covered.
  const std::size_t n = pick(rng, 10);
  for (std::size_t i = 0; i < n; ++i) chain.push_back(fuzz_ref(rng));
  return chain;
}

lang::Value fuzz_value(Rng& rng) {
  switch (pick(rng, 4)) {
    case 0: {
      std::vector<std::int64_t> items;
      const std::size_t n = pick(rng, 3) == 0 ? 2000 + pick(rng, 3000)
                                              : pick(rng, 8);
      items.reserve(n);
      std::int64_t v = fuzz_i64(rng) / 4;
      for (std::size_t i = 0; i < n; ++i) {
        v += static_cast<std::int64_t>(pick(rng, 7)) - 3;
        items.push_back(v);
      }
      return lang::Value::list(std::move(items));
    }
    default:
      return lang::Value::integer(fuzz_i64(rng));
  }
}

runtime::TaskPacket fuzz_packet(Rng& rng) {
  runtime::TaskPacket p;
  p.stamp = fuzz_stamp(rng);
  p.fn = static_cast<lang::FuncId>(pick(rng, 64));
  p.call_site = static_cast<lang::ExprId>(pick(rng, 4096));
  const std::size_t arity = pick(rng, 6);  // beyond the inline-4 Args too
  for (std::size_t i = 0; i < arity; ++i) p.args.push_back(fuzz_value(rng));
  p.ancestors = fuzz_ancestors(rng);
  p.replica = static_cast<std::uint32_t>(pick(rng, 4));
  p.lineage = static_cast<std::uint32_t>(pick(rng, 1000));
  p.zone = static_cast<std::int32_t>(pick(rng, 5)) - 1;
  return p;
}

Envelope fuzz_envelope(MsgKind kind, Rng& rng, int box_depth = 0);

net::Payload fuzz_payload(MsgKind kind, Rng& rng, int box_depth) {
  switch (kind) {
    case MsgKind::kFetchData:
    case MsgKind::kDataReply:
    case MsgKind::kCheckpointXfer:
    case MsgKind::kLoadUpdate:
      return std::monostate{};
    case MsgKind::kTaskPacket:
      return fuzz_packet(rng);
    case MsgKind::kSpawnAck: {
      runtime::AckMsg m;
      m.stamp = fuzz_stamp(rng);
      m.call_site = static_cast<lang::ExprId>(pick(rng, 4096));
      m.parent = fuzz_ref(rng);
      m.child = fuzz_ref(rng);
      m.replica = static_cast<std::uint32_t>(pick(rng, 4));
      m.lineage = static_cast<std::uint32_t>(pick(rng, 1000));
      return m;
    }
    case MsgKind::kForwardResult: {
      runtime::ResultMsg m;
      m.stamp = fuzz_stamp(rng);
      m.call_site = static_cast<lang::ExprId>(pick(rng, 4096));
      m.value = fuzz_value(rng);
      m.target = fuzz_ref(rng);
      m.relation = pick(rng, 2) == 0 ? runtime::ResultRelation::kToParent
                                     : runtime::ResultRelation::kToAncestor;
      m.ancestor_index = static_cast<std::uint32_t>(pick(rng, 4));
      m.ancestors = fuzz_ancestors(rng);
      m.replica = static_cast<std::uint32_t>(pick(rng, 4));
      m.lineage = static_cast<std::uint32_t>(pick(rng, 1000));
      m.relayed = pick(rng, 2) == 0;
      return m;
    }
    case MsgKind::kErrorDetection: {
      // 1..8 deaths: past the inline three, so the spilled list encodes
      // identically to the inline one.
      runtime::ErrorMsg m;
      const std::size_t dead = 1 + pick(rng, 8);
      for (std::size_t i = 0; i < dead; ++i) {
        m.dead.push_back(pick(rng, 8) == 0
                             ? static_cast<net::ProcId>(rng())
                             : static_cast<net::ProcId>(pick(rng, 256)));
      }
      return m;
    }
    case MsgKind::kHeartbeat: {
      runtime::HeartbeatMsg m;
      m.sequence = rng();
      return m;
    }
    case MsgKind::kRejoinNotice: {
      runtime::RejoinMsg m;
      m.who = static_cast<net::ProcId>(pick(rng, 256));
      return m;
    }
    case MsgKind::kControl: {
      runtime::ControlMsg m;
      m.kind = static_cast<runtime::ControlKind>(pick(rng, 4));
      return m;
    }
    case MsgKind::kCancel: {
      runtime::CancelMsg m;
      m.stamp = fuzz_stamp(rng);
      m.replica = static_cast<std::uint32_t>(pick(rng, 4));
      m.uid = pick(rng, 3) == 0 ? runtime::kNoTask : rng();
      m.parent = fuzz_ref(rng);
      m.issued_at = sim::SimTime(static_cast<std::int64_t>(pick(rng, 1u << 20)));
      return m;
    }
    case MsgKind::kStateRequest: {
      store::StateRequestMsg m;
      m.who = static_cast<net::ProcId>(pick(rng, 256));
      m.incarnation = pick(rng, 16);
      return m;
    }
    case MsgKind::kStateChunk: {
      store::StateChunkMsg m;
      m.incarnation = pick(rng, 16);
      m.seq = static_cast<std::uint32_t>(pick(rng, 64));
      m.last = pick(rng, 2) == 0;
      const std::size_t packets = pick(rng, 5);
      for (std::size_t i = 0; i < packets; ++i) {
        m.packets.push_back(fuzz_packet(rng));
      }
      const std::size_t dead = pick(rng, 5);
      for (std::size_t i = 0; i < dead; ++i) {
        m.known_dead.push_back(static_cast<net::ProcId>(pick(rng, 256)));
      }
      return m;
    }
    case MsgKind::kDeliveryFailure: {
      if (box_depth >= 2 || pick(rng, 8) == 0) return EnvelopeBox{};
      // Nested bounce: a failure notice whose lost envelope is itself a
      // failure notice (a bounce that bounced). Recursion must terminate
      // and stay canonical at every level.
      const MsgKind inner =
          box_depth < 1 && pick(rng, 4) == 0
              ? MsgKind::kDeliveryFailure
              : kAllKinds[pick(rng, net::kMsgKindCount)];
      return EnvelopeBox(fuzz_envelope(
          inner == MsgKind::kDeliveryFailure && box_depth >= 1
              ? MsgKind::kHeartbeat
              : inner,
          rng, box_depth + 1));
    }
  }
  return std::monostate{};
}

Envelope fuzz_envelope(MsgKind kind, Rng& rng, int box_depth) {
  Envelope env;
  env.kind = kind;
  env.from = static_cast<net::ProcId>(pick(rng, 256));
  env.to = static_cast<net::ProcId>(pick(rng, 256));
  env.size_units = static_cast<std::uint32_t>(1 + pick(rng, 1000));
  env.sent_at = sim::SimTime(static_cast<std::int64_t>(pick(rng, 1u << 30)));
  env.payload = fuzz_payload(kind, rng, box_depth);
  return env;
}

/// The bijectivity property for one envelope: decode inverts encode, and
/// re-encoding the decoded message reproduces the exact bytes.
void expect_roundtrip(const Envelope& env) {
  const std::vector<std::uint8_t> bytes = net::codec::encode_envelope(env);
  const Envelope back = net::codec::decode_envelope(bytes.data(), bytes.size());
  EXPECT_EQ(back.kind, env.kind);
  EXPECT_EQ(back.from, env.from);
  EXPECT_EQ(back.to, env.to);
  EXPECT_EQ(back.size_units, env.size_units);
  EXPECT_EQ(back.sent_at, env.sent_at);
  EXPECT_EQ(back.payload.index(), env.payload.index());
  const std::vector<std::uint8_t> again = net::codec::encode_envelope(back);
  ASSERT_EQ(again, bytes) << "re-encode not byte-identical, kind="
                          << net::to_string(env.kind);
}

TEST(CodecRoundtrip, AllKindsSeededFuzz) {
  for (const MsgKind kind : kAllKinds) {
    Rng rng(0x5EED0000 + static_cast<std::uint64_t>(kind));
    for (int trial = 0; trial < 200; ++trial) {
      expect_roundtrip(fuzz_envelope(kind, rng));
    }
  }
}

TEST(CodecRoundtrip, FieldFidelitySpotChecks) {
  // Beyond byte-identity: decoded fields must equal the originals (byte
  // equality alone would also hold for a codec that scrambled two fields
  // symmetrically).
  Rng rng(42);
  {
    Envelope env = fuzz_envelope(MsgKind::kTaskPacket, rng);
    auto& p = *std::get<net::Boxed<runtime::TaskPacket>>(env.payload);
    const auto bytes = net::codec::encode_envelope(env);
    const Envelope back =
        net::codec::decode_envelope(bytes.data(), bytes.size());
    const auto& q =
        *std::get<net::Boxed<runtime::TaskPacket>>(back.payload);
    EXPECT_EQ(q.stamp, p.stamp);
    EXPECT_EQ(q.fn, p.fn);
    EXPECT_EQ(q.call_site, p.call_site);
    ASSERT_EQ(q.args.size(), p.args.size());
    for (std::size_t i = 0; i < p.args.size(); ++i) {
      EXPECT_EQ(q.args[i], p.args[i]);
    }
    ASSERT_EQ(q.ancestors.size(), p.ancestors.size());
    for (std::size_t i = 0; i < p.ancestors.size(); ++i) {
      EXPECT_EQ(q.ancestors[i], p.ancestors[i]);
    }
    EXPECT_EQ(q.replica, p.replica);
    EXPECT_EQ(q.lineage, p.lineage);
    EXPECT_EQ(q.zone, p.zone);
  }
  {
    Envelope env = fuzz_envelope(MsgKind::kForwardResult, rng);
    auto& m = *std::get<net::Boxed<runtime::ResultMsg>>(env.payload);
    m.value = lang::Value::list({INT64_MIN, -1, 0, 1, INT64_MAX});
    const auto bytes = net::codec::encode_envelope(env);
    const Envelope back =
        net::codec::decode_envelope(bytes.data(), bytes.size());
    const auto& n =
        *std::get<net::Boxed<runtime::ResultMsg>>(back.payload);
    EXPECT_EQ(n.value, m.value);
    EXPECT_EQ(n.target, m.target);
    EXPECT_EQ(n.relation, m.relation);
    EXPECT_EQ(n.lineage, m.lineage);
    EXPECT_EQ(n.relayed, m.relayed);
  }
  for (int trial = 0; trial < 8; ++trial) {
    const Envelope env = fuzz_envelope(MsgKind::kErrorDetection, rng);
    const auto bytes = net::codec::encode_envelope(env);
    const Envelope back =
        net::codec::decode_envelope(bytes.data(), bytes.size());
    // Detection order survives the wire.
    EXPECT_EQ(std::get<runtime::ErrorMsg>(back.payload).dead,
              std::get<runtime::ErrorMsg>(env.payload).dead);
  }
  {
    Envelope env = fuzz_envelope(MsgKind::kCancel, rng);
    const auto& m = *std::get<net::Boxed<runtime::CancelMsg>>(env.payload);
    const auto bytes = net::codec::encode_envelope(env);
    const Envelope back =
        net::codec::decode_envelope(bytes.data(), bytes.size());
    const auto& n =
        *std::get<net::Boxed<runtime::CancelMsg>>(back.payload);
    EXPECT_EQ(n.stamp, m.stamp);
    EXPECT_EQ(n.uid, m.uid);
    EXPECT_EQ(n.parent, m.parent);
    EXPECT_EQ(n.issued_at, m.issued_at);
  }
}

TEST(CodecRoundtrip, NestedBounceBoxes) {
  Rng rng(7);
  // Hand-build a depth-3 bounce chain: notice(notice(notice(task packet))).
  Envelope inner = fuzz_envelope(MsgKind::kTaskPacket, rng);
  for (int level = 0; level < 3; ++level) {
    Envelope notice;
    notice.kind = MsgKind::kDeliveryFailure;
    notice.from = inner.to;
    notice.to = inner.from;
    notice.payload = EnvelopeBox(std::move(inner));
    inner = std::move(notice);
  }
  expect_roundtrip(inner);

  Envelope empty;
  empty.kind = MsgKind::kDeliveryFailure;
  empty.payload = EnvelopeBox{};
  expect_roundtrip(empty);
}

TEST(CodecRoundtrip, ZigzagIsAnInvolutionOnExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1}, INT64_MIN,
        INT64_MAX, std::int64_t{-2}, INT64_MIN + 1}) {
    EXPECT_EQ(net::codec::unzigzag(net::codec::zigzag(v)), v);
  }
  // Small magnitudes of either sign must stay in one varint byte.
  EXPECT_LT(net::codec::zigzag(-64), 128u);
  EXPECT_LT(net::codec::zigzag(63), 128u);
}

TEST(CodecRoundtrip, FramingRoundtrip) {
  Rng rng(11);
  std::vector<std::uint8_t> wire;
  std::vector<std::vector<std::uint8_t>> bodies;
  for (const MsgKind kind :
       {MsgKind::kTaskPacket, MsgKind::kHeartbeat, MsgKind::kStateChunk}) {
    const Envelope env = fuzz_envelope(kind, rng);
    net::codec::encode_frame(env, wire);
    bodies.push_back(net::codec::encode_envelope(env));
  }
  // Parse the concatenated stream back frame by frame.
  std::size_t off = 0;
  for (const auto& body : bodies) {
    std::uint32_t len = 0;
    ASSERT_TRUE(net::codec::read_frame_header(wire.data() + off,
                                              wire.size() - off, &len));
    ASSERT_EQ(len, body.size());
    off += net::codec::kFrameHeaderBytes;
    const Envelope env = net::codec::decode_envelope(wire.data() + off, len);
    EXPECT_EQ(net::codec::encode_envelope(env), body);
    off += len;
  }
  EXPECT_EQ(off, wire.size());
  std::uint32_t len = 0;
  EXPECT_FALSE(net::codec::read_frame_header(wire.data(), 3, &len));
}

TEST(CodecRoundtrip, TruncationAlwaysThrows) {
  // Canonical parses are prefix-free: no proper prefix of a valid encoding
  // can itself decode (the full parse would have stopped there and choked
  // on the trailing bytes). Every truncation must raise CodecError —
  // and, under ASan, never read past the shortened buffer.
  for (const MsgKind kind : kAllKinds) {
    Rng rng(0xCAFE + static_cast<std::uint64_t>(kind));
    const auto bytes =
        net::codec::encode_envelope(fuzz_envelope(kind, rng));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_THROW(net::codec::decode_envelope(bytes.data(), cut),
                   CodecError)
          << "kind=" << net::to_string(kind) << " cut=" << cut;
    }
  }
}

// An error-detection notice whose death count is zero, runs past the
// buffer, or exceeds what the list can hold is malformed: each is a
// CodecError, never a length_error from the list itself.
TEST(CodecRoundtrip, CorruptErrorNoticeCountsThrow) {
  const auto notice = [](std::uint64_t count, std::size_t names) {
    std::vector<std::uint8_t> bytes;
    net::codec::Writer w(bytes);
    w.u8(static_cast<std::uint8_t>(MsgKind::kErrorDetection));
    w.varint(0);  // from
    w.varint(1);  // to
    w.varint(1);  // size_units
    w.svarint(0);  // sent_at
    w.varint(count);
    for (std::size_t i = 0; i < names; ++i) w.varint(2);
    return bytes;
  };
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    return net::codec::decode_envelope(bytes.data(), bytes.size());
  };
  EXPECT_NO_THROW((void)decodes(notice(2, 2)));
  EXPECT_THROW((void)decodes(notice(0, 0)), CodecError);
  EXPECT_THROW((void)decodes(notice(3, 2)), CodecError);
  constexpr std::size_t kMax = decltype(runtime::ErrorMsg::dead)::kMaxSize;
  EXPECT_THROW((void)decodes(notice(kMax + 1, kMax + 1)), CodecError);
}

TEST(CodecRoundtrip, MutationFuzzNeverCrashes) {
  // Flip bytes at random positions: decode must either throw CodecError or
  // produce some envelope — never crash, hang, or trip a sanitizer. (The
  // decoded message need not re-encode identically: redundant varint forms
  // exist off the canonical surface.)
  Rng rng(0xF00D);
  for (const MsgKind kind : kAllKinds) {
    auto bytes = net::codec::encode_envelope(fuzz_envelope(kind, rng));
    for (int trial = 0; trial < 100; ++trial) {
      auto mutated = bytes;
      const std::size_t hits = 1 + pick(rng, 3);
      for (std::size_t h = 0; h < hits; ++h) {
        mutated[pick(rng, mutated.size())] ^=
            static_cast<std::uint8_t>(1 + pick(rng, 255));
      }
      try {
        const Envelope env =
            net::codec::decode_envelope(mutated.data(), mutated.size());
        (void)net::codec::encode_envelope(env);  // must also be re-encodable
      } catch (const CodecError&) {
        // malformed: the expected outcome
      }
    }
  }
}

}  // namespace
}  // namespace splice

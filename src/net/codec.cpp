#include "net/codec.h"

#include <cassert>
#include <span>
#include <utility>
#include <variant>

#include "util/small_vec.h"

namespace splice::net::codec {

namespace {

using runtime::AckMsg;
using runtime::CancelMsg;
using runtime::ErrorMsg;
using runtime::HeartbeatMsg;
using runtime::LevelStamp;
using runtime::RejoinMsg;
using runtime::ResultMsg;
using runtime::TaskPacket;
using runtime::TaskRef;

// Deltas over full-range 64-bit fields (uids, list integers) must wrap:
// computing INT64_MIN - INT64_MAX as signed is UB, but the two's-complement
// wrapped difference is still a bijection, so encoding stays canonical.
// Subtract/add in uint64 and cast — C++20 defines both conversions.
[[nodiscard]] std::int64_t wrap_delta(std::uint64_t value,
                                      std::uint64_t prev) noexcept {
  return static_cast<std::int64_t>(value - prev);
}
[[nodiscard]] std::uint64_t wrap_add(std::uint64_t prev,
                                     std::int64_t delta) noexcept {
  return prev + static_cast<std::uint64_t>(delta);
}

// ---- field encoders --------------------------------------------------------

void put_stamp(Writer& w, const LevelStamp& stamp) {
  w.varint(stamp.depth());
  // Call-site digits along one root path cluster tightly (they are ExprIds
  // of neighbouring Call nodes), so deltas are almost always one byte.
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < stamp.depth(); ++i) {
    const runtime::StampDigit digit = stamp.digit(i);
    if (i == 0) {
      w.varint(digit);
    } else {
      w.svarint(static_cast<std::int64_t>(digit) -
                static_cast<std::int64_t>(prev));
    }
    prev = digit;
  }
}

LevelStamp get_stamp(Reader& r) {
  const std::uint64_t depth = r.varint();
  if (depth > r.remaining() || depth > LevelStamp::kMaxDepth) {
    throw CodecError("codec: stamp depth overruns");
  }
  // Heap-free for the narrow stamps nearly every frame carries.
  util::SmallVec<runtime::StampDigit, LevelStamp::kInlineDepth> digits;
  digits.reserve(depth);
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    // Wrapped add: a malformed delta must land in the range check below,
    // not in signed-overflow UB.
    const std::int64_t digit =
        i == 0 ? static_cast<std::int64_t>(r.varint())
               : static_cast<std::int64_t>(wrap_add(
                     static_cast<std::uint64_t>(prev), r.svarint()));
    if (digit < 0 || digit > UINT32_MAX) {
      throw CodecError("codec: stamp digit out of range");
    }
    digits.push_back(static_cast<runtime::StampDigit>(digit));
    prev = digit;
  }
  return LevelStamp(std::span(digits.data(), digits.size()));
}

void put_ref(Writer& w, TaskRef ref) {
  w.varint(ref.proc);
  w.varint(ref.uid);
}

TaskRef get_ref(Reader& r) {
  TaskRef ref;
  const std::uint64_t proc = r.varint();
  if (proc > UINT32_MAX) throw CodecError("codec: proc out of range");
  ref.proc = static_cast<ProcId>(proc);
  ref.uid = r.varint();
  return ref;
}

// Ancestor chains are spawn-ordered: uids of parent, grandparent, ... were
// allocated close together, so the uid run delta-encodes against the
// previous entry. Procs stay plain varints (no ordering to exploit).
void put_ancestors(Writer& w, const util::SmallVec<TaskRef, 4>& chain) {
  w.varint(chain.size());
  std::uint64_t prev_uid = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    w.varint(chain[i].proc);
    if (i == 0) {
      w.varint(chain[i].uid);
    } else {
      w.svarint(wrap_delta(chain[i].uid, prev_uid));
    }
    prev_uid = chain[i].uid;
  }
}

util::SmallVec<TaskRef, 4> get_ancestors(Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining() ||
      count > util::SmallVec<TaskRef, 4>::kMaxSize) {
    throw CodecError("codec: chain overruns");
  }
  util::SmallVec<TaskRef, 4> chain;
  chain.reserve(count);
  std::uint64_t prev_uid = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    TaskRef ref;
    const std::uint64_t proc = r.varint();
    if (proc > UINT32_MAX) throw CodecError("codec: proc out of range");
    ref.proc = static_cast<ProcId>(proc);
    ref.uid = i == 0 ? r.varint() : wrap_add(prev_uid, r.svarint());
    prev_uid = ref.uid;
    chain.push_back(ref);
  }
  return chain;
}

void put_value(Writer& w, const lang::Value& value) {
  if (value.is_int()) {
    w.u8(0);
    w.svarint(value.as_int());
    return;
  }
  w.u8(1);
  const auto& items = value.as_list();
  w.varint(items.size());
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Workload lists (iota runs, sorted merges) are near-monotone; deltas
    // keep a 10k-element list at ~1 byte per element.
    if (i == 0) {
      w.svarint(items[0]);
    } else {
      w.svarint(wrap_delta(static_cast<std::uint64_t>(items[i]),
                           static_cast<std::uint64_t>(prev)));
    }
    prev = items[i];
  }
}

lang::Value get_value(Reader& r) {
  const std::uint8_t tag = r.u8();
  if (tag == 0) return lang::Value::integer(r.svarint());
  if (tag != 1) throw CodecError("codec: bad value tag");
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) throw CodecError("codec: list overruns");
  std::vector<std::int64_t> items;
  items.reserve(count);
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t v =
        i == 0 ? r.svarint()
               : static_cast<std::int64_t>(wrap_add(
                     static_cast<std::uint64_t>(prev), r.svarint()));
    items.push_back(v);
    prev = v;
  }
  return lang::Value::list(std::move(items));
}

void put_args(Writer& w, const TaskPacket::Args& args) {
  w.varint(args.size());
  for (const lang::Value& v : args) put_value(w, v);
}

TaskPacket::Args get_args(Reader& r) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining() || count > TaskPacket::Args::kMaxSize) {
    throw CodecError("codec: args overrun");
  }
  TaskPacket::Args args;
  args.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) args.push_back(get_value(r));
  return args;
}

void put_packet(Writer& w, const TaskPacket& p) {
  put_stamp(w, p.stamp);
  w.varint(p.fn);
  w.varint(p.call_site);
  put_args(w, p.args);
  put_ancestors(w, p.ancestors);
  w.varint(p.replica);
  w.varint(p.lineage);
  w.svarint(p.zone);
}

TaskPacket get_packet(Reader& r) {
  TaskPacket p;
  p.stamp = get_stamp(r);
  const std::uint64_t fn = r.varint();
  const std::uint64_t site = r.varint();
  if (fn > UINT32_MAX || site > UINT32_MAX) {
    throw CodecError("codec: expr id out of range");
  }
  p.fn = static_cast<lang::FuncId>(fn);
  p.call_site = static_cast<lang::ExprId>(site);
  p.args = get_args(r);
  p.ancestors = get_ancestors(r);
  const std::uint64_t replica = r.varint();
  const std::uint64_t lineage = r.varint();
  const std::int64_t zone = r.svarint();
  if (replica > UINT32_MAX || lineage > UINT32_MAX || zone < INT32_MIN ||
      zone > INT32_MAX) {
    throw CodecError("codec: packet field out of range");
  }
  p.replica = static_cast<std::uint32_t>(replica);
  p.lineage = static_cast<std::uint32_t>(lineage);
  p.zone = static_cast<std::int32_t>(zone);
  return p;
}

// ---- payload encoders (exhaustive over the closed variant) -----------------

struct PayloadEncoder {
  Writer& w;

  template <typename T>
  void operator()(const Boxed<T>& box) const {
    (*this)(*box);
  }
  void operator()(const std::monostate&) const {}
  void operator()(const TaskPacket& p) const { put_packet(w, p); }
  void operator()(const AckMsg& m) const {
    put_stamp(w, m.stamp);
    w.varint(m.call_site);
    put_ref(w, m.parent);
    put_ref(w, m.child);
    w.varint(m.replica);
    w.varint(m.lineage);
  }
  void operator()(const ResultMsg& m) const {
    put_stamp(w, m.stamp);
    w.varint(m.call_site);
    put_value(w, m.value);
    put_ref(w, m.target);
    w.u8(static_cast<std::uint8_t>(m.relation));
    w.varint(m.ancestor_index);
    put_ancestors(w, m.ancestors);
    w.varint(m.replica);
    w.varint(m.lineage);
    w.u8(m.relayed ? 1 : 0);
  }
  void operator()(const ErrorMsg& m) const {
    // Detection order, not sorted: no delta run to exploit.
    w.varint(m.dead.size());
    for (const ProcId p : m.dead) w.varint(p);
  }
  void operator()(const HeartbeatMsg& m) const { w.varint(m.sequence); }
  void operator()(const RejoinMsg& m) const { w.varint(m.who); }
  void operator()(const runtime::ControlMsg& m) const {
    w.u8(static_cast<std::uint8_t>(m.kind));
  }
  void operator()(const CancelMsg& m) const {
    put_stamp(w, m.stamp);
    w.varint(m.replica);
    w.varint(m.uid);
    put_ref(w, m.parent);
    w.svarint(m.issued_at.ticks());
  }
  void operator()(const store::StateRequestMsg& m) const {
    w.varint(m.who);
    w.varint(m.incarnation);
  }
  void operator()(const store::StateChunkMsg& m) const {
    w.varint(m.incarnation);
    w.varint(m.seq);
    w.u8(m.last ? 1 : 0);
    w.varint(m.packets.size());
    for (const TaskPacket& p : m.packets) put_packet(w, p);
    // The dead set ships sorted (the streamer sorts for determinism), so
    // deltas are small positives; svarint tolerates unsorted input too.
    w.varint(m.known_dead.size());
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < m.known_dead.size(); ++i) {
      if (i == 0) {
        w.varint(m.known_dead[0]);
      } else {
        w.svarint(static_cast<std::int64_t>(m.known_dead[i]) - prev);
      }
      prev = static_cast<std::int64_t>(m.known_dead[i]);
    }
  }
  void operator()(const EnvelopeBox& box) const {
    // Recursive: a delivery-failure notice carries the lost envelope.
    w.u8(box.has_value() ? 1 : 0);
    if (box.has_value()) {
      std::vector<std::uint8_t> inner;
      encode_envelope(*box, inner);
      w.varint(inner.size());
      for (std::uint8_t b : inner) w.u8(b);
    }
  }
};

ProcId get_proc(Reader& r) {
  const std::uint64_t p = r.varint();
  if (p > UINT32_MAX) throw CodecError("codec: proc out of range");
  return static_cast<ProcId>(p);
}

std::uint32_t get_u32(Reader& r, const char* what) {
  const std::uint64_t v = r.varint();
  if (v > UINT32_MAX) throw CodecError(std::string("codec: ") + what +
                                       " out of range");
  return static_cast<std::uint32_t>(v);
}

Payload decode_payload(MsgKind kind, Reader& r) {
  // Exhaustive over MsgKind (-Werror=switch): a new kind that reaches the
  // wire without a decode arm fails the build, mirroring PayloadEncoder's
  // compile-time closure over the variant.
  switch (kind) {
    case MsgKind::kFetchData:
    case MsgKind::kDataReply:
    case MsgKind::kCheckpointXfer:
    case MsgKind::kLoadUpdate:
      return std::monostate{};
    case MsgKind::kTaskPacket:
      return get_packet(r);
    case MsgKind::kSpawnAck: {
      AckMsg m;
      m.stamp = get_stamp(r);
      m.call_site = static_cast<lang::ExprId>(get_u32(r, "call_site"));
      m.parent = get_ref(r);
      m.child = get_ref(r);
      m.replica = get_u32(r, "replica");
      m.lineage = get_u32(r, "lineage");
      return m;
    }
    case MsgKind::kForwardResult: {
      ResultMsg m;
      m.stamp = get_stamp(r);
      m.call_site = static_cast<lang::ExprId>(get_u32(r, "call_site"));
      m.value = get_value(r);
      m.target = get_ref(r);
      const std::uint8_t relation = r.u8();
      if (relation > 1) throw CodecError("codec: bad result relation");
      m.relation = static_cast<runtime::ResultRelation>(relation);
      m.ancestor_index = get_u32(r, "ancestor_index");
      m.ancestors = get_ancestors(r);
      m.replica = get_u32(r, "replica");
      m.lineage = get_u32(r, "lineage");
      const std::uint8_t relayed = r.u8();
      if (relayed > 1) throw CodecError("codec: bad relayed flag");
      m.relayed = relayed != 0;
      return m;
    }
    case MsgKind::kErrorDetection: {
      // A notice names at least one death (senders drop an empty one), and
      // each name takes at least a byte.
      const std::uint64_t count = r.varint();
      if (count == 0) throw CodecError("codec: empty error notice");
      if (count > r.remaining() ||
          count > decltype(ErrorMsg::dead)::kMaxSize) {
        throw CodecError("codec: error notice overruns");
      }
      ErrorMsg m;
      m.dead.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) m.dead.push_back(get_proc(r));
      return m;
    }
    case MsgKind::kHeartbeat: {
      HeartbeatMsg m;
      m.sequence = r.varint();
      return m;
    }
    case MsgKind::kRejoinNotice: {
      RejoinMsg m;
      m.who = get_proc(r);
      return m;
    }
    case MsgKind::kControl: {
      const std::uint8_t raw = r.u8();
      if (raw > static_cast<std::uint8_t>(runtime::ControlKind::kShutdown)) {
        throw CodecError("codec: bad control kind");
      }
      runtime::ControlMsg m;
      m.kind = static_cast<runtime::ControlKind>(raw);
      return m;
    }
    case MsgKind::kCancel: {
      CancelMsg m;
      m.stamp = get_stamp(r);
      m.replica = get_u32(r, "replica");
      m.uid = r.varint();
      m.parent = get_ref(r);
      m.issued_at = sim::SimTime(r.svarint());
      return m;
    }
    case MsgKind::kStateRequest: {
      store::StateRequestMsg m;
      m.who = get_proc(r);
      m.incarnation = r.varint();
      return m;
    }
    case MsgKind::kStateChunk: {
      store::StateChunkMsg m;
      m.incarnation = r.varint();
      m.seq = get_u32(r, "seq");
      const std::uint8_t last = r.u8();
      if (last > 1) throw CodecError("codec: bad last flag");
      m.last = last != 0;
      const std::uint64_t packets = r.varint();
      if (packets > r.remaining()) throw CodecError("codec: chunk overruns");
      m.packets.reserve(packets);
      for (std::uint64_t i = 0; i < packets; ++i) {
        m.packets.push_back(get_packet(r));
      }
      const std::uint64_t dead = r.varint();
      if (dead > r.remaining()) throw CodecError("codec: dead set overruns");
      m.known_dead.reserve(dead);
      std::int64_t prev = 0;
      for (std::uint64_t i = 0; i < dead; ++i) {
        const std::int64_t p =
            i == 0 ? static_cast<std::int64_t>(r.varint())
                   : static_cast<std::int64_t>(wrap_add(
                         static_cast<std::uint64_t>(prev), r.svarint()));
        if (p < 0 || p > UINT32_MAX) {
          throw CodecError("codec: dead proc out of range");
        }
        m.known_dead.push_back(static_cast<ProcId>(p));
        prev = p;
      }
      return m;
    }
    case MsgKind::kDeliveryFailure: {
      const std::uint8_t present = r.u8();
      if (present > 1) throw CodecError("codec: bad box flag");
      if (present == 0) return EnvelopeBox{};
      const std::uint64_t len = r.varint();
      if (len > r.remaining()) throw CodecError("codec: boxed overruns");
      std::vector<std::uint8_t> inner;
      inner.reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) inner.push_back(r.u8());
      return EnvelopeBox(decode_envelope(inner.data(), inner.size()));
    }
  }
  throw CodecError("codec: unknown kind");
}

}  // namespace

void encode_envelope(const Envelope& env, std::vector<std::uint8_t>& out) {
  assert(payload_consistent(env.kind, env.payload));
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(env.kind));
  w.varint(env.from);
  w.varint(env.to);
  w.varint(env.size_units);
  w.svarint(env.sent_at.ticks());
  std::visit(PayloadEncoder{w}, env.payload);
}

Envelope decode_envelope(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  const std::uint8_t raw_kind = r.u8();
  if (raw_kind >= kMsgKindCount) throw CodecError("codec: bad kind byte");
  Envelope env;
  env.kind = static_cast<MsgKind>(raw_kind);
  env.from = get_proc(r);
  env.to = get_proc(r);
  env.size_units = get_u32(r, "size_units");
  env.sent_at = sim::SimTime(r.svarint());
  env.payload = decode_payload(env.kind, r);
  if (!r.done()) throw CodecError("codec: trailing bytes");
  return env;
}

std::size_t encode_frame(const Envelope& env, std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderBytes);
  encode_envelope(env, out);
  const std::size_t body = out.size() - header_at - kFrameHeaderBytes;
  out[header_at + 0] = static_cast<std::uint8_t>(body);
  out[header_at + 1] = static_cast<std::uint8_t>(body >> 8);
  out[header_at + 2] = static_cast<std::uint8_t>(body >> 16);
  out[header_at + 3] = static_cast<std::uint8_t>(body >> 24);
  return body;
}

bool read_frame_header(const std::uint8_t* data, std::size_t size,
                       std::uint32_t* body_length) noexcept {
  if (size < kFrameHeaderBytes) return false;
  *body_length = static_cast<std::uint32_t>(data[0]) |
                 static_cast<std::uint32_t>(data[1]) << 8 |
                 static_cast<std::uint32_t>(data[2]) << 16 |
                 static_cast<std::uint32_t>(data[3]) << 24;
  return true;
}

}  // namespace splice::net::codec

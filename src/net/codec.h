// Binary wire codec for protocol envelopes.
//
// Every one of the 15 MsgKinds has a canonical byte encoding, so the same
// Processor/Runtime/StateStreamer/kCancel stack can run over a real byte
// surface (shared-memory rings, TCP sockets) instead of the in-process
// mailbox. Canonical means bijective: decode(encode(e)) == e and
// encode(decode(b)) == b byte for byte — the round-trip property the fuzz
// suite enforces for every kind.
//
// Encoding scheme (docs/ARCHITECTURE.md has the per-kind byte tables):
//  * integers are LEB128 varints, least-significant group first;
//  * signed quantities zig-zag first (0,-1,1,-2,... -> 0,1,2,3,...), so
//    small magnitudes of either sign stay short;
//  * LevelStamp digit strings and ancestor-chain uid runs delta-encode
//    against the previous element — call-site digits and spawn-ordered
//    uids cluster, so deltas are mostly 1-byte;
//  * frames are length-prefixed: [u32 LE body length][body], the only
//    fixed-width field (stream resynchronisation needs a known width).
//
// Incarnation, lineage, replica and fence fields ride through exactly:
// recovery correctness depends on them, so the codec treats them as opaque
// integers, never as compressible metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.h"

namespace splice::net::codec {

/// Malformed or truncated input. Decoding never reads past the given
/// buffer and never trusts a length field without bounds-checking it.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Bytes of the longest varint (a 64-bit value in 7-bit groups).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Append-only byte sink with the varint primitives. It writes through a
/// raw cursor into `out`, grown ahead of the cursor in doubling steps, so a
/// varint costs one room check instead of a push_back per byte. The slack
/// past the cursor is trimmed off `out` when the Writer is destroyed: read
/// or change `out` only after that. (std::vector cannot append a varint
/// without zeroing or a library call per field; docs/ARCHITECTURE.md has
/// the measured cost of the alternatives.)
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out)
      : out_(out), at_(out.data() + out.size()), end_(at_) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { out_.resize(size()); }

  void u8(std::uint8_t v) {
    room(1);
    *at_++ = v;
  }
  void varint(std::uint64_t v) {
    room(kMaxVarintBytes);
    while (v >= 0x80) {
      *at_++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *at_++ = static_cast<std::uint8_t>(v);
  }
  void svarint(std::int64_t v) { varint(zigzag(v)); }
  void bytes(const std::vector<std::uint8_t>& b) {
    room(b.size());
    if (!b.empty()) std::memcpy(at_, b.data(), b.size());
    at_ += b.size();
  }

  /// Bytes in `out` up to the cursor, including what it held before.
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(at_ - out_.data());
  }

 private:
  void room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - at_) < n) grow(n);
  }
  void grow(std::size_t n);

  std::vector<std::uint8_t>& out_;
  std::uint8_t* at_;   // next byte to write
  std::uint8_t* end_;  // end of out_'s current (grown) size
};

/// Bounds-checked cursor over an encoded buffer. Throws CodecError on
/// truncation or malformed varints instead of reading out of bounds.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  [[nodiscard]] std::uint8_t u8() {
    if (p_ == end_) throw CodecError("codec: truncated (u8)");
    return *p_++;
  }
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (p_ == end_) throw CodecError("codec: truncated (varint)");
      const std::uint8_t byte = *p_++;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    throw CodecError("codec: varint exceeds 64 bits");
  }
  [[nodiscard]] std::int64_t svarint() { return unzigzag(varint()); }

  /// The next `n` bytes, skipped over: a nested encoding's sub-range.
  [[nodiscard]] const std::uint8_t* bytes(std::uint64_t n) {
    if (n > remaining()) throw CodecError("codec: truncated (bytes)");
    const std::uint8_t* const at = p_;
    p_ += n;
    return at;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Append the canonical encoding of `env` (header + payload, unframed).
/// The payload alternative must match env.kind (payload_consistent).
void encode_envelope(const Envelope& env, std::vector<std::uint8_t>& out);

[[nodiscard]] inline std::vector<std::uint8_t> encode_envelope(
    const Envelope& env) {
  std::vector<std::uint8_t> out;
  encode_envelope(env, out);
  return out;
}

/// Decode one envelope from exactly [data, data+size). Throws CodecError
/// on malformed input or trailing garbage.
[[nodiscard]] Envelope decode_envelope(const std::uint8_t* data,
                                       std::size_t size);

// ---- framing ---------------------------------------------------------------

/// Byte width of the frame length prefix (u32 little-endian).
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Append a framed encoding: [u32 LE body length][body]. Returns the body
/// length in bytes.
std::size_t encode_frame(const Envelope& env, std::vector<std::uint8_t>& out);

/// Parse a frame header at `data`. Returns true and sets *body_length when
/// at least kFrameHeaderBytes are available; false means "need more bytes".
[[nodiscard]] bool read_frame_header(const std::uint8_t* data,
                                     std::size_t size,
                                     std::uint32_t* body_length) noexcept;

}  // namespace splice::net::codec

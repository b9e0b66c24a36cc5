// Single-producer single-consumer byte ring in shared memory.
//
// The backing pages come from mmap(MAP_SHARED | MAP_ANONYMOUS): the region
// is inheritable across fork() and its layout is position-independent (the
// control block lives at offset 0, data follows), so the same ring works
// between OS processes; in-simulator use simply keeps producer and consumer
// in one process. Indices are monotonically increasing byte counts
// (head = consumed, tail = produced) with acquire/release ordering — the
// classic SPSC contract: the producer only writes tail, the consumer only
// writes head.
//
// Records are [u32 length][u64 sequence][length bytes], byte-wrapped at the
// capacity boundary. The sequence number is the delivery-ordering handle:
// the simulator-driven consumer takes records until it finds the one its
// delivery event names, parking any that arrived ahead of their event. The
// consumer reads a record where it lies (peek), then releases its bytes
// (consume); only a body that wraps the capacity boundary is copied out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SPLICE_SHM_RING_MMAP 1
#else
#include <cstdlib>
#define SPLICE_SHM_RING_MMAP 0
#endif

#include <atomic>
#include <new>

namespace splice::net {

class ShmRing {
 public:
  /// The oldest record, as peek() found it.
  struct View {
    std::uint64_t seq = 0;
    const std::uint8_t* bytes = nullptr;  // valid until consume()
    std::uint32_t len = 0;
  };

  explicit ShmRing(std::uint32_t capacity_bytes)
      : capacity_(capacity_bytes < kMinCapacity ? kMinCapacity
                                                : capacity_bytes) {
    const std::size_t total = sizeof(Control) + capacity_;
#if SPLICE_SHM_RING_MMAP
    void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
#else
    void* mem = std::calloc(1, total);
    if (mem == nullptr) throw std::bad_alloc();
#endif
    region_ = mem;
    region_bytes_ = total;
    ctrl_ = ::new (mem) Control();
    data_ = static_cast<std::uint8_t*>(mem) + sizeof(Control);
  }

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  ~ShmRing() {
#if SPLICE_SHM_RING_MMAP
    ::munmap(region_, region_bytes_);
#else
    std::free(region_);
#endif
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Bytes a record of body length `n` occupies in the ring.
  [[nodiscard]] static constexpr std::uint64_t record_bytes(
      std::uint32_t n) noexcept {
    return kRecordHeader + n;
  }

  /// Producer side. Returns false (ring unchanged) when the record does
  /// not fit in the free space.
  bool push(std::uint64_t seq, const std::uint8_t* bytes, std::uint32_t len) {
    const std::uint64_t head = ctrl_->head.load(std::memory_order_acquire);
    const std::uint64_t tail = ctrl_->tail.load(std::memory_order_relaxed);
    const std::uint64_t need = record_bytes(len);
    if (need > capacity_ - (tail - head)) return false;
    std::uint8_t header[kRecordHeader];
    std::memcpy(header, &len, sizeof(len));
    std::memcpy(header + sizeof(len), &seq, sizeof(seq));
    write_at(write_at(tail % capacity_, header, kRecordHeader), bytes, len);
    ctrl_->tail.store(tail + need, std::memory_order_release);
    return true;
  }

  /// Consumer side: the oldest record, left in the ring. Returns false when
  /// the ring is empty. `bytes` points into the ring, or into `wrapped`
  /// when the body wraps the capacity boundary.
  bool peek(View* out, std::vector<std::uint8_t>& wrapped) const {
    const std::uint64_t tail = ctrl_->tail.load(std::memory_order_acquire);
    const std::uint64_t head = ctrl_->head.load(std::memory_order_relaxed);
    if (head == tail) return false;
    std::uint8_t header[kRecordHeader];
    const std::uint64_t body = read_at(head % capacity_, header, kRecordHeader);
    std::memcpy(&out->len, header, sizeof(out->len));
    std::memcpy(&out->seq, header + sizeof(out->len), sizeof(out->seq));
    if (body + out->len <= capacity_) {
      out->bytes = data_ + body;
    } else {
      wrapped.resize(out->len);
      read_at(body, wrapped.data(), out->len);
      out->bytes = wrapped.data();
    }
    return true;
  }

  /// Consumer side: release the record peek() returned.
  void consume(const View& record) {
    const std::uint64_t head = ctrl_->head.load(std::memory_order_relaxed);
    ctrl_->head.store(head + record_bytes(record.len),
                      std::memory_order_release);
  }

  [[nodiscard]] bool empty() const noexcept {
    return ctrl_->head.load(std::memory_order_acquire) ==
           ctrl_->tail.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return ctrl_->tail.load(std::memory_order_acquire) -
           ctrl_->head.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint32_t kRecordHeader =
      sizeof(std::uint32_t) + sizeof(std::uint64_t);
  static constexpr std::uint32_t kMinCapacity = 256;

  struct Control {
    std::atomic<std::uint64_t> head{0};  // consumed bytes (consumer-owned)
    std::atomic<std::uint64_t> tail{0};  // produced bytes (producer-owned)
  };

  // Copy n bytes (at most the capacity) to or from ring offset `off`,
  // wrapping at the end; each returns the offset after them.
  std::uint64_t write_at(std::uint64_t off, const std::uint8_t* src,
                         std::uint64_t n) {
    const std::uint64_t first = std::min<std::uint64_t>(n, capacity_ - off);
    std::memcpy(data_ + off, src, first);
    if (first < n) std::memcpy(data_, src + first, n - first);
    return advance(off, n);
  }

  std::uint64_t read_at(std::uint64_t off, std::uint8_t* dst,
                        std::uint64_t n) const {
    const std::uint64_t first = std::min<std::uint64_t>(n, capacity_ - off);
    std::memcpy(dst, data_ + off, first);
    if (first < n) std::memcpy(dst + first, data_, n - first);
    return advance(off, n);
  }

  [[nodiscard]] std::uint64_t advance(std::uint64_t off,
                                      std::uint64_t n) const noexcept {
    return off + n >= capacity_ ? off + n - capacity_ : off + n;
  }

  std::uint32_t capacity_;
  void* region_ = nullptr;
  std::size_t region_bytes_ = 0;
  Control* ctrl_ = nullptr;
  std::uint8_t* data_ = nullptr;
};

}  // namespace splice::net

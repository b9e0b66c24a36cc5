#include "net/tcp_transport.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/codec.h"

#if defined(__unix__) || defined(__APPLE__)

// NB: <fcntl.h> is off limits here — glibc declares the splice(2) syscall
// at global scope, which collides with our `namespace splice`. Nonblocking
// mode goes through ioctl(FIONBIO) instead of fcntl(F_SETFL).
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace splice::net {

namespace {

constexpr std::uint32_t kHelloMagic = 0x53504C43;  // "SPLC"

// Group bring-up is skewed: rank 0 may dial rank 3 before rank 3 has bound
// its listener. For this window after construction a refused connection is
// retried instead of bounced, so startup order cannot fake a process death.
// After the grace, ECONNREFUSED means what it says (peer crashed) and fails
// fast so the §1 failure bounce fires promptly.
constexpr std::uint64_t kDialGraceNs = 5'000'000'000;  // 5 s
constexpr auto kDialRetryDelay = std::chrono::milliseconds(25);

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_nonblocking(int fd) {
  int one = 1;
  ::ioctl(fd, FIONBIO, &one);
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(sim::Simulator& sim, ProcId self, std::vector<TcpPeer> peers)
      : sim_(sim),
        self_(self),
        peers_(std::move(peers)),
        out_fds_(peers_.size(), -1) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("tcp: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(peers_[self_].port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0 ||
        ::listen(listen_fd_, 64) < 0) {
      ::close(listen_fd_);
      throw std::runtime_error("tcp: cannot listen on port " +
                               std::to_string(peers_[self_].port));
    }
    set_nonblocking(listen_fd_);
  }

  ~TcpTransport() override {
    for (int fd : out_fds_) {
      if (fd >= 0) ::close(fd);
    }
    for (const Inbound& in : inbound_) {
      if (in.fd >= 0) ::close(in.fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  [[nodiscard]] bool local(ProcId p) const noexcept override {
    return p == self_;
  }
  [[nodiscard]] bool distributed() const noexcept override { return true; }

  void submit(Envelope&& env, sim::SimTime delay) override {
    if (env.to == self_) {
      // Loopback rides the event queue like the in-process backend. Local
      // traffic is sparse in TCP mode (self-sends plus synthesized
      // bounces), so a heap box per message is fine here.
      auto boxed = std::make_unique<Envelope>(std::move(env));
      sim_.after(delay, [this, boxed = std::move(boxed)]() mutable {
        deliver_(std::move(*boxed));
      });
      return;
    }

    frame_.clear();
    encode_clock_.start();
    codec::encode_frame(env, frame_);
    encode_clock_.stop(wire_.encode_ns);
    ++wire_.frames;
    wire_.frame_bytes += frame_.size();
    wire_.payload_bytes += frame_.size() - codec::kFrameHeaderBytes;

    if (!write_all(env.to, frame_.data(), frame_.size())) {
      // Destination process is gone (or unreachable): hand the envelope
      // back so the Network can synthesize the §1 bounce.
      if (unreachable_) unreachable_(std::move(env));
      return;
    }
  }

  std::size_t poll() override {
    accept_pending();
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < inbound_.size(); ++i) {
      delivered += drain(inbound_[i]);
    }
    // Compact links that saw EOF.
    std::erase_if(inbound_, [](const Inbound& in) { return in.fd < 0; });
    return delivered;
  }

 private:
  struct Inbound {
    int fd = -1;
    ProcId rank = kNoProc;
    std::vector<std::uint8_t> buf;
  };

  bool ensure_connected(ProcId p) {
    if (out_fds_[p] >= 0) return true;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(peers_[p].port);
    if (::inet_pton(AF_INET, peers_[p].host.c_str(), &addr.sin_addr) != 1) {
      return false;
    }
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        break;
      }
      const int err = errno;
      ::close(fd);
      if (err != ECONNREFUSED || now_ns() - boot_ns_ > kDialGraceNs) {
        return false;
      }
      std::this_thread::sleep_for(kDialRetryDelay);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Hello: [magic][rank], so the acceptor knows who is talking.
    std::uint32_t hello[2] = {kHelloMagic, self_};
    if (!write_fd(fd, reinterpret_cast<const std::uint8_t*>(hello),
                  sizeof(hello))) {
      ::close(fd);
      return false;
    }
    out_fds_[p] = fd;
    return true;
  }

  bool write_all(ProcId p, const std::uint8_t* data, std::size_t n) {
    if (!ensure_connected(p)) return false;
    if (write_fd(out_fds_[p], data, n)) return true;
    // Stale link (peer died and restarted, or died outright): retry once
    // on a fresh connection before declaring the peer unreachable.
    ::close(out_fds_[p]);
    out_fds_[p] = -1;
    if (!ensure_connected(p)) return false;
    if (write_fd(out_fds_[p], data, n)) return true;
    ::close(out_fds_[p]);
    out_fds_[p] = -1;
    return false;
  }

  static bool write_fd(int fd, const std::uint8_t* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  void accept_pending() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      // Read the 8-byte hello synchronously (bounded by a 1s timeout so a
      // garbage connection cannot wedge the driver loop).
      timeval tv{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      std::uint32_t hello[2] = {0, 0};
      std::size_t got = 0;
      while (got < sizeof(hello)) {
        const ssize_t r = ::recv(fd, reinterpret_cast<std::uint8_t*>(hello) +
                                         got,
                                 sizeof(hello) - got, 0);
        if (r <= 0) break;
        got += static_cast<std::size_t>(r);
      }
      if (got != sizeof(hello) || hello[0] != kHelloMagic ||
          hello[1] >= peers_.size()) {
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      Inbound in;
      in.fd = fd;
      in.rank = hello[1];
      inbound_.push_back(std::move(in));
    }
  }

  std::size_t drain(Inbound& in) {
    std::size_t delivered = 0;
    std::uint8_t chunk[16384];
    for (;;) {
      const ssize_t r = ::recv(in.fd, chunk, sizeof(chunk), 0);
      if (r > 0) {
        in.buf.insert(in.buf.end(), chunk, chunk + r);
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r < 0 && errno == EINTR) continue;
      // EOF or hard error: peer is gone (fail-silent); keep buffered
      // complete frames, drop the link.
      ::close(in.fd);
      in.fd = -1;
      break;
    }
    std::size_t off = 0;
    std::uint32_t body = 0;
    while (codec::read_frame_header(in.buf.data() + off, in.buf.size() - off,
                                    &body) &&
           in.buf.size() - off - codec::kFrameHeaderBytes >= body) {
      off += codec::kFrameHeaderBytes;
      decode_clock_.start();
      Envelope env = codec::decode_envelope(in.buf.data() + off, body);
      decode_clock_.stop(wire_.decode_ns);
      off += body;
      deliver_(std::move(env));
      ++delivered;
    }
    if (off > 0) {
      in.buf.erase(in.buf.begin(),
                   in.buf.begin() + static_cast<std::ptrdiff_t>(off));
    }
    return delivered;
  }

  sim::Simulator& sim_;
  ProcId self_;
  std::vector<TcpPeer> peers_;
  int listen_fd_ = -1;
  std::vector<int> out_fds_;
  std::vector<Inbound> inbound_;
  std::vector<std::uint8_t> frame_;
  FrameClock encode_clock_;
  FrameClock decode_clock_;
  std::uint64_t boot_ns_ = now_ns();
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(sim::Simulator& sim, ProcId self,
                                              std::vector<TcpPeer> peers) {
  return std::make_unique<TcpTransport>(sim, self, std::move(peers));
}

}  // namespace splice::net

#else  // non-POSIX: the TCP backend is unavailable.

namespace splice::net {

std::unique_ptr<Transport> make_tcp_transport(sim::Simulator&, ProcId,
                                              std::vector<TcpPeer>) {
  throw std::runtime_error("tcp transport requires a POSIX platform");
}

}  // namespace splice::net

#endif

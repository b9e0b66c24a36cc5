// Survivor-assisted state transfer for warm rejoin.
//
// Protocol (all online — chunks interleave with normal traffic):
//
//   rejoiner X                          surviving peer P
//   ----------                          ----------------
//   revive(): replay durable log,
//   broadcast kRejoinNotice,
//   kStateRequest{X, incarnation} --->  StateStreamer::start(X, inc)
//                                       snapshots table entry(X): the
//                                       checkpoints P holds *against* X,
//                                       i.e. the tasks X should re-host
//   <--- kStateChunk{inc, seq=0,
//        packets[<=chunk_records],
//        known_dead}                    first chunk carries P's liveness
//   <--- kStateChunk{inc, seq=1, ...}   view; later chunks pace out every
//   ...                                 chunk_interval ticks
//   <--- kStateChunk{inc, last=true}
//
// Re-crash safety: every chunk echoes the rejoiner incarnation from the
// request; a rejoiner that crashed and revived again drops stale chunks
// and re-requests, and a streamer whose target died stops pumping (the
// checkpoints stay in the peer's table, so nothing is lost). A new request
// from the same rejoiner supersedes the old stream (epoch guard).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/topology.h"
#include "runtime/task_packet.h"
#include "sim/time.h"

namespace splice::store {

/// kStateRequest payload: `who` revived warm and asks every live peer for
/// the state held against it.
struct StateRequestMsg {
  net::ProcId who = net::kNoProc;
  std::uint64_t incarnation = 0;
};

/// kStateChunk payload: a bounded slice of the checkpoints the sender holds
/// against the rejoiner, plus (first chunk) the sender's liveness view.
struct StateChunkMsg {
  std::uint64_t incarnation = 0;  // rejoiner incarnation echoed from request
  std::uint32_t seq = 0;
  bool last = false;
  std::vector<runtime::TaskPacket> packets;
  std::vector<net::ProcId> known_dead;  // sender's dead set (seq 0 only)

  [[nodiscard]] std::uint32_t size_units() const noexcept {
    std::uint32_t units = 1 + static_cast<std::uint32_t>(known_dead.size());
    for (const runtime::TaskPacket& packet : packets) {
      units += packet.size_units();
    }
    return units;
  }
};

/// Peer-side chunk pump. Owned by each processor; callbacks keep the store
/// layer below runtime/ in the include graph.
class StateStreamer {
 public:
  struct Env {
    /// Send one chunk to the rejoiner (the owner wraps it in an Envelope).
    std::function<void(net::ProcId to, StateChunkMsg chunk)> send;
    /// Schedule a callback after a simulated delay.
    std::function<void(sim::SimTime delay, std::function<void()> fn)> after;
    /// Network-level liveness of the rejoiner (stop pumping into a corpse).
    std::function<bool(net::ProcId)> alive;
    /// Snapshot of the task packets checkpointed against the rejoiner.
    std::function<std::vector<runtime::TaskPacket>(net::ProcId)>
        packets_against;
    /// The owner's current dead set (liveness catch-up payload).
    std::function<std::vector<net::ProcId>()> known_dead;
    /// Is this packet's checkpoint still held against the rejoiner? The
    /// pending snapshot is taken when the stream starts, but releases (a
    /// result arrived, or a cancel reclaimed the lineage) can land between
    /// chunks; a released checkpoint must not resurrect as a re-hosted
    /// task. Optional: when unset, every snapshotted packet ships.
    std::function<bool(net::ProcId rejoiner, const runtime::LevelStamp&)>
        still_checkpointed;
    std::uint32_t chunk_records = 4;
    sim::SimTime chunk_interval{50};
  };

  explicit StateStreamer(Env env) : env_(std::move(env)) {}

  /// Begin (or restart, after a re-crash) streaming to `rejoiner`. Sends
  /// the first chunk immediately; the rest pace out via env.after.
  /// Incarnations are monotonic per rejoiner: a delayed request from an
  /// older life is ignored so it cannot supersede the live stream (its
  /// chunks would all be dropped as stale and catch-up would never finish).
  void start(net::ProcId rejoiner, std::uint64_t incarnation);

  /// Abandon every active stream (the owner itself crashed).
  void cancel_all();

 private:
  struct Stream {
    std::uint64_t incarnation = 0;
    std::uint64_t epoch = 0;  // bumped per start(); stale pumps abandon
    std::uint32_t seq = 0;
    std::vector<runtime::TaskPacket> pending;
  };

  void pump(net::ProcId rejoiner, std::uint64_t epoch);

  Env env_;
  std::unordered_map<net::ProcId, Stream> streams_;
  /// Highest incarnation ever requested per rejoiner (outlives the stream).
  std::unordered_map<net::ProcId, std::uint64_t> last_incarnation_;
  std::uint64_t epoch_counter_ = 0;
};

}  // namespace splice::store

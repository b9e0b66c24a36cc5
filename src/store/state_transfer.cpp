#include "store/state_transfer.h"

#include <algorithm>
#include <utility>

namespace splice::store {

void StateStreamer::start(net::ProcId rejoiner, std::uint64_t incarnation) {
  auto [latest, inserted] = last_incarnation_.try_emplace(rejoiner, incarnation);
  if (!inserted) {
    if (incarnation < latest->second) return;  // delayed request, older life
    latest->second = incarnation;
  }
  Stream& stream = streams_[rejoiner];
  stream.incarnation = incarnation;
  stream.epoch = ++epoch_counter_;  // supersede any in-flight pump chain
  stream.seq = 0;
  stream.pending = env_.packets_against(rejoiner);
  pump(rejoiner, stream.epoch);
}

void StateStreamer::cancel_all() {
  ++epoch_counter_;  // invalidate every scheduled pump
  streams_.clear();
}

void StateStreamer::pump(net::ProcId rejoiner, std::uint64_t epoch) {
  auto it = streams_.find(rejoiner);
  if (it == streams_.end() || it->second.epoch != epoch) return;  // stale
  Stream& stream = it->second;
  if (!env_.alive(rejoiner)) {
    // The rejoiner re-crashed mid-transfer. Keep nothing scheduled; its
    // next revive sends a fresh request (new incarnation) and restarts
    // from the table, which still holds every record.
    streams_.erase(it);
    return;
  }

  if (env_.still_checkpointed) {
    // Drop packets whose record was released since the snapshot (the child
    // returned, or its lineage was cancelled): re-hosting them would
    // resurrect work the protocol already retired.
    std::erase_if(stream.pending, [&](const runtime::TaskPacket& packet) {
      return !env_.still_checkpointed(rejoiner, packet.stamp);
    });
  }

  StateChunkMsg chunk;
  chunk.incarnation = stream.incarnation;
  chunk.seq = stream.seq++;
  if (chunk.seq == 0) chunk.known_dead = env_.known_dead();
  const std::size_t take =
      std::min<std::size_t>(env_.chunk_records, stream.pending.size());
  chunk.packets.assign(stream.pending.begin(),
                       stream.pending.begin() +
                           static_cast<std::ptrdiff_t>(take));
  stream.pending.erase(stream.pending.begin(),
                       stream.pending.begin() +
                           static_cast<std::ptrdiff_t>(take));
  chunk.last = stream.pending.empty();
  const bool done = chunk.last;
  env_.send(rejoiner, std::move(chunk));

  if (done) {
    streams_.erase(rejoiner);
    return;
  }
  env_.after(env_.chunk_interval,
             [this, rejoiner, epoch] { pump(rejoiner, epoch); });
}

}  // namespace splice::store

#include "store/durable_store.h"

#include <cassert>

#include "util/rng.h"

namespace splice::store {

namespace {
// Stream tag for lossy-survival draws: independent of the cascade/Poisson
// streams in net/fault_injector.cpp and of scheduler tie-break streams.
constexpr std::uint64_t kLossyStream = 0x10551E5700000000ULL;
}  // namespace

DurableStore::DurableStore(net::ProcId self, Persistency model,
                           double survive_p, std::uint64_t seed)
    : self_(self), model_(model), survive_p_(survive_p), seed_(seed) {}

void DurableStore::append(LogEntry entry) {
  if (!enabled()) return;  // volatile store: logging would never be read
  entry.incarnation = incarnation_;
  log_.push_back(std::move(entry));
  ++entries_logged_;
}

void DurableStore::on_record(net::ProcId dest,
                             const checkpoint::CheckpointRecord& record,
                             const runtime::TaskPacket& packet) {
  LogEntry entry;
  entry.op = Op::kRecord;
  entry.dest = dest;
  entry.record.owner = record.owner;
  entry.record.stamp = record.stamp;
  entry.record.site = record.site;
  entry.record.units = record.units;
  entry.record.packet = packet;
  append(std::move(entry));
}

void DurableStore::on_release(net::ProcId dest,
                              const runtime::LevelStamp& stamp) {
  LogEntry entry;
  entry.op = Op::kRelease;
  entry.dest = dest;
  entry.record.stamp = stamp;
  append(std::move(entry));
}

void DurableStore::on_take(net::ProcId dead) {
  LogEntry entry;
  entry.op = Op::kTake;
  entry.dest = dead;
  append(std::move(entry));
}

void DurableStore::on_crash(std::uint64_t dying) {
  switch (model_) {
    case Persistency::kNone:
      log_.clear();
      return;
    case Persistency::kLocal:
      return;  // the medium survives intact
    case Persistency::kLossy: {
      util::Xoshiro256 rng(util::hash_combine(
          util::hash_combine(seed_, kLossyStream + self_), dying));
      std::erase_if(log_, [&](const LogEntry&) {
        return !rng.next_bool(survive_p_);
      });
      return;
    }
  }
}

std::size_t DurableStore::replay_into(checkpoint::CheckpointTable& table) {
  for (const LogEntry& entry : log_) {
    switch (entry.op) {
      case Op::kRecord: {
        // A checkpoint against this node itself guards a child that died
        // in the same crash: there is nothing to await or reissue from it,
        // so it does not survive the replay.
        if (entry.dest == self_) break;
        assert(entry.record.restored());
        table.record(entry.dest, entry.record, *entry.record.packet);
        break;
      }
      case Op::kRelease:
        // The entry key may have drifted (a lossy log can lose the record's
        // own append); fall back to a stamp-wide release, which is a no-op
        // when the record is already gone.
        if (!table.release(entry.dest, entry.record.stamp)) {
          table.release_anywhere(entry.record.stamp);
        }
        break;
      case Op::kTake:
        (void)table.take(entry.dest);
        break;
    }
  }
  const std::size_t live = table.total_records();
  records_replayed_ += live;
  return live;
}

void DurableStore::compact_from(const checkpoint::CheckpointTable& table) {
  log_.clear();
  if (!enabled()) return;
  for (net::ProcId dest = 0; dest < table.processors(); ++dest) {
    for (const checkpoint::CheckpointRecord& record : table.entry(dest)) {
      LogEntry entry;
      entry.op = Op::kRecord;
      entry.incarnation = incarnation_;
      entry.dest = dest;
      entry.record = record;
      log_.push_back(std::move(entry));
    }
  }
}

void DurableStore::clear() noexcept { log_.clear(); }

}  // namespace splice::store

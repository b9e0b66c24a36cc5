#include "checkpoint/checkpoint_table.h"

#include <algorithm>

#include "util/small_vec.h"

namespace splice::checkpoint {

CheckpointTable::CheckpointTable(net::ProcId self, net::ProcId processors)
    : self_(self),
      processors_(processors),
      entries_(processors),
      by_stamp_(StampIndex::allocator_type(arena_)) {}

void CheckpointTable::index_add(net::ProcId dest,
                                const runtime::LevelStamp& stamp) {
  by_stamp_.emplace(runtime::LevelStamp::Hash{}(stamp), dest);
}

void CheckpointTable::index_remove(net::ProcId dest,
                                   const runtime::LevelStamp& stamp) {
  auto [it, end] = by_stamp_.equal_range(runtime::LevelStamp::Hash{}(stamp));
  for (; it != end; ++it) {
    if (it->second == dest) {
      by_stamp_.erase(it);
      return;
    }
  }
}

void CheckpointTable::on_insert(const CheckpointRecord& record) noexcept {
  ++total_records_;
  total_units_ += record.packet.size_units();
  peak_records_ = std::max(peak_records_, total_records_);
  peak_units_ = std::max(peak_units_, total_units_);
}

void CheckpointTable::on_erase(const CheckpointRecord& record) noexcept {
  --total_records_;
  total_units_ -= record.packet.size_units();
}

RecordOutcome CheckpointTable::record(net::ProcId dest,
                                      CheckpointRecord record) {
  auto& entry = entries_.at(dest);
  // §3.2: descendant of an existing checkpoint -> nothing to store.
  for (const CheckpointRecord& existing : entry) {
    if (existing.packet.stamp.subsumes(record.packet.stamp)) {
      ++subsumed_;
      return RecordOutcome::kSubsumed;
    }
  }
  // Maintain the antichain: drop records the new stamp subsumes. (With
  // ancestor-before-descendant spawn order this rarely fires, but recovery
  // respawns can reorder arrivals.)
  std::erase_if(entry, [&](const CheckpointRecord& existing) {
    if (record.packet.stamp.is_ancestor_of(existing.packet.stamp)) {
      on_erase(existing);
      index_remove(dest, existing.packet.stamp);
      ++evicted_;
      return true;
    }
    return false;
  });
  entry.push_back(std::move(record));
  on_insert(entry.back());
  index_add(dest, entry.back().packet.stamp);
  ++records_made_;
  if (listener_ != nullptr) listener_->on_record(dest, entry.back());
  return RecordOutcome::kRecorded;
}

std::vector<CheckpointRecord> CheckpointTable::take(net::ProcId dead) {
  auto& entry = entries_.at(dead);
  std::vector<CheckpointRecord> out = std::move(entry);
  entry.clear();
  for (const CheckpointRecord& record : out) {
    on_erase(record);
    index_remove(dead, record.packet.stamp);
    ++taken_;
  }
  if (listener_ != nullptr && !out.empty()) listener_->on_take(dead);
  return out;
}

bool CheckpointTable::release(net::ProcId dest,
                              const runtime::LevelStamp& stamp) {
  auto& entry = entries_.at(dest);
  const auto before = entry.size();
  std::erase_if(entry, [&](const CheckpointRecord& existing) {
    if (existing.packet.stamp == stamp) {
      on_erase(existing);
      return true;
    }
    return false;
  });
  const bool found = entry.size() != before;
  if (found) {
    index_remove(dest, stamp);
    ++released_;
    if (listener_ != nullptr) listener_->on_release(dest, stamp);
  }
  return found;
}

bool CheckpointTable::release_anywhere(const runtime::LevelStamp& stamp) {
  // Collect candidates first: release() edits the index being ranged.
  util::SmallVec<net::ProcId, 8> candidates;
  auto [it, end] = by_stamp_.equal_range(runtime::LevelStamp::Hash{}(stamp));
  for (; it != end; ++it) candidates.push_back(it->second);
  for (const net::ProcId dest : candidates) {
    // Hash hit: confirm against the actual records (collisions between
    // distinct stamps are possible, release() re-checks equality).
    if (release(dest, stamp)) return true;
  }
  return false;
}

bool CheckpointTable::contains(net::ProcId dest,
                               const runtime::LevelStamp& stamp) const {
  auto [it, end] = by_stamp_.equal_range(runtime::LevelStamp::Hash{}(stamp));
  for (; it != end; ++it) {
    if (it->second != dest) continue;
    // Hash hit on this destination: confirm against the actual records
    // (distinct stamps may collide).
    for (const CheckpointRecord& record : entries_.at(dest)) {
      if (record.packet.stamp == stamp) return true;
    }
    return false;
  }
  return false;
}

void CheckpointTable::clear() {
  cleared_ += total_records_;
  for (auto& entry : entries_) entry.clear();
  by_stamp_.clear();
  total_records_ = 0;
  total_units_ = 0;
}

std::vector<std::pair<net::ProcId, CheckpointRecord*>>
CheckpointTable::restored_children_of(const runtime::LevelStamp& parent) {
  std::vector<std::pair<net::ProcId, CheckpointRecord*>> out;
  for (net::ProcId dest = 0; dest < processors_; ++dest) {
    for (CheckpointRecord& record : entries_[dest]) {
      if (record.restored && record.packet.stamp.depth() == parent.depth() + 1 &&
          parent.is_ancestor_of(record.packet.stamp)) {
        out.emplace_back(dest, &record);
      }
    }
  }
  return out;
}

}  // namespace splice::checkpoint

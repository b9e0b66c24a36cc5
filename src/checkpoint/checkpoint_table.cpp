#include "checkpoint/checkpoint_table.h"

#include <algorithm>

namespace splice::checkpoint {

CheckpointTable::CheckpointTable(net::ProcId self, net::ProcId processors)
    : self_(self), processors_(processors), entries_(processors) {}

void CheckpointTable::on_insert(const CheckpointRecord& record) noexcept {
  ++total_records_;
  total_units_ += record.units;
  peak_records_ = std::max(peak_records_, total_records_);
  peak_units_ = std::max(peak_units_, total_units_);
}

void CheckpointTable::on_erase(const CheckpointRecord& record) noexcept {
  --total_records_;
  total_units_ -= record.units;
}

RecordOutcome CheckpointTable::record(net::ProcId dest,
                                      CheckpointRecord record,
                                      const runtime::TaskPacket& packet) {
  auto& entry = entries_.at(dest);
  // §3.2: descendant of an existing checkpoint -> nothing to store.
  for (const CheckpointRecord& existing : entry) {
    if (existing.stamp.subsumes(packet.stamp)) {
      ++subsumed_;
      return RecordOutcome::kSubsumed;
    }
  }
  // Maintain the antichain: drop records the new stamp subsumes. (With
  // ancestor-before-descendant spawn order this rarely fires, but recovery
  // respawns can reorder arrivals.)
  std::erase_if(entry, [&](const CheckpointRecord& existing) {
    if (packet.stamp.is_ancestor_of(existing.stamp)) {
      on_erase(existing);
      ++evicted_;
      return true;
    }
    return false;
  });
  record.stamp = packet.stamp;
  record.units = packet.size_units();
  entry.push_back(std::move(record));
  on_insert(entry.back());
  ++records_made_;
  if (listener_ != nullptr) listener_->on_record(dest, entry.back(), packet);
  return RecordOutcome::kRecorded;
}

std::vector<CheckpointRecord> CheckpointTable::take(net::ProcId dead) {
  auto& entry = entries_.at(dead);
  std::vector<CheckpointRecord> out = std::move(entry);
  entry.clear();
  for (const CheckpointRecord& record : out) {
    on_erase(record);
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
    if (existing.stamp == stamp) {
      on_erase(existing);
      return true;
    }
    return false;
  });
  const bool found = entry.size() != before;
  if (found) {
    ++released_;
    if (listener_ != nullptr) listener_->on_release(dest, stamp);
  }
  return found;
}

bool CheckpointTable::release_anywhere(const runtime::LevelStamp& stamp) {
  for (net::ProcId dest = 0; dest < processors_; ++dest) {
    if (contains(dest, stamp)) return release(dest, stamp);
  }
  return false;
}

bool CheckpointTable::contains(net::ProcId dest,
                               const runtime::LevelStamp& stamp) const {
  return std::ranges::any_of(entries_.at(dest),
                             [&](const CheckpointRecord& record) {
                               return record.stamp == stamp;
                             });
}

void CheckpointTable::clear() {
  cleared_ += total_records_;
  for (auto& entry : entries_) entry.clear();
  total_records_ = 0;
  total_units_ = 0;
}

std::vector<std::pair<net::ProcId, CheckpointRecord*>>
CheckpointTable::restored_children_of(const runtime::LevelStamp& parent) {
  std::vector<std::pair<net::ProcId, CheckpointRecord*>> out;
  for (net::ProcId dest = 0; dest < processors_; ++dest) {
    for (CheckpointRecord& record : entries_[dest]) {
      if (record.restored() && record.stamp.depth() == parent.depth() + 1 &&
          parent.is_ancestor_of(record.stamp)) {
        out.emplace_back(dest, &record);
      }
    }
  }
  return out;
}

}  // namespace splice::checkpoint

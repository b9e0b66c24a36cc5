#include "checkpoint/checkpoint_table.h"

#include <algorithm>

namespace splice::checkpoint {

CheckpointTable::CheckpointTable(net::ProcId self, net::ProcId processors,
                                 RecordPool& pool)
    : self_(self), processors_(processors), pool_(&pool), entries_(processors) {}

CheckpointTable::~CheckpointTable() { drop_all(); }

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

RecordNode* CheckpointTable::erase(List& list, RecordNode* prev,
                                   RecordNode* node) noexcept {
  RecordNode* next = node->next;
  (prev == nullptr ? list.head : prev->next) = next;
  if (list.tail == node) list.tail = prev;
  on_erase(node->record);
  pool_->release(node);
  return next;
}

void CheckpointTable::drop_all() noexcept {
  for (List& list : entries_) {
    for (RecordNode* node = list.head; node != nullptr;) {
      RecordNode* next = node->next;
      pool_->release(node);
      node = next;
    }
    list = List{};
  }
}

RecordOutcome CheckpointTable::record(net::ProcId dest,
                                      CheckpointRecord record,
                                      const runtime::TaskPacket& packet) {
  List& list = entries_.at(dest);
  // §3.2: descendant of an existing checkpoint -> nothing to store.
  for (const RecordNode* node = list.head; node != nullptr; node = node->next) {
    if (node->record.stamp.subsumes(packet.stamp)) {
      ++subsumed_;
      return RecordOutcome::kSubsumed;
    }
  }
  // Maintain the antichain: drop records the new stamp subsumes. (With
  // ancestor-before-descendant spawn order this rarely fires, but recovery
  // respawns can reorder arrivals.)
  RecordNode* prev = nullptr;
  for (RecordNode* node = list.head; node != nullptr;) {
    if (packet.stamp.is_ancestor_of(node->record.stamp)) {
      node = erase(list, prev, node);
      ++evicted_;
    } else {
      prev = node;
      node = node->next;
    }
  }
  record.stamp = packet.stamp;
  record.units = packet.size_units();
  RecordNode* node = pool_->acquire(std::move(record));
  (list.tail == nullptr ? list.head : list.tail->next) = node;
  list.tail = node;
  on_insert(node->record);
  ++records_made_;
  if (listener_ != nullptr) listener_->on_record(dest, node->record, packet);
  return RecordOutcome::kRecorded;
}

std::vector<CheckpointRecord> CheckpointTable::take(net::ProcId dead) {
  List& list = entries_.at(dead);
  std::vector<CheckpointRecord> out;
  for (RecordNode* node = list.head; node != nullptr;) {
    out.push_back(std::move(node->record));
    on_erase(out.back());
    ++taken_;
    RecordNode* next = node->next;
    pool_->release(node);
    node = next;
  }
  list = List{};
  if (listener_ != nullptr && !out.empty()) listener_->on_take(dead);
  return out;
}

bool CheckpointTable::release(net::ProcId dest,
                              const runtime::LevelStamp& stamp) {
  List& list = entries_.at(dest);
  // An entry is an antichain, and subsumes() includes equality, so at most
  // one record carries `stamp`.
  RecordNode* prev = nullptr;
  for (RecordNode* node = list.head; node != nullptr;
       prev = node, node = node->next) {
    if (node->record.stamp == stamp) {
      erase(list, prev, node);
      ++released_;
      if (listener_ != nullptr) listener_->on_release(dest, stamp);
      return true;
    }
  }
  return false;
}

bool CheckpointTable::release_anywhere(const runtime::LevelStamp& stamp) {
  for (net::ProcId dest = 0; dest < processors_; ++dest) {
    if (release(dest, stamp)) return true;
  }
  return false;
}

bool CheckpointTable::contains(net::ProcId dest,
                               const runtime::LevelStamp& stamp) const {
  return std::ranges::any_of(entry(dest), [&](const CheckpointRecord& record) {
    return record.stamp == stamp;
  });
}

void CheckpointTable::clear() {
  cleared_ += total_records_;
  drop_all();
  total_records_ = 0;
  total_units_ = 0;
}

std::vector<std::pair<net::ProcId, CheckpointRecord*>>
CheckpointTable::restored_children_of(const runtime::LevelStamp& parent) {
  std::vector<std::pair<net::ProcId, CheckpointRecord*>> out;
  for (net::ProcId dest = 0; dest < processors_; ++dest) {
    for (RecordNode* node = entries_[dest].head; node != nullptr;
         node = node->next) {
      CheckpointRecord& record = node->record;
      if (record.restored() && record.stamp.depth() == parent.depth() + 1 &&
          parent.is_ancestor_of(record.stamp)) {
        out.emplace_back(dest, &record);
      }
    }
  }
  return out;
}

}  // namespace splice::checkpoint

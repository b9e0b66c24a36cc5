// A processor's resident tasks, indexed by uid: a flat open-addressing table
// of 16-byte {uid, Task*} cells (kNoTask: empty), power-of-two sized and
// doubled once more than half full. Probes run linearly from the top bits of
// a multiplicative hash, since on the sharded engine one processor's uids
// share a residue mod P; erase shifts the rest of a probe run back, so there
// are no tombstones. The tasks live in a shard's SlabPool, and the index
// returns each to the pool on erase, on clear() and when it dies. Cell order
// follows the hash: a walk whose effect depends on order must sort by uid.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <utility>
#include <vector>

#include "runtime/task.h"
#include "util/slab.h"

namespace splice::runtime {

class TaskIndex {
  struct Cell {
    TaskUid uid = kNoTask;
    Task* task = nullptr;
  };

 public:
  explicit TaskIndex(util::SlabPool<Task>& pool) noexcept : pool_(&pool) {}
  TaskIndex(const TaskIndex&) = delete;
  TaskIndex& operator=(const TaskIndex&) = delete;
  ~TaskIndex() { clear(); }

  /// Build a task in the pool from `args` and index it under its uid, which
  /// must not be resident: uids are never reused.
  template <typename... Args>
  Task& emplace(Args&&... args) {
    if (2 * (size_ + 1) > cells_.size()) grow();
    Task* task = pool_->acquire(std::forward<Args>(args)...);
    Cell& cell = cells_[probe(task->uid())];
    assert(cell.uid == kNoTask && "a task uid is resident twice");
    cell = Cell{task->uid(), task};
    ++size_;
    return *task;
  }

  [[nodiscard]] Task* find(TaskUid uid) const noexcept {
    return size_ == 0 ? nullptr : cells_[probe(uid)].task;
  }

  /// Unindex the task and return it to the pool; false if none is resident.
  bool erase(TaskUid uid) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = probe(uid);
    if (cells_[hole].uid == kNoTask) return false;
    pool_->release(cells_[hole].task);
    --size_;
    // Pull each later cell of the run into the hole when the hole lies
    // between that cell's home and the cell, so every uid stays reachable.
    for (std::size_t i = next(hole); cells_[i].uid != kNoTask; i = next(i)) {
      if (((i - home(cells_[i].uid)) & mask()) >= ((i - hole) & mask())) {
        cells_[hole] = cells_[i];
        hole = i;
      }
    }
    cells_[hole] = Cell{};
    return true;
  }

  /// Return every task to the pool; the cells stay allocated.
  void clear() noexcept {
    for (Cell& cell : cells_) {
      if (cell.uid != kNoTask) pool_->release(cell.task);
      cell = Cell{};
    }
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }
  /// A probe for `uid` starts at the top log2(capacity()) bits of this.
  [[nodiscard]] static constexpr std::uint64_t hash(TaskUid uid) noexcept {
    return uid * 0x9E3779B97F4A7C15ULL;  // 2^64 divided by the golden ratio
  }

  /// The resident tasks, in cell order.
  [[nodiscard]] auto resident() const {
    return cells_ |
           std::views::filter([](const Cell& c) { return c.uid != kNoTask; }) |
           std::views::transform(
               [](const Cell& c) -> Task& { return *c.task; });
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return cells_.size() - 1; }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask();
  }
  [[nodiscard]] std::size_t home(TaskUid uid) const noexcept {
    return static_cast<std::size_t>(hash(uid) >> shift_);
  }
  /// The cell holding `uid`, or the empty cell that ends its probe run (the
  /// half-full rule keeps one).
  [[nodiscard]] std::size_t probe(TaskUid uid) const noexcept {
    std::size_t i = home(uid);
    while (cells_[i].uid != uid && cells_[i].uid != kNoTask) i = next(i);
    return i;
  }
  /// Double the cells (16 at first) and re-place every resident task.
  void grow() {
    std::vector<Cell> old(cells_.empty() ? 16 : 2 * cells_.size());
    old.swap(cells_);
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(cells_.size()));
    for (const Cell& cell : old) {
      if (cell.uid != kNoTask) cells_[probe(cell.uid)] = cell;
    }
  }

  util::SlabPool<Task>* pool_;
  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity())
};

}  // namespace splice::runtime

// Per-node durable checkpoint store (warm-rejoin substrate).
//
// An append-only, incarnation-stamped log of CheckpointTable mutations
// (record / release / take), mirroring the live table through the table's
// Listener hook. On a crash the configured persistency model decides what
// survives (persistency.h); on a warm rejoin the surviving prefix replays
// into a fresh CheckpointTable, restoring the node's reissue obligations
// toward its peers — the paper's §3.2 table, extended across the crash.
//
// Replay is order-preserving: a record followed by its release nets out, a
// take drops the whole entry, and a lossy-lost release merely leaves a
// stale (harmless, re-releasable) record. Every kRecord entry stores the
// full task packet, and a replayed record carries it (`restored()`),
// because its owner task — whose call slot held the live copy — died with
// the node.
#pragma once

#include <cstdint>
#include <vector>

#include "checkpoint/checkpoint_table.h"
#include "net/topology.h"
#include "runtime/level_stamp.h"
#include "store/persistency.h"

namespace splice::store {

class DurableStore final : public checkpoint::CheckpointTable::Listener {
 public:
  enum class Op : std::uint8_t { kRecord, kRelease, kTake };

  struct LogEntry {
    Op op = Op::kRecord;
    std::uint64_t incarnation = 0;
    net::ProcId dest = net::kNoProc;  // record/release: entry; take: dead
    /// kRecord: the record, carrying its packet. kRelease: `stamp` names
    /// the released record.
    checkpoint::CheckpointRecord record;
  };

  /// `seed` feeds the lossy-survival RNG stream; combined with `self` and
  /// the dying incarnation so every node and every life loses independently
  /// but deterministically.
  DurableStore(net::ProcId self, Persistency model, double survive_p,
               std::uint64_t seed);

  [[nodiscard]] bool enabled() const noexcept {
    return model_ != Persistency::kNone;
  }

  /// The incarnation stamped onto subsequent log appends (the node's
  /// current life; bumped by the processor on every crash).
  void set_incarnation(std::uint64_t incarnation) noexcept {
    incarnation_ = incarnation;
  }

  // ---- CheckpointTable::Listener ------------------------------------------
  void on_record(net::ProcId dest, const checkpoint::CheckpointRecord& record,
                 const runtime::TaskPacket& packet) override;
  void on_release(net::ProcId dest,
                  const runtime::LevelStamp& stamp) override;
  void on_take(net::ProcId dead) override;

  // ---- crash / rejoin lifecycle -------------------------------------------
  /// Apply the persistency model to the log at crash time. `dying` is the
  /// incarnation that just ended (seeds the lossy draw).
  void on_crash(std::uint64_t dying);

  /// Replay the surviving log, in order, into `table` (which must have no
  /// listener attached — replay must not re-log itself). Every surviving
  /// record is inserted carrying its packet (`restored()`), except records
  /// held against this node itself — their children died in the same
  /// crash, so they do not survive the replay. Returns the number of
  /// records live in the table afterwards.
  std::size_t replay_into(checkpoint::CheckpointTable& table);

  /// Compact the log to exactly the live contents of `table` (post-replay,
  /// so every record carries the packet its entry must store): the new log
  /// is one kRecord entry per live record, stamped with the current
  /// incarnation.
  void compact_from(const checkpoint::CheckpointTable& table);

  /// Drop everything (cold rejoin: the new life starts blank).
  void clear() noexcept;

  [[nodiscard]] const std::vector<LogEntry>& log() const noexcept {
    return log_;
  }

  // ---- accounting ----------------------------------------------------------
  [[nodiscard]] std::uint64_t entries_logged() const noexcept {
    return entries_logged_;
  }
  [[nodiscard]] std::uint64_t records_replayed() const noexcept {
    return records_replayed_;
  }

 private:
  void append(LogEntry entry);

  net::ProcId self_;
  Persistency model_;
  double survive_p_;
  std::uint64_t seed_;
  std::uint64_t incarnation_ = 0;
  std::vector<LogEntry> log_;

  std::uint64_t entries_logged_ = 0;
  std::uint64_t records_replayed_ = 0;
};

}  // namespace splice::store

// The functional checkpoint table (§3.2).
//
// "Each processor maintains a table of linked lists. The Nth entry of the
//  table contains all topmost checkpoints from the host processor to
//  processor N. ... If B2 is a descendant of an existing functional
//  checkpoint, C does nothing. Otherwise, processor C makes a checkpoint
//  for B2 in entry B."
//
// Invariant (property-tested): every entry is an antichain under the
// level-stamp ancestry order — no record subsumes another.
//
// Layout: one entry per destination processor plus one stamp-hash index
// over every live record. release_anywhere() — executed for every
// returning result — probes that index instead of scanning all P entries,
// so its cost is independent of machine size; this is what lets the table
// scale to 256+ processor machines. Record/unit totals are maintained
// incrementally for the same reason (the peak-tracking used to recount
// every record on every mutation).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lang/expr.h"
#include "net/topology.h"
#include "runtime/level_stamp.h"
#include "runtime/task_packet.h"
#include "util/slab.h"

namespace splice::checkpoint {

/// One retained checkpoint: enough to reissue the child and to route its
/// eventual result back into the owning slot.
struct CheckpointRecord {
  runtime::TaskUid owner = runtime::kNoTask;  // local parent task
  lang::ExprId site = lang::kNoExpr;          // slot in the owner's body
  runtime::TaskPacket packet;                 // the retained task packet
  /// True when this record was rebuilt from a DurableStore log replay after
  /// a crash: its owner task died with the node, so reissue must go through
  /// a re-accepted owner (matched by stamp) or directly from the packet.
  bool restored = false;
};

enum class RecordOutcome : std::uint8_t {
  kRecorded,   // inserted as a (new) topmost checkpoint
  kSubsumed,   // an existing checkpoint is an ancestor: nothing stored
};

class CheckpointTable {
 public:
  /// Mutation observer: the durable store subscribes to mirror every table
  /// mutation into its append-only log (store/durable_store.h). Callbacks
  /// fire after the mutation applied; a null listener costs nothing.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void on_record(net::ProcId dest, const CheckpointRecord& record) = 0;
    virtual void on_release(net::ProcId dest,
                            const runtime::LevelStamp& stamp) = 0;
    virtual void on_take(net::ProcId dead) = 0;
  };

  CheckpointTable(net::ProcId self, net::ProcId processors);

  /// Install (or detach, with nullptr) the mutation listener.
  void set_listener(Listener* listener) noexcept { listener_ = listener; }

  /// Record a spawn of `record.packet` onto `dest`. Applies the §3.2
  /// subsumption rule and maintains the antichain (descendants of the new
  /// stamp are dropped — they are recoverable through it).
  RecordOutcome record(net::ProcId dest, CheckpointRecord record);

  /// Remove and return every checkpoint held against `dead` — the
  /// processor's reissue obligation when `dead` fails.
  [[nodiscard]] std::vector<CheckpointRecord> take(net::ProcId dead);

  /// Release the checkpoint for `stamp` held against `dest` (child result
  /// arrived; the checkpoint is no longer needed). Returns true if found.
  bool release(net::ProcId dest, const runtime::LevelStamp& stamp);

  /// Release wherever it is held (used when the destination moved due to a
  /// prior respawn). Returns true if found. O(1) expected via the stamp
  /// index — never a scan over all destinations.
  bool release_anywhere(const runtime::LevelStamp& stamp);

  /// Is a checkpoint for `stamp` currently held against `dest`? O(1)
  /// expected via the stamp index. Used by the state-transfer pump
  /// to drop packets whose record was released (result arrived, or the
  /// lineage was cancelled) after the stream snapshot was taken — a
  /// released checkpoint must never resurrect as a re-hosted task.
  [[nodiscard]] bool contains(net::ProcId dest,
                              const runtime::LevelStamp& stamp) const;

  /// Drop every live record (the table is volatile state: a crashed node
  /// that rejoins starts blank). Lifetime counters are preserved — they
  /// describe the run, not the node's current contents.
  void clear();

  [[nodiscard]] const std::vector<CheckpointRecord>& entry(
      net::ProcId dest) const {
    return entries_.at(dest);
  }

  [[nodiscard]] net::ProcId processors() const noexcept { return processors_; }

  /// Replay-restored records whose packet is a direct child of `parent`,
  /// with the destination entry each lives in. Mutable so a warm rejoin can
  /// rebind them to the re-accepted owner task; pointers are invalidated by
  /// the next table mutation, so use immediately.
  [[nodiscard]] std::vector<std::pair<net::ProcId, CheckpointRecord*>>
  restored_children_of(const runtime::LevelStamp& parent);

  [[nodiscard]] std::size_t total_records() const noexcept {
    return total_records_;
  }
  [[nodiscard]] std::uint64_t total_units() const noexcept {
    return total_units_;
  }
  [[nodiscard]] std::size_t peak_records() const noexcept {
    return peak_records_;
  }
  [[nodiscard]] std::uint64_t peak_units() const noexcept {
    return peak_units_;
  }
  [[nodiscard]] std::uint64_t records_made() const noexcept {
    return records_made_;
  }
  [[nodiscard]] std::uint64_t subsumed() const noexcept { return subsumed_; }
  [[nodiscard]] std::uint64_t released() const noexcept { return released_; }
  /// Lifetime removal counters besides release: records claimed by take()
  /// (reissue obligation on a crash), evicted to keep the antichain in
  /// record(), and dropped wholesale by clear(). Together with released()
  /// and the resident total_records() they account for every records_made()
  /// — the conservation equation the RecoveryOracle checks.
  [[nodiscard]] std::uint64_t taken() const noexcept { return taken_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] std::uint64_t cleared() const noexcept { return cleared_; }
  [[nodiscard]] net::ProcId self() const noexcept { return self_; }

 private:
  /// The stamp index allocates one node per live record; a churn-heavy run
  /// (record on spawn, release on result) makes and frees millions of them,
  /// so the nodes come from the table's slab arena and recycle through its
  /// free lists instead of hitting the global allocator every time.
  using StampIndex = std::unordered_multimap<
      std::size_t, net::ProcId, std::hash<std::size_t>,
      std::equal_to<std::size_t>,
      util::PoolAllocator<std::pair<const std::size_t, net::ProcId>>>;

  void index_add(net::ProcId dest, const runtime::LevelStamp& stamp);
  void index_remove(net::ProcId dest, const runtime::LevelStamp& stamp);
  void on_insert(const CheckpointRecord& record) noexcept;
  void on_erase(const CheckpointRecord& record) noexcept;

  net::ProcId self_;
  net::ProcId processors_;
  Listener* listener_ = nullptr;
  /// entries_[d] holds the checkpoints against processor d (the §3.2
  /// "table of linked lists").
  std::vector<std::vector<CheckpointRecord>> entries_;
  util::SlabArena arena_;  // must outlive by_stamp_ (backs its nodes)
  /// stamp-hash -> destination, one value per live record. A multimap
  /// because distinct stamps may collide; hits re-verify against the
  /// actual records.
  StampIndex by_stamp_;

  std::size_t total_records_ = 0;
  std::uint64_t total_units_ = 0;
  std::size_t peak_records_ = 0;
  std::uint64_t peak_units_ = 0;
  std::uint64_t records_made_ = 0;
  std::uint64_t subsumed_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t cleared_ = 0;
};

}  // namespace splice::checkpoint

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
// Layout: §3.2's table of linked lists, literally. Entry N is a FIFO list
// ({head, tail}) of 64-byte nodes, one per record, in the order the records
// were made. The nodes come from a RecordPool the caller owns: Runtime
// keeps one per shard next to its task pools, so a shard's processors
// recycle each other's released nodes and the table's memory follows its
// live records, not every record it ever held. A node never moves, so a
// pointer to its record stays valid until that record is released, taken,
// evicted or cleared.
//
// Each record is an index entry for the owner's call slot. §2.1's "this
// retained copy is all that the parent needs to regenerate the child task"
// is kept once, and only in part: the slot keeps the callee, the arguments
// and the spawn lineage, and the owner rebuilds the rest of the packet from
// its own stamp, ancestor chain and zone (runtime::Task::child_packet).
// Every release names the destination its slot filed the record under
// (CallSlot::filed_at()), so finding a record costs a walk of one entry.
// Record/unit totals are maintained incrementally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <utility>
#include <vector>

#include "lang/expr.h"
#include "net/topology.h"
#include "runtime/level_stamp.h"
#include "runtime/task_packet.h"
#include "util/boxed.h"
#include "util/slab.h"

namespace splice::checkpoint {

/// One retained checkpoint: where the owner slot's packet went, and enough
/// to route its eventual result back into that slot. The owner rebuilds
/// the packet from the slot (Task::child_packet).
struct CheckpointRecord {
  runtime::TaskUid owner = runtime::kNoTask;  // local parent task
  runtime::LevelStamp stamp;                  // the retained child's stamp
  lang::ExprId site = lang::kNoExpr;          // slot in the owner's body
  std::uint32_t units = 0;                    // the packet's size_units()
  /// Set only on a record rebuilt from a DurableStore log replay after a
  /// crash: its owner task died with the node, so the record carries the
  /// packet itself, and reissue goes through a re-accepted owner (matched
  /// by stamp) or directly from this packet.
  util::Boxed<runtime::TaskPacket> packet;

  [[nodiscard]] bool restored() const noexcept { return packet.has_value(); }
};

// Tens of thousands of records are live at once in a large run; a record
// indexes its owner's slot instead of holding a second copy of the packet.
static_assert(sizeof(CheckpointRecord) <= 56);

/// A record's place in its entry's list.
struct RecordNode {
  CheckpointRecord record;
  RecordNode* next = nullptr;
};
static_assert(sizeof(RecordNode) <= 64);

/// Where a table's nodes live. Not thread-safe (util/slab.h): every table
/// drawing on one pool mutates on that pool's thread.
using RecordPool = util::SlabPool<RecordNode>;

/// A forward view of one entry's records, oldest first.
class EntryView : public std::ranges::view_interface<EntryView> {
 public:
  class iterator {
   public:
    using value_type = CheckpointRecord;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    explicit iterator(const RecordNode* node) noexcept : node_(node) {}
    const CheckpointRecord& operator*() const noexcept { return node_->record; }
    iterator& operator++() noexcept {
      node_ = node_->next;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator before = *this;
      node_ = node_->next;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    const RecordNode* node_ = nullptr;
  };

  EntryView() = default;
  explicit EntryView(const RecordNode* head) noexcept : head_(head) {}
  [[nodiscard]] iterator begin() const noexcept { return iterator(head_); }
  [[nodiscard]] iterator end() const noexcept { return iterator(); }

 private:
  const RecordNode* head_ = nullptr;
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
    virtual void on_record(net::ProcId dest, const CheckpointRecord& record,
                           const runtime::TaskPacket& packet) = 0;
    virtual void on_release(net::ProcId dest,
                            const runtime::LevelStamp& stamp) = 0;
    virtual void on_take(net::ProcId dead) = 0;
  };

  /// `pool` must outlive the table; the table returns every node it holds
  /// when it is cleared or destroyed.
  CheckpointTable(net::ProcId self, net::ProcId processors, RecordPool& pool);
  ~CheckpointTable();
  CheckpointTable(const CheckpointTable&) = delete;
  CheckpointTable& operator=(const CheckpointTable&) = delete;

  /// Install (or detach, with nullptr) the mutation listener.
  void set_listener(Listener* listener) noexcept { listener_ = listener; }

  /// Record a spawn of `packet` onto `dest`. `record` names the owner slot
  /// (and, if replayed, carries the packet); its stamp and units are taken
  /// from `packet`, which the listener receives too. Applies the §3.2
  /// subsumption rule and maintains the antichain (descendants of the new
  /// stamp are dropped — they are recoverable through it).
  RecordOutcome record(net::ProcId dest, CheckpointRecord record,
                       const runtime::TaskPacket& packet);

  /// Remove and return every checkpoint held against `dead`, in the order
  /// they were made — the processor's reissue obligation when `dead` fails.
  [[nodiscard]] std::vector<CheckpointRecord> take(net::ProcId dead);

  /// Release the checkpoint for `stamp` held against `dest` (child result
  /// arrived; the checkpoint is no longer needed). Returns true if found.
  bool release(net::ProcId dest, const runtime::LevelStamp& stamp);

  /// Release the first record for `stamp` in any entry, scanning all P of
  /// them. Only for a release that cannot name its destination: the result
  /// of a replayed record whose owner slot never spawned, and a replayed
  /// release whose record a lossy log filed elsewhere. Returns true if
  /// found.
  bool release_anywhere(const runtime::LevelStamp& stamp);

  /// Is a checkpoint for `stamp` currently held against `dest`? Walks that
  /// one entry. Used by the state-transfer pump
  /// to drop packets whose record was released (result arrived, or the
  /// lineage was cancelled) after the stream snapshot was taken — a
  /// released checkpoint must never resurrect as a re-hosted task.
  [[nodiscard]] bool contains(net::ProcId dest,
                              const runtime::LevelStamp& stamp) const;

  /// Drop every live record (the table is volatile state: a crashed node
  /// that rejoins starts blank). Lifetime counters are preserved — they
  /// describe the run, not the node's current contents.
  void clear();

  /// The records held against `dest`, in the order they were made.
  [[nodiscard]] EntryView entry(net::ProcId dest) const {
    return EntryView(entries_.at(dest).head);
  }

  [[nodiscard]] net::ProcId processors() const noexcept { return processors_; }

  /// Replay-restored records whose packet is a direct child of `parent`,
  /// with the destination entry each lives in. Mutable so a warm rejoin can
  /// rebind them to the re-accepted owner task; a pointer stays valid until
  /// its record leaves the table.
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
  struct List {  // oldest record at head, newest at tail
    RecordNode* head = nullptr;
    RecordNode* tail = nullptr;
  };

  void on_insert(const CheckpointRecord& record) noexcept;
  void on_erase(const CheckpointRecord& record) noexcept;
  /// Unlink `node`, which follows `prev` (null at the head), uncount it and
  /// return it to the pool. Returns the node after it.
  RecordNode* erase(List& list, RecordNode* prev, RecordNode* node) noexcept;
  /// Return every node to the pool; the totals are the caller's business.
  void drop_all() noexcept;

  net::ProcId self_;
  net::ProcId processors_;
  RecordPool* pool_;
  Listener* listener_ = nullptr;
  /// entries_[d] holds the checkpoints against processor d (the §3.2
  /// "table of linked lists").
  std::vector<List> entries_;

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

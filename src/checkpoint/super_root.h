// The super-root (§4.3.1).
//
// "One simple method to generate a preevaluation checkpoint is to create a
//  super-root which acts as the parent processor of all user programs. When
//  a user program is initiated, the super-root checkpoints the program so
//  that a duplicate copy of the program can be found in the system should
//  the root fail. With this modification, every task in an applicative
//  program has a parent."
//
// We model the super-root as the always-alive host interface (the user's
// terminal): it checkpoints the root packet, injects it, collects the
// answer, and — because it is the grandparent of every level-1 task — plays
// the splice-recovery ancestor role for orphans of a dead root.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lang/value.h"
#include "runtime/task_packet.h"
#include "sim/simulator.h"

namespace splice::checkpoint {

class SuperRoot {
 public:
  /// Sentinel uid: TaskRef{proc = kNoProc, uid = kSuperRootUid} addresses
  /// the super-root.
  static constexpr runtime::TaskUid kSuperRootUid = 1;

  struct Env {
    /// Inject a root packet into the system; returns the destination chosen
    /// by the (dynamic-allocation) scheduler, or kNoProc if none alive.
    std::function<net::ProcId(runtime::TaskPacket)> spawn;
    /// Relay a (buffered orphan) result to a task somewhere in the system.
    std::function<void(runtime::ResultMsg)> relay;
    /// Count a stranded orphan (super-root disabled or no recovery).
    std::function<void()> on_stranded;
    /// Votes needed before the answer is accepted (§5.3 with a replicated
    /// root; 1 otherwise).
    std::uint32_t quorum = 1;
    std::uint32_t replicas = 1;
    bool recover_root = true;  // false: §4.3.1's "user must restart" regime
  };

  explicit SuperRoot(Env env);

  [[nodiscard]] runtime::TaskRef ref() const {
    return runtime::TaskRef{net::kNoProc, kSuperRootUid};
  }

  /// Checkpoint and inject the root application.
  void start(runtime::TaskPacket root_packet);

  /// A result addressed to the super-root arrived: the root's answer
  /// (kToParent) or an orphan diverted around a dead root (kToAncestor).
  void on_result(runtime::ResultMsg msg);

  /// Spawn acknowledgement for a root (re)incarnation.
  void on_ack(const runtime::AckMsg& msg);

  /// A processor died; respawn root replicas that were hosted (or pending)
  /// there.
  void on_processor_dead(net::ProcId dead);

  /// Restart-from-scratch baseline: reinject every root replica.
  void restart_program();

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const lang::Value& answer() const noexcept { return answer_; }
  [[nodiscard]] std::uint32_t root_respawns() const noexcept {
    return root_respawns_;
  }

 private:
  void respawn_replica(std::uint32_t replica);
  void flush_orphans();

  Env env_;
  runtime::TaskPacket checkpoint_;
  bool started_ = false;
  bool done_ = false;
  lang::Value answer_;
  std::uint32_t votes_ = 0;
  std::uint32_t root_respawns_ = 0;

  struct Incarnation {
    net::ProcId proc = net::kNoProc;   // tentative (pre-ack) or acked host
    runtime::TaskUid uid = runtime::kNoTask;  // known after ack
    bool acked = false;
  };
  std::vector<Incarnation> roots_;

  std::vector<runtime::ResultMsg> pending_orphans_;
};

}  // namespace splice::checkpoint

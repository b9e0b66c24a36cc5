#include "checkpoint/super_root.h"

namespace splice::checkpoint {

using runtime::ResultMsg;
using runtime::ResultRelation;
using runtime::TaskPacket;

SuperRoot::SuperRoot(Env env) : env_(std::move(env)) {}

void SuperRoot::start(TaskPacket root_packet) {
  checkpoint_ = root_packet;  // the preevaluation functional checkpoint
  started_ = true;
  roots_.assign(env_.replicas, {});
  for (std::uint32_t r = 0; r < env_.replicas; ++r) {
    TaskPacket packet = checkpoint_;
    packet.replica = r;
    roots_[r].proc = env_.spawn(std::move(packet));
    roots_[r].acked = false;
    roots_[r].uid = runtime::kNoTask;
  }
}

void SuperRoot::on_result(ResultMsg msg) {
  if (done_) return;
  if (msg.relation == ResultRelation::kToParent && msg.stamp.is_root()) {
    // The answer of the program. With replication, majority consensus:
    // results are identical by determinacy, so the vote is a count.
    ++votes_;
    if (votes_ >= env_.quorum) {
      done_ = true;
      answer_ = msg.value;
    }
    return;
  }
  // Orphan of a dead root (§4: the super-root is the grandparent of every
  // level-1 task). Buffer, make sure a root twin exists, relay on ack.
  if (!env_.recover_root) {
    if (env_.on_stranded) env_.on_stranded();
    return;
  }
  pending_orphans_.push_back(std::move(msg));
  flush_orphans();
}

void SuperRoot::on_ack(const runtime::AckMsg& msg) {
  if (msg.replica < roots_.size()) {
    roots_[msg.replica].proc = msg.child.proc;
    roots_[msg.replica].uid = msg.child.uid;
    roots_[msg.replica].acked = true;
  }
  flush_orphans();
}

void SuperRoot::on_processor_dead(net::ProcId dead) {
  if (!started_ || done_ || !env_.recover_root) return;
  for (std::uint32_t r = 0; r < roots_.size(); ++r) {
    if (roots_[r].proc == dead) respawn_replica(r);
  }
}

void SuperRoot::restart_program() {
  if (!started_ || done_) return;
  for (std::uint32_t r = 0; r < roots_.size(); ++r) respawn_replica(r);
}

void SuperRoot::respawn_replica(std::uint32_t replica) {
  TaskPacket packet = checkpoint_;
  packet.replica = replica;
  ++root_respawns_;
  roots_[replica].proc = env_.spawn(std::move(packet));
  roots_[replica].uid = runtime::kNoTask;
  roots_[replica].acked = false;
}

void SuperRoot::flush_orphans() {
  if (pending_orphans_.empty()) return;
  // Relay through the primary incarnation once it is acknowledged.
  const Incarnation* target = nullptr;
  for (const Incarnation& inc : roots_) {
    if (inc.acked) {
      target = &inc;
      break;
    }
  }
  if (target == nullptr) return;
  std::vector<ResultMsg> msgs = std::move(pending_orphans_);
  pending_orphans_.clear();
  for (ResultMsg& msg : msgs) {
    msg.target = runtime::TaskRef{target->proc, target->uid};
    // Depth gap from the root (depth 0) decides how the receiving processor
    // interprets the stamp: a level-1 producer is the root's direct child.
    msg.relation = msg.stamp.depth() == 1 ? ResultRelation::kToParent
                                          : ResultRelation::kToAncestor;
    env_.relay(std::move(msg));
  }
}

}  // namespace splice::checkpoint

// Parallel sharded simulation core: a conservative time-window PDES driver.
//
// The classic path runs the whole machine on one Simulator. The engine
// partitions processors across `shards` worker threads (runtime::shard_of:
// p % shards, the mapping that also picks each processor's task pool), each
// owning a private Simulator + op heap + journal ring, and runs events
// window by window on a fixed grid W_k = k * L, where the lookahead L is
// the latency model's base cost — the minimum cross-processor message
// delay. Because every cross-processor send posted inside window k
// (at time >= W_k) delivers at >= W_k + L = W_{k+1}, a delivery staged into
// the destination shard's inbox during window k is always drained in time
// for window k+1: no shard ever receives an op for its past. Loopback
// (same-processor) sends are same-shard by construction and go straight
// into the shard's own heap, so their short `local` delay needs no window
// guarantee.
//
// Thread roles per window:
//  * barrier k (workers parked): the coordinator drains staged host ops in
//    (when, acting, seq) order into its own Simulator, runs every
//    coordinator event with time <= W_k (fault kills, super-root traffic,
//    scheduler/gc/obs ticks), publishes the per-processor load snapshot the
//    schedulers read, and decides termination;
//  * window k (coordinator parked at the barrier pair): each worker drains
//    its inboxes into its heap, normalizes its clock to W_k, then
//    interleaves heap ops and simulator events in timestamp order up to
//    (exclusive) W_{k+1}.
//
// Determinism contract — bit-identical runs for any shard count K >= 1:
// every op carries a key (when, class, stream, seq) that is a pure function
// of per-processor event histories, never of thread interleaving. Delivery
// ops take their seq from a per-(directed link, lane) counter whose single
// writer is the posting processor's shard thread; the lane splits bounce
// notices by cause (send-path timeout vs delivery-path bounce), the one
// case where two different threads can legitimately post on the same
// directed link. Coordinator-posted ops sort ahead of same-time deliveries
// (class 0) under one coordinator-owned counter. The A/B oracle for
// `shards = K` is the same engine at `shards = 1`; the classic
// `shards = 0` path is untouched.
//
// Feature gating: engine mode rejects (std::invalid_argument) configurations
// whose semantics depend on the classic global event order — the wire
// transports and kRestart / kPeriodicGlobal recovery. Triggered faults are
// rejected by the Simulation facade, which owns the fault plan.
#pragma once

#include <array>
#include <barrier>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/config.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/journal.h"
#include "obs/recorder_context.h"
#include "runtime/runtime.h"
#include "sim/context.h"
#include "sim/simulator.h"
#include "util/annotations.h"

namespace splice::runtime {

class PdesEngine final : public net::EnvelopeRouter {
 public:
  /// Validates the configuration for engine mode (throws
  /// std::invalid_argument naming the offending knob) and builds the shard
  /// set. Call Network::set_router(engine) and Runtime::set_engine(&engine)
  /// before Runtime::start().
  PdesEngine(Runtime& runtime, net::Network& network,
             const core::SystemConfig& config);
  ~PdesEngine() override;

  PdesEngine(const PdesEngine&) = delete;
  PdesEngine& operator=(const PdesEngine&) = delete;

  /// Drive the run: spawn the worker team and execute windows until the
  /// whole system is idle or the window grid passes `deadline`. Joins the
  /// workers before returning.
  void run(sim::SimTime deadline);

  /// Replay the per-shard journal rings and the coordinator's ring into the
  /// runtime's canonical recorder, merged in (ticks, phase, proc) order with
  /// the stored gauge samples interleaved. Call once after run(); no-op when
  /// the recorder is off.
  void merge_journals();

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint32_t shard_of(net::ProcId p) const noexcept {
    return runtime::shard_of(p, shard_count());
  }
  /// Window barriers crossed (scaling diagnostics).
  [[nodiscard]] std::uint64_t windows_run() const noexcept {
    return windows_run_;
  }
  /// Latest simulated time any simulator reached (run-loop end time).
  [[nodiscard]] sim::SimTime horizon() const noexcept;

  // ---- net::EnvelopeRouter -------------------------------------------------
  void route(net::Envelope&& envelope, sim::SimTime when) override;

  // ---- services for the Runtime --------------------------------------------
  // Worker -> coordinator traffic goes through post_host: the op is stamped
  // with the posting thread's simulated time and a per-acting-processor
  // sequence number, and the coordinator replays the batch at the next
  // barrier in (when, acting, seq) order — a pure function of each
  // processor's own event history, hence independent of the shard count.
  // Coordinator -> worker traffic goes through post_shard while the workers
  // are parked at a barrier: the op lands in the target shard's heap and
  // executes at the start of the next window, ordered by the coordinator's
  // posting sequence.

  /// Stage `fn` to run on the coordinator thread at the next barrier, as a
  /// coordinator event at the posting thread's current simulated time.
  void post_host(net::ProcId acting, std::function<void()> fn);
  /// Coordinator-only: stage `fn` to run on `target`'s shard thread at the
  /// start of the next window.
  void post_shard(net::ProcId target, std::function<void()> fn);
  /// Run `fn` with `p`'s shard simulator installed as the thread context.
  /// Setup-time only (no worker may be running).
  void with_shard_of(net::ProcId p, const std::function<void()>& fn);
  /// Barrier-published queue length of `p` — the scheduler's load snapshot.
  /// Workers must not read another shard's live queue.
  [[nodiscard]] std::uint32_t load_of(net::ProcId p) const;
  /// Events executed across all shard simulators (coordinator excluded).
  [[nodiscard]] std::uint64_t shard_events() const;
  /// Pending events + staged ops across all shards (queue-depth gauge).
  [[nodiscard]] std::uint64_t shard_pending() const;
  /// Record one metrics gauge sample; the engine interleaves stored samples
  /// with journal events when it merges the shard rings.
  void note_gauge_sample(sim::SimTime now, std::uint64_t queue_depth,
                         std::uint64_t in_flight, std::uint64_t residency);

 private:
  /// One unit of cross-thread work, totally ordered by
  /// (when, cls, stream, seq). cls 0 = coordinator-posted lifecycle op
  /// (runs `fn`); cls 1 = message delivery (runs the envelope through
  /// Network::deliver_routed).
  struct Op {
    sim::SimTime when;
    std::uint32_t cls = 0;
    std::uint32_t seq = 0;
    std::uint64_t stream = 0;
    net::Envelope envelope;
    std::function<void()> fn;
  };
  /// Worker-to-coordinator action, replayed at the next barrier in
  /// (when, acting, seq) order.
  struct HostOp {
    sim::SimTime when;
    net::ProcId acting = net::kNoProc;
    std::uint32_t seq = 0;
    std::function<void()> fn;
  };

  /// Cache-line separated per-worker state. `inbox[t]` is written only by
  /// posting thread t (worker shard index, or slot shard_count() for the
  /// coordinator), and each slot is double-buffered by the parity of the
  /// window that will drain it: a worker posting during window k fills the
  /// parity-(k+1) buffer (the lookahead guarantees the op is due >= W_{k+1}),
  /// the coordinator posting at barrier k fills the parity-k buffer (drained
  /// by the window that starts while the workers are still parked), and the
  /// owner drains the parity-k buffers at its window-k start. Every write
  /// and drain on one buffer is therefore separated by a window barrier —
  /// that barrier is the only synchronization; no slot ever needs a lock.
  // The SPLICE_SHARD_CONFINED members are the window protocol's private
  // state: every access must happen inside a SPLICE_SHARD_ENTRY function
  // whose barrier ordering has been argued (lint rule SPL005,
  // docs/STATIC_ANALYSIS.md#spl005). TSan checks the protocol dynamically;
  // the annotation rejects un-argued access sites statically.
  struct alignas(64) Shard {
    std::uint32_t index = 0;
    SPLICE_SHARD_CONFINED sim::Simulator sim;
    SPLICE_SHARD_CONFINED obs::Recorder recorder;
    // binary heap (std::push_heap) keyed by op order
    SPLICE_SHARD_CONFINED std::vector<Op> heap;
    SPLICE_SHARD_CONFINED std::vector<std::array<std::vector<Op>, 2>> inbox;
    SPLICE_SHARD_CONFINED std::uint64_t ops_executed = 0;
  };

  static bool op_after(const Op& a, const Op& b) noexcept;
  void push_op(Shard& shard, Op&& op);
  [[nodiscard]] Op pop_op(Shard& shard);

  void worker_loop(Shard& shard, std::barrier<>& gate);
  void run_window(Shard& shard);
  void exec_op(Shard& shard, Op& op);
  /// Barrier k: drain host ops, run coordinator events <= `wk`, publish the
  /// load snapshot.
  void coordinator_phase(sim::SimTime wk);
  [[nodiscard]] bool globally_idle() const;
  [[nodiscard]] std::uint32_t posting_slot() const noexcept;
  /// Which of a slot's two buffers the posting thread must fill: the parity
  /// of the window that will drain the post (see Shard::inbox).
  [[nodiscard]] std::uint32_t posting_parity(std::uint32_t slot) const noexcept;

  Runtime& rt_;
  net::Network& network_;
  sim::Simulator& sim_;  // the coordinator's simulator (Runtime's own)
  const net::ProcId procs_;
  const std::int64_t lookahead_;

  std::vector<Shard> shards_;

  /// Per-(directed link, lane) delivery sequence counters, indexed
  /// (from * procs + to) * 3 + lane. Lane 0: regular sends (written by the
  /// sender's shard). Bounce notices travel the reverse link (dead ->
  /// sender) and can be posted from two different threads for the same
  /// directed pair, so they split by cause: lane 1 = send-path timeout
  /// (posted by the sender's own shard), lane 2 = delivery-path bounce
  /// (posted by the destination's shard). The cause is recovered from the
  /// notice itself — a send-path notice carries its timeout stamp at the
  /// boxed original's send time, a delivery-path one stamps strictly later
  /// — so the lane, and with it the op key, is shard-count independent.
  SPLICE_SHARD_CONFINED std::vector<std::uint32_t> link_seq_;
  /// Per-acting-processor host-op counters (written by the acting
  /// processor's shard thread).
  SPLICE_SHARD_CONFINED std::vector<std::uint32_t> host_seq_;
  /// Coordinator-posted op counter (coordinator thread only).
  std::uint32_t coordinator_seq_ = 0;

  /// Staged host ops, one slot per posting worker thread (last slot:
  /// coordinator, for uniformity). Drained at each barrier.
  SPLICE_SHARD_CONFINED std::vector<std::vector<HostOp>> host_inbox_;

  /// Barrier-published scheduler load snapshot (coordinator writes while
  /// workers are parked; workers read during windows).
  std::vector<std::uint32_t> loads_;

  /// Window state, written by the coordinator between barrier phases.
  sim::SimTime window_start_;
  sim::SimTime window_end_;
  bool stop_ = false;
  std::uint64_t windows_run_ = 0;

  /// Gauge samples the obs tick diverted here (coordinator only), merged
  /// into the metrics series during merge_journals().
  struct GaugeSample {
    sim::SimTime now;
    std::uint64_t queue_depth = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t residency = 0;
  };
  std::vector<GaugeSample> samples_;
};

}  // namespace splice::runtime

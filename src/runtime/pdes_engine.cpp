#include "runtime/pdes_engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <variant>

namespace splice::runtime {

namespace {

void validate(const core::SystemConfig& config) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("parallel engine: " + what);
  };
  if (config.transport.backend != net::TransportKind::kInProcess) {
    reject("only the in-process transport is supported (wire transports "
           "own their own delivery timing)");
  }
  if (config.recovery.kind == core::RecoveryKind::kRestart ||
      config.recovery.kind == core::RecoveryKind::kPeriodicGlobal) {
    reject("kRestart/kPeriodicGlobal recovery needs the classic global "
           "event order");
  }
  const net::LatencyModel& lat = config.latency;
  if (lat.base < 1) reject("latency.base must be >= 1 (it is the lookahead)");
  if (lat.per_hop < 0 || lat.per_unit < 0 || lat.local < 0) {
    reject("negative latency components break the lookahead bound");
  }
  if (lat.failure_timeout < lat.base) {
    reject("failure_timeout below latency.base breaks the lookahead bound");
  }
}

}  // namespace

// Entry: runs strictly before the worker team exists.
SPLICE_SHARD_ENTRY
PdesEngine::PdesEngine(Runtime& runtime, net::Network& network,
                       const core::SystemConfig& config)
    : rt_(runtime),
      network_(network),
      sim_(runtime.coordinator_sim()),
      procs_(config.processors),
      lookahead_(config.latency.base),
      shards_(runtime::shard_count(config)),
      link_seq_(static_cast<std::size_t>(config.processors) *
                    config.processors * 3,
                0),
      host_seq_(config.processors, 0),
      host_inbox_(shards_.size() + 1),
      loads_(config.processors, 0) {
  validate(config);
  const auto nshards = static_cast<std::uint32_t>(shards_.size());
  for (std::uint32_t s = 0; s < nshards; ++s) {
    shards_[s].index = s;
    shards_[s].inbox.resize(nshards + 1);
    shards_[s].recorder.configure(config.obs.recorder,
                                  config.obs.journal_capacity);
    shards_[s].recorder.set_processors(config.processors);
  }
}

PdesEngine::~PdesEngine() = default;

// ---- op ordering -----------------------------------------------------------

bool PdesEngine::op_after(const Op& a, const Op& b) noexcept {
  return std::tuple(a.when.ticks(), a.cls, a.stream, a.seq) >
         std::tuple(b.when.ticks(), b.cls, b.stream, b.seq);
}

// Entry: called only by the shard's owner thread on its own heap.
SPLICE_SHARD_ENTRY
void PdesEngine::push_op(Shard& shard, Op&& op) {
  shard.heap.push_back(std::move(op));
  std::push_heap(shard.heap.begin(), shard.heap.end(), op_after);
}

SPLICE_SHARD_ENTRY
PdesEngine::Op PdesEngine::pop_op(Shard& shard) {
  std::pop_heap(shard.heap.begin(), shard.heap.end(), op_after);
  Op op = std::move(shard.heap.back());
  shard.heap.pop_back();
  return op;
}

std::uint32_t PdesEngine::posting_slot() const noexcept {
  const std::uint32_t posting = sim::ctx_shard();
  return posting == sim::kNoShard ? static_cast<std::uint32_t>(shards_.size())
                                  : posting;
}

std::uint32_t PdesEngine::posting_parity(std::uint32_t slot) const noexcept {
  if (slot == shards_.size()) {
    // Coordinator posts happen at barrier k (workers parked) and are drained
    // by window k, which starts immediately after. windows_run_ == k there.
    return static_cast<std::uint32_t>(windows_run_ & 1);
  }
  // Worker posts happen during window k and are drained at window k+1: the
  // lookahead guarantees every cross-shard op posted in window k is due at
  // >= W_{k+1}. window_start_ (== k * L) is stable for the whole window.
  const auto k = static_cast<std::uint64_t>(window_start_.ticks() / lookahead_);
  return static_cast<std::uint32_t>((k + 1) & 1);
}

// ---- net::EnvelopeRouter ---------------------------------------------------

// Entry: the posting protocol proper — single-writer parity buffers,
// per-(link, lane) counters owned by the posting thread.
SPLICE_SHARD_ENTRY
void PdesEngine::route(net::Envelope&& envelope, sim::SimTime when) {
  std::uint32_t lane = 0;
  if (envelope.kind == net::MsgKind::kDeliveryFailure) {
    // Recover the bounce's cause from its timestamps (see link_seq_ in the
    // header): a send-path timeout is stamped in the same call stack as the
    // original send, a delivery-path bounce strictly later (every delivery
    // delay is >= 1 tick).
    const auto& boxed = std::get<net::EnvelopeBox>(envelope.payload);
    lane = (boxed.has_value() && (*boxed).sent_at == envelope.sent_at) ? 1 : 2;
  }
  const std::uint64_t stream =
      (static_cast<std::uint64_t>(envelope.from) * procs_ + envelope.to) * 3 +
      lane;
  Op op;
  op.when = when;
  op.cls = 1;
  op.stream = stream;
  op.seq = link_seq_[stream]++;
  op.envelope = std::move(envelope);
  Shard& dest = shards_[shard_of(op.envelope.to)];
  const std::uint32_t slot = posting_slot();
  if (slot == dest.index) {
    push_op(dest, std::move(op));
  } else {
    dest.inbox[slot][posting_parity(slot)].push_back(std::move(op));
  }
}

// ---- services for the Runtime ---------------------------------------------

SPLICE_SHARD_ENTRY
void PdesEngine::post_host(net::ProcId acting, std::function<void()> fn) {
  if (sim::ctx_shard() == sim::kNoShard) {
    // Already on the coordinator: run in place, inside the current event.
    fn();
    return;
  }
  assert(shard_of(acting) == sim::ctx_shard() &&
         "host ops must be posted from the acting processor's shard");
  HostOp op;
  op.when = sim::ctx(sim_).now();
  op.acting = acting;
  op.seq = host_seq_[acting]++;
  op.fn = std::move(fn);
  host_inbox_[posting_slot()].push_back(std::move(op));
}

SPLICE_SHARD_ENTRY
void PdesEngine::post_shard(net::ProcId target, std::function<void()> fn) {
  assert(sim::ctx_shard() == sim::kNoShard &&
         "post_shard is coordinator-only (workers must be parked)");
  Op op;
  op.when = sim_.now();
  op.cls = 0;
  op.stream = 0;
  op.seq = coordinator_seq_++;
  op.fn = std::move(fn);
  Shard& dest = shards_[shard_of(target)];
  const auto slot = static_cast<std::uint32_t>(shards_.size());
  dest.inbox[slot][posting_parity(slot)].push_back(std::move(op));
}

SPLICE_SHARD_ENTRY
void PdesEngine::with_shard_of(net::ProcId p,
                               const std::function<void()>& fn) {
  Shard& shard = shards_[shard_of(p)];
  sim::ScopedContext ctx(&shard.sim, shard.index);
  obs::ScopedRecorder rec(shard.recorder.enabled() ? &shard.recorder
                                                   : nullptr);
  fn();
}

std::uint32_t PdesEngine::load_of(net::ProcId p) const { return loads_[p]; }

// Entry: post-run / barrier-phase aggregation (workers parked or joined).
SPLICE_SHARD_ENTRY
std::uint64_t PdesEngine::shard_events() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.sim.events_executed() + s.ops_executed;
  return n;
}

SPLICE_SHARD_ENTRY
std::uint64_t PdesEngine::shard_pending() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    n += s.sim.pending_events() + s.heap.size();
    for (const auto& slot : s.inbox) n += slot[0].size() + slot[1].size();
  }
  for (const auto& slot : host_inbox_) n += slot.size();
  return n;
}

void PdesEngine::note_gauge_sample(sim::SimTime now, std::uint64_t queue_depth,
                                   std::uint64_t in_flight,
                                   std::uint64_t residency) {
  samples_.push_back({now, queue_depth, in_flight, residency});
}

// ---- run loop --------------------------------------------------------------

SPLICE_SHARD_ENTRY
sim::SimTime PdesEngine::horizon() const noexcept {
  sim::SimTime t = sim_.now();
  for (const Shard& s : shards_) t = std::max(t, s.sim.now());
  return t;
}

// Entry: runs between the window barriers while every worker is parked.
SPLICE_SHARD_ENTRY
void PdesEngine::coordinator_phase(sim::SimTime wk) {
  // Replay staged host ops in (when, acting, seq) order — a pure function
  // of each processor's own event history. Scheduling them via at() keeps
  // same-time insertion order in the event queue, so they interleave with
  // resident coordinator events deterministically.
  std::vector<HostOp> batch;
  for (auto& slot : host_inbox_) {
    for (HostOp& op : slot) batch.push_back(std::move(op));
    slot.clear();
  }
  std::sort(batch.begin(), batch.end(), [](const HostOp& a, const HostOp& b) {
    return std::tuple(a.when.ticks(), a.acting, a.seq) <
           std::tuple(b.when.ticks(), b.acting, b.seq);
  });
  for (HostOp& op : batch) {
    sim_.at(op.when, std::move(op.fn));
  }
  // Run every coordinator event up to and including the barrier time. The
  // inclusive bound matters: a fault-injector kill scheduled exactly at a
  // grid time must land before the window that starts there.
  while (!sim_.idle() && sim_.next_event_time() <= wk) sim_.run_one();
  // Publish the load snapshot the schedulers read during the next window.
  for (net::ProcId p = 0; p < procs_; ++p) {
    loads_[p] = rt_.processor(p).queue_length();
  }
}

SPLICE_SHARD_ENTRY
bool PdesEngine::globally_idle() const {
  if (!sim_.idle()) return false;
  return shard_pending() == 0;
}

// Entry: the owner thread itself.
SPLICE_SHARD_ENTRY
void PdesEngine::worker_loop(Shard& shard, std::barrier<>& gate) {
  while (true) {
    gate.arrive_and_wait();  // window start (coordinator published state)
    if (stop_) return;
    run_window(shard);
    gate.arrive_and_wait();  // window end (hand back to the coordinator)
  }
}

SPLICE_SHARD_ENTRY
void PdesEngine::exec_op(Shard& shard, Op& op) {
  ++shard.ops_executed;
  if (op.cls == 1) {
    network_.deliver_routed(std::move(op.envelope));
  } else {
    op.fn();
  }
}

SPLICE_SHARD_ENTRY
void PdesEngine::run_window(Shard& shard) {
  sim::ScopedContext ctx(&shard.sim, shard.index);
  obs::ScopedRecorder rec(shard.recorder.enabled() ? &shard.recorder
                                                   : nullptr);
  // Drain this window's parity buffers: everything workers posted during
  // window k-1 plus everything the coordinator staged at barrier k. The
  // buffers other workers are filling *right now* have the opposite parity.
  const auto k = static_cast<std::uint64_t>(window_start_.ticks() / lookahead_);
  for (auto& slot : shard.inbox) {
    auto& ready = slot[k & 1];
    for (Op& op : ready) push_op(shard, std::move(op));
    ready.clear();
  }
  // Normalize the clock to the window start: every pending event is >= W_k
  // (it would have run last window otherwise), so the clamp leaves now()
  // exactly at W_k for any shard count — coordinator-posted ops stamped
  // before W_k execute at W_k, not at a layout-dependent residual time.
  shard.sim.advance_to(window_start_);
  const sim::SimTime end = window_end_;
  while (true) {
    const sim::SimTime next_event = shard.sim.next_event_time();
    const sim::SimTime next_op =
        shard.heap.empty() ? sim::SimTime::max() : shard.heap.front().when;
    if (next_op <= next_event) {  // ops win ties: fixed, layout-free rule
      if (next_op >= end) break;
      Op op = pop_op(shard);
      shard.sim.advance_to(op.when);
      exec_op(shard, op);
    } else {
      if (next_event >= end) break;
      shard.sim.run_one();
    }
  }
}

SPLICE_SHARD_ENTRY
void PdesEngine::run(sim::SimTime deadline) {
  std::barrier<> gate(static_cast<std::ptrdiff_t>(shards_.size()) + 1);
  std::vector<std::thread> team;
  team.reserve(shards_.size());
  for (Shard& shard : shards_) {
    team.emplace_back([this, &shard, &gate] { worker_loop(shard, gate); });
  }
  std::int64_t k = 0;
  while (true) {
    const sim::SimTime wk(k * lookahead_);
    coordinator_phase(wk);
    if (globally_idle() || wk.ticks() > deadline.ticks()) stop_ = true;
    window_start_ = wk;
    window_end_ = sim::SimTime((k + 1) * lookahead_);
    gate.arrive_and_wait();  // release the workers into window k
    if (stop_) break;
    gate.arrive_and_wait();  // window k complete
    ++k;
    ++windows_run_;
  }
  for (std::thread& t : team) t.join();
}

// ---- journal merge ---------------------------------------------------------

// Entry: after run() joined the team; single-threaded again.
SPLICE_SHARD_ENTRY
void PdesEngine::merge_journals() {
  obs::Recorder& base = rt_.base_recorder();
  if (!base.enabled()) return;
  // Phase rank at one tick: shard events at tick T ran in window floor(T/L);
  // coordinator events at T ran at barrier ceil(T/L), which sits *after*
  // that window unless T is on the grid — where the barrier runs first.
  struct Entry {
    obs::Event event;
    std::uint32_t rank = 0;
    std::uint32_t ring = 0;
    std::uint64_t index = 0;
  };
  std::vector<Entry> entries;
  const auto harvest = [&](const obs::Recorder& ring, bool coordinator,
                           std::uint32_t ring_id) {
    std::uint64_t index = 0;
    ring.for_each([&](const obs::Event& event) {
      const bool on_grid = event.ticks % lookahead_ == 0;
      Entry entry;
      entry.event = event;
      entry.rank = coordinator ? (on_grid ? 0U : 2U) : 1U;
      entry.ring = ring_id;
      entry.index = index++;
      entries.push_back(std::move(entry));
    });
  };
  harvest(base, /*coordinator=*/true, 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    harvest(shards_[s].recorder, /*coordinator=*/false,
            static_cast<std::uint32_t>(s + 1));
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    return std::tuple(a.event.ticks, a.rank, a.event.proc, a.ring, a.index) <
           std::tuple(b.event.ticks, b.rank, b.event.proc, b.ring, b.index);
  });
  // Rebuild the canonical recorder from the merged stream. configure()
  // resets the ring and the metrics registry, so the metrics series
  // re-derives from the global order (as do cause edges, which snapshot()
  // infers); stored gauge samples slot in ahead of the first strictly-later
  // event.
  const std::uint32_t capacity = rt_.config().obs.journal_capacity;
  base.configure(true, capacity);
  base.set_processors(procs_);
  auto sample = samples_.begin();
  const auto flush_samples_before = [&](std::int64_t ticks) {
    while (sample != samples_.end() && sample->now.ticks() < ticks) {
      base.metrics().sample(sample->now.ticks(), sample->queue_depth,
                            sample->in_flight, sample->residency);
      ++sample;
    }
  };
  // Fixed interleaving rule: events at tick T replay before the gauge
  // sample taken at T (the sample closes a window containing them).
  for (Entry& entry : entries) {
    flush_samples_before(entry.event.ticks);
    const obs::Event& ev = entry.event;
    obs::Recorder::Fields fields;
    fields.proc = ev.proc;
    fields.peer = ev.peer;
    fields.uid = ev.uid;
    fields.stamp = ev.stamp.is_root() ? nullptr : &ev.stamp;
    fields.arg = ev.arg;
    base.record(sim::SimTime(ev.ticks), ev.kind, fields);
  }
  flush_samples_before(horizon().ticks() + 1);
}

}  // namespace splice::runtime

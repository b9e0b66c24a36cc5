// Umbrella header: the full public API of the splice library.
//
//   #include "splice.h"
//
// pulls in everything a downstream user needs:
//   * core::SystemConfig / core::Simulation / core::RunResult — configure,
//     run, measure (core/simulation.h);
//   * lang::programs — the workload library; lang::FunctionBuilder — build
//     your own applicative programs (lang/programs.h);
//   * net::FaultPlan — schedule crashes, regions, cascades, Poisson fault
//     rates, and rejoin (net/fault_plan.h, executed by net/fault_injector.h);
//   * store::Persistency / core::StoreConfig — the durable checkpoint log
//     and warm-rejoin state transfer (store/durable_store.h,
//     store/state_transfer.h);
//   * the lower layers (runtime, sched, checkpoint, store, recovery) for
//     embedders who extend the machine itself.
#pragma once

#include "checkpoint/checkpoint_table.h"
#include "checkpoint/super_root.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/simulation.h"
#include "lang/interpreter.h"
#include "lang/program.h"
#include "lang/programs.h"
#include "net/codec.h"
#include "net/fault_injector.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "net/topology.h"
#include "net/transport.h"
#include "recovery/policy.h"
#include "recovery/replicated.h"
#include "runtime/runtime.h"
#include "sched/gradient.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "store/durable_store.h"
#include "store/persistency.h"
#include "store/state_transfer.h"
#include "util/table.h"

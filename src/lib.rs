//! # teal — Learning-Accelerated WAN Traffic Engineering
//!
//! A from-scratch Rust reproduction of *Teal: Learning-Accelerated
//! Optimization of WAN Traffic Engineering* (SIGCOMM 2023): a flow-centric
//! graph neural network (FlowGNN) feeding a shared per-demand policy network
//! trained with multi-agent reinforcement learning (COMA*), fine-tuned by a
//! few parallel ADMM iterations.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`nn`] — tensors, autograd, optimizers (the PyTorch/GPU substitute);
//! * [`topology`] — WAN graphs, generators, k-shortest paths;
//! * [`traffic`] — synthetic heavy-tailed traffic matrices;
//! * [`lp`] — the TE problem, simplex / ADMM / Fleischer solvers, and
//!   feasible-flow semantics;
//! * [`core`] — Teal itself: FlowGNN, COMA*, the deployment engine;
//! * [`baselines`] — LP-top, NCFlow, POP, TEAVAR*;
//! * [`sim`] — the online/offline evaluation harness;
//! * [`serve`] — the multi-topology serving daemon (micro-batching
//!   coalescer, hot model-weight swap, latency telemetry).
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use teal::core::{train_coma, ComaConfig, EngineConfig, Env, ServingContext, TealConfig, TealModel};
//! use teal::topology::b4;
//! use teal::traffic::{TrafficConfig, TrafficModel};
//!
//! // 1. Topology + candidate paths.
//! let env = Arc::new(Env::for_topology(b4()));
//! // 2. Traffic.
//! let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 0);
//! traffic.calibrate(env.topo(), env.paths());
//! let train = traffic.series(0, 32);
//! let val = traffic.series(32, 8);
//! // 3. Train.
//! let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
//! train_coma(&mut model, &train, &val, &ComaConfig::default());
//! // 4. Deploy: one forward pass + 2 ADMM iterations per window of traffic
//! //    matrices; `allocate` is a window of one.
//! let ctx = ServingContext::new(model, EngineConfig::paper_default(12));
//! let tm = traffic.series(40, 1).remove(0);
//! let (allocation, elapsed) = ctx.allocate(&tm);
//! println!("allocated {} demands in {:?}", allocation.num_demands(), elapsed);
//! let (window, elapsed) = ctx.allocate_batch(&traffic.series(41, 8));
//! println!("allocated a window of {} matrices in {:?}", window.len(), elapsed);
//! ```
//!
//! ## Unsafe inventory & correctness tooling
//!
//! The workspace's `unsafe` is confined to two hot-path idioms, both in the
//! compute crates and both instrumented:
//!
//! * **Lifetime-erased pool jobs** (`teal_nn::pool`): kernels hand the
//!   worker pool a borrowed `&dyn Fn(usize)` whose lifetime is erased to
//!   cross the thread boundary. Soundness rests on the submit path not
//!   returning until every claimed chunk settled (the `done`-count/condvar
//!   protocol), which is exactly what the loom model checker exercises.
//! * **Disjoint-chunk `&mut` reconstruction** (`teal_nn::par::RawChunks`,
//!   `teal_lp`'s ADMM `TileBuf`): a mutable buffer is split into
//!   non-overlapping `(start, len)` regions, each rebuilt as a `&mut [f64]`
//!   by exactly one tile. In debug builds (and under `--cfg teal_check`)
//!   every handed-out range is recorded and checked — an overlapping or
//!   out-of-bounds region panics at the hand-out site instead of silently
//!   aliasing a neighbor tile.
//!
//! Everything else forbids `unsafe` outright (`#![forbid(unsafe_code)]` in
//! `teal-topology`, `teal-traffic`, `teal-core`, `teal-baselines`,
//! `teal-sim`, `teal-bench`, `teal-serve`, and this crate), and
//! `unsafe_op_in_unsafe_fn` is denied workspace-wide.
//!
//! Three layers of tooling keep this inventory honest:
//!
//! 1. **`cargo xtask lint`** — an offline source pass over the workspace
//!    (no network, no nightly): every `unsafe` block/impl must carry a
//!    `// SAFETY:` comment; non-test `teal-serve` code may not call
//!    `unwrap()`/`expect()` (the `crate::sync` facade returns guards
//!    directly) or read the clock outside `telemetry::now()`; modules
//!    marked `// teal-lint: checked-sync` may not import `std::sync`
//!    directly; and zero-unsafe crates must keep their `forbid` attribute.
//!    The allowlist (`xtask-lint-allow.txt`) ships empty and is expected
//!    to stay that way.
//! 2. **Model checking** (`vendor/loom` + `RUSTFLAGS="--cfg teal_loom"
//!    cargo test -p teal-serve --test model_check`) — a miniature
//!    loom-style checker (token-passing scheduler, exhaustive DFS over
//!    interleavings, bounded preemptions, seed-replayable failing
//!    schedules) that exhaustively explores the serving stack's real race
//!    protocols: WFQ one-ahead reservation, submit-vs-shutdown, and the
//!    client's register-before-send slot protocol. Each model test also
//!    runs a seeded mutant of its protocol and asserts the checker kills
//!    it.
//! 3. **Checked-unsafe instrumentation** (`debug_assertions`/`teal_check`)
//!    — the range trackers described above, plus construction-time
//!    disjointness asserts on `RawChunks`.

// This umbrella crate only re-exports; the audited unsafe lives in
// `teal-nn`/`teal-lp` per the inventory above.
#![forbid(unsafe_code)]

pub use teal_baselines as baselines;
pub use teal_core as core;
pub use teal_lp as lp;
pub use teal_nn as nn;
pub use teal_serve as serve;
pub use teal_sim as sim;
pub use teal_topology as topology;
pub use teal_traffic as traffic;

//! `teal-core`: the paper's primary contribution — Teal, a learning-
//! accelerated WAN traffic engineering scheme (SIGCOMM 2023).
//!
//! Pipeline (Figure 3): traffic demands and link capacities enter
//! [`model::TealModel`]'s FlowGNN (§3.2), whose per-path embeddings feed a
//! shared per-demand policy network (§3.3) trained with the COMA* multi-
//! agent RL algorithm in [`coma`] (Appendix B); the resulting allocation is
//! fine-tuned by a few warm-started ADMM iterations in [`engine`] (§3.4).
//!
//! Supporting modules: [`env`] (per-topology context), [`flowsim`]
//! (incremental reward simulation for counterfactual advantages),
//! [`direct`] (the surrogate-loss ablation), [`ablation`] (naive DNN /
//! naive GNN / global-policy variants, §5.7) and [`tsne`] (Figure 16).
//!
//! # Batched serving architecture
//!
//! The paper's speed claim — "one fixed-cost batch of matrix
//! multiplications plus a few ADMM iterations" — is realized here as an
//! explicit batch dimension through the whole serving data path:
//!
//! * **Batch shapes.** [`Env::batch_input`] stacks a minibatch of traffic
//!   matrices as vertical per-matrix blocks: `path_init` is
//!   `[batch * num_paths, 1]` and `edge_init` is `[batch * num_edges, 1]`
//!   ([`ModelInput::batch`] records the count; `batch == 1` is exactly the
//!   single-matrix layout). Dense layers are row-wise and handle the stack
//!   unchanged; message passing applies the incidence operator
//!   block-diagonally (`spmm_batch`), and the per-demand reshape groups
//!   `batch * num_demands` rows. [`PolicyModel::allocate_batch`] turns the
//!   resulting `[batch * D, k]` logits into per-matrix allocations that
//!   match per-matrix [`PolicyModel::allocate_deterministic`] outputs to
//!   within f32 noise (well below 1e-6; property-tested).
//! * **ServingContext lifecycle.** [`ServingContext`] is built once per
//!   topology from a trained model plus an [`teal_lp::AdmmSkeleton`] (the
//!   path-edge incidence index, normalized capacities, and objective
//!   discounts — everything traffic-independent). Serving never rebuilds
//!   per-topology state: each window mints O(batch × paths) solver
//!   coefficients from the shared skeleton, and link-failure overrides
//!   swap only the capacity vector. All methods take `&self`, so one
//!   `Arc<ServingContext>` serves concurrent callers from many threads.
//! * **Throughput path.** [`ServingContext::allocate_batch`] runs the
//!   forward pass in cache-blocked sub-batches (one set of matrix products
//!   each, tape-free — see `TealModel::infer_mu`) and fine-tunes the whole
//!   window with one batched ADMM sweep ([`teal_lp::AdmmBatchSolver`]):
//!   structure-of-arrays state minted from the shared skeleton, each
//!   iteration a single pass over the incidence index parallelized over
//!   demand/edge × batch tiles on the `teal_nn::pool` workers, with a
//!   per-matrix convergence mask for early stopping. The single-matrix
//!   `allocate`/`allocate_on` are windows of one through the same
//!   pipeline. Batched ≡ per-matrix output is property-tested to 1e-6
//!   against a per-matrix reference solver kept in `teal-lp`'s tests.
//!   [`ServingContext::try_allocate_batch`] surfaces malformed requests
//!   and poisoned workers as [`AllocError`] values for isolation. The
//!   `throughput` and `admm` Criterion benches in `teal-bench` track the
//!   batched vs. one-matrix-at-a-time margins on B4/SWAN.
//! * **Training.** [`coma::train_coma`] consumes minibatches
//!   (`ComaConfig::batch_size`) with one batched forward/backward pass and
//!   one optimizer step per minibatch; validation scores allocations from
//!   the batched path.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-nn`/`teal-lp` only (see the root crate's
// unsafe inventory docs).
#![forbid(unsafe_code)]

pub mod ablation;
pub mod coma;
pub mod direct;
pub mod engine;
pub mod env;
pub mod flowsim;
pub mod model;
pub mod tsne;

pub use coma::{train_coma, validate, validate_reward, ComaConfig, TrainReport};
pub use direct::{train_direct, DirectConfig};
pub use engine::{AllocError, BatchScratch, EngineConfig, ServingContext, SolveReport};
pub use env::{Env, ModelInput};
pub use flowsim::FlowSim;
pub use flowsim::RewardKind;
pub use model::{mu_to_allocation, mu_to_allocations, Forward, PolicyModel, TealConfig, TealModel};

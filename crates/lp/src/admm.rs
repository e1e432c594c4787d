//! ADMM for the TE path LP, following Appendix C of the paper.
//!
//! The constrained problem (Eq. 1) is rewritten with auxiliary per-(path,
//! edge) variables `z_pe`, slacks `s1_d` (demand rows) and `s3_e` (capacity
//! rows), and multipliers `λ = (λ1, λ3, λ4)`. Each ADMM iteration performs
//! four sweeps, every one of which decomposes into independent per-demand or
//! per-edge subproblems (the parallelism §3.4 exploits on GPUs; here spread
//! over CPU threads):
//!
//! 1. **F-update** — per demand, a k-dimensional box-clamped quadratic whose
//!    Hessian is `ρ(vol²·diag(L_p) + 11ᵀ)`, solved in closed form via the
//!    Sherman-Morrison identity;
//! 2. **z-update** — per edge, Hessian `ρ(I + 11ᵀ)`, also Sherman-Morrison;
//! 3. **slack updates** — non-negative projections in closed form;
//! 4. **dual ascent** on all three multiplier families.
//!
//! One solver, [`AdmmBatchSolver`], serves both roles the paper gives ADMM:
//! *warm-started for 2–5 iterations* as Teal's feasibility repair (§3.4),
//! and *cold-started to convergence* as the large-instance substitute for
//! the Gurobi "LP-all" baseline (our documented Gurobi substitution; see
//! DESIGN.md). The one-shot callers — LP-all in [`crate::pathlp::solve_lp`]
//! and the Figure-2 racers in [`crate::concurrent`] — solve a batch of one.
//!
//! # The batched solver
//!
//! Appendix C's decomposition is independent not only across demands and
//! edges but also across *traffic matrices*: no ADMM quantity ever couples
//! two matrices, so a lane of a batched run is exactly a batch-of-one run
//! on its matrix. The solver is structure-of-arrays, minted from one
//! shared [`AdmmSkeleton`]:
//!
//! * **SoA layout.** Every state family (`f`, `z`, slacks, multipliers) is
//!   stored `[entry][lane]` — for a per-matrix quantity of length `L` and a
//!   batch of `B` matrices, element `i` of matrix `b` lives at
//!   `i * B + b`. Batch lanes of one subproblem are contiguous, so each
//!   per-demand / per-edge subproblem walks the incidence index **once**
//!   and repairs the whole window in that single pass, instead of `B`
//!   passes re-reading the index per matrix.
//! * **Edge-major auxiliaries.** `z` and `λ4` are stored in edge-major
//!   entry order (each edge's incidence entries contiguous), so the
//!   z-update and the capacity rows of the dual ascent write disjoint
//!   contiguous tiles with no atomics; the F-update reaches them through a
//!   precomputed entry→position permutation.
//! * **Flat incidence arena.** The shared index itself is two flat
//!   CSR-style arenas (path-major entry ids, edge-major positions) plus
//!   the entry→position permutation — no per-path or per-edge `Vec`s — so
//!   every sweep's incidence walk is one linear scan of a contiguous
//!   `u32` slice; see `AdmmIndex` for the layout.
//! * **Parallelism.** Sweeps tile over demand ranges and (entry-balanced)
//!   edge ranges × the full batch, claimed on the shared
//!   [`teal_nn::pool`] worker pool — the same pool the forward pass uses,
//!   so serving never oversubscribes threads. Per-lane dual/primal
//!   residuals fold through commutative atomic maxima, keeping results
//!   bit-identical regardless of tile order and thread count.
//! * **Convergence mask.** Early stopping stays *per matrix*: once a
//!   lane's residual drops below `tol` it is masked out of every later
//!   sweep (its state freezes; its iteration count is recorded), while
//!   unconverged lanes keep iterating — matching exactly what `B`
//!   independent batch-of-one runs would do. Until the *first*
//!   lane freezes the sweeps take an all-lanes-active fast path whose
//!   commit loops carry no mask test at all (branch-free, zip-vectorized);
//!   under the paper's fixed-iteration fine-tuning (`tol = 0`) the masked
//!   variant is never entered.
//! * **Arena reuse (allocation-free steady state).** Every byte of mutable
//!   solver state — the SoA families, tile bounds, per-tile sweep scratch,
//!   residual slots — lives in a caller-owned [`BatchArena`] of grow-only
//!   buffers. A serving loop that keeps one arena (plus its output
//!   `Vec<Allocation>`/`Vec<AdmmReport>`) and rebinds the solver per window
//!   with [`AdmmSkeleton::remint_batch_solver`] performs **zero heap
//!   allocations** from the second window onwards (asserted by
//!   `tests/steady_state_alloc.rs`). See [`BatchArena`] for the ownership
//!   rules: one solve at a time, one arena per thread, safe to carry
//!   across topology changes and weight swaps.

use crate::problem::{Allocation, Objective};
use std::sync::Arc;
use teal_topology::{PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// ADMM hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AdmmConfig {
    /// Penalty coefficient ρ.
    pub rho: f64,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Stop early when the max primal residual drops below this (0 disables
    /// early stopping — the paper's fine-tuning always runs a fixed count).
    pub tol: f64,
    /// Run all update sweeps single-threaded. Used by the Figure-2
    /// concurrent-racing experiment, where each racer must model a *serial*
    /// LP instance on its own thread.
    pub serial: bool,
}

impl AdmmConfig {
    /// The paper's fine-tuning setting: 2 iterations for topologies under
    /// 100 nodes, 5 otherwise (§4).
    pub fn fine_tune(num_nodes: usize) -> Self {
        AdmmConfig {
            rho: 1.0,
            max_iters: if num_nodes < 100 { 2 } else { 5 },
            tol: 0.0,
            serial: false,
        }
    }

    /// The same configuration with a different iteration budget — the
    /// per-window form of the §3.4 quality/latency knob: a scheduler under
    /// deadline pressure re-issues the window's config with a smaller
    /// `max_iters` (the iteration count is already the only loop bound).
    pub fn with_max_iters(self, max_iters: usize) -> Self {
        AdmmConfig { max_iters, ..self }
    }

    /// Solve-to-convergence setting used as the LP-all substitute.
    pub fn to_convergence() -> Self {
        AdmmConfig {
            rho: 1.0,
            max_iters: 4000,
            tol: 1e-5,
            serial: false,
        }
    }
}

/// Iteration report.
#[derive(Clone, Copy, Debug)]
pub struct AdmmReport {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Final max primal (feasibility) residual, normalized units. Infinite
    /// when no iteration ran.
    pub primal_residual: f64,
    /// Final dual residual (ρ · max step size of the F/z blocks): the
    /// stationarity half of the convergence test — the all-zero point has
    /// zero primal residual but a large dual one. Infinite when no
    /// iteration ran.
    pub dual_residual: f64,
}

impl AdmmReport {
    /// The combined convergence residual the `tol` stop tests against:
    /// `max(primal, dual)`.
    pub fn residual(&self) -> f64 {
        self.primal_residual.max(self.dual_residual)
    }
}

/// Immutable path-edge incidence indexing shared by every solver built for
/// one `(topology, path set)` pair. Building it walks every hop of every
/// candidate path, which dominates solver-construction cost — hoisting it
/// behind an `Arc` is what makes per-window solver construction an
/// O(batch × paths) copy instead of an O(nnz) rebuild.
/// The index is a pair of flat CSR-style arenas over the incidence
/// non-zeros, with a permutation between them, and no per-path or per-edge
/// `Vec` allocations:
///
/// * **Entry-id space** is path-major: entries are numbered walking every
///   hop of every candidate path in order, so path `p`'s entries are the
///   contiguous id range `path_start[p]..path_start[p + 1]`.
/// * **Position space** is edge-major: the same non-zeros regrouped so edge
///   `e` owns the contiguous position range `edge_start[e]..edge_start[e +
///   1]` (`pos_path` names each position's path). The solver's `z`/`λ4`
///   live in this order, making its per-edge sweeps linear scans.
/// * `entry_pos` maps entry ids to positions, so the F-update's incidence
///   walk over a path is one linear scan of
///   `entry_pos[path_start[p]..path_start[p + 1]]` — no nested-`Vec`
///   pointer chasing at 1,000-node scale where this walk dominates.
struct AdmmIndex {
    /// Entry-id range of each path: `path_start[p]..path_start[p + 1]`.
    path_start: Vec<usize>,
    /// Position range of each edge: `edge_start[e]..edge_start[e + 1]`.
    edge_start: Vec<usize>,
    /// Path id of each position (edge-major order).
    pos_path: Vec<u32>,
    /// Entry id → edge-major position.
    entry_pos: Vec<u32>,
    /// Largest per-edge entry count (sizes the batched z-update scratch).
    max_edge_entries: usize,
}

impl AdmmIndex {
    /// Build both arenas straight from the path set with two counting
    /// passes — O(nnz), no intermediate `Vec<Vec>` structures.
    fn new(paths: &PathSet, num_edges: usize) -> Self {
        let nnz: usize = paths.paths().iter().map(|p| p.edges.len()).sum();
        let mut entry_path = Vec::with_capacity(nnz);
        let mut entry_edge = Vec::with_capacity(nnz);
        let mut path_start = Vec::with_capacity(paths.num_paths() + 1);
        path_start.push(0);
        for (p, path) in paths.paths().iter().enumerate() {
            for &e in &path.edges {
                entry_path.push(p as u32);
                entry_edge.push(e as u32);
            }
            path_start.push(entry_path.len());
        }

        // Counting sort of entry ids into edge-major positions; ascending
        // ids within each edge, matching the entry-id iteration order.
        let mut edge_start = vec![0usize; num_edges + 1];
        for &e in &entry_edge {
            edge_start[e as usize + 1] += 1;
        }
        for e in 0..num_edges {
            edge_start[e + 1] += edge_start[e];
        }
        let mut cursor = edge_start[..num_edges].to_vec();
        let mut pos_path = vec![0u32; nnz];
        let mut entry_pos = vec![0u32; nnz];
        for (i, &e) in entry_edge.iter().enumerate() {
            let pos = cursor[e as usize];
            cursor[e as usize] += 1;
            pos_path[pos] = entry_path[i];
            entry_pos[i] = pos as u32;
        }
        let max_edge_entries = (0..num_edges)
            .map(|e| edge_start[e + 1] - edge_start[e])
            .max()
            .unwrap_or(0);
        AdmmIndex {
            path_start,
            edge_start,
            pos_path,
            entry_pos,
            max_edge_entries,
        }
    }
}

/// Everything about an ADMM deployment that does *not* depend on the traffic
/// matrix: the incidence index, normalized capacities, and the per-path
/// objective discounts. Build once per `(topology, path set, objective)`
/// and mint a cheap [`AdmmBatchSolver`] per window of traffic matrices with
/// [`AdmmSkeleton::batch_solver`] — the zero-rebuild serving path.
#[derive(Clone)]
pub struct AdmmSkeleton {
    num_demands: usize,
    k: usize,
    num_edges: usize,
    /// Capacity normalizer (1 / mean capacity).
    alpha: f64,
    /// Normalized capacities per edge.
    caps: Arc<Vec<f64>>,
    /// Per-path objective multiplier (1 for `TotalFlow`; latency discount
    /// for `DelayPenalizedFlow`).
    discount: Arc<Vec<f64>>,
    index: Arc<AdmmIndex>,
}

impl AdmmSkeleton {
    /// Build the per-topology solver state under a linear objective
    /// (`TotalFlow` or `DelayPenalizedFlow`; `MinMaxLinkUtil` uses
    /// [`crate::pathlp::solve_mlu`] instead).
    pub fn new(topo: &Topology, paths: &PathSet, obj: Objective) -> Self {
        assert!(
            !matches!(obj, Objective::MinMaxLinkUtil),
            "ADMM handles linear objectives; use solve_mlu for MLU"
        );
        let num_edges = topo.num_edges();
        // Normalize volumes/capacities by the mean capacity so ρ=1 is well
        // conditioned on every topology.
        let mean_cap = topo.total_capacity() / num_edges.max(1) as f64;
        let alpha = if mean_cap > 0.0 { 1.0 / mean_cap } else { 1.0 };
        let caps: Vec<f64> = topo.edges().iter().map(|e| e.capacity * alpha).collect();

        let discount: Vec<f64> = match obj {
            Objective::DelayPenalizedFlow(gamma) => {
                let max_w = paths
                    .paths()
                    .iter()
                    .map(|p| p.weight)
                    .fold(0.0f64, f64::max)
                    .max(1e-12);
                paths
                    .paths()
                    .iter()
                    .map(|p| (1.0 - gamma * p.weight / max_w).max(0.0))
                    .collect()
            }
            _ => vec![1.0; paths.num_paths()],
        };

        AdmmSkeleton {
            num_demands: paths.num_demands(),
            k: paths.k(),
            num_edges,
            alpha,
            caps: Arc::new(caps),
            discount: Arc::new(discount),
            index: Arc::new(AdmmIndex::new(paths, num_edges)),
        }
    }

    /// Rebind to a topology with altered capacities (e.g. failed links
    /// zeroed) while sharing the incidence index and discounts: only the
    /// capacity vector is recomputed, so failure overrides stay cheap.
    pub fn with_topology(&self, topo: &Topology) -> AdmmSkeleton {
        assert_eq!(
            topo.num_edges(),
            self.num_edges,
            "override edge count mismatch"
        );
        let mean_cap = topo.total_capacity() / self.num_edges.max(1) as f64;
        let alpha = if mean_cap > 0.0 { 1.0 / mean_cap } else { 1.0 };
        let caps: Vec<f64> = topo.edges().iter().map(|e| e.capacity * alpha).collect();
        AdmmSkeleton {
            alpha,
            caps: Arc::new(caps),
            ..self.clone()
        }
    }

    /// Mint the batched solver for a whole window of traffic matrices:
    /// per-lane normalized volumes and objective coefficients are laid out
    /// structure-of-arrays (`[entry][lane]`), everything else is shared with
    /// the skeleton. O(batch × paths), no incidence rebuild. Steady-state
    /// servers keep the returned solver and rebind it to each new window
    /// with [`AdmmSkeleton::remint_batch_solver`] instead of minting fresh.
    pub fn batch_solver(&self, tms: &[TrafficMatrix]) -> AdmmBatchSolver {
        let mut solver = AdmmBatchSolver {
            batch: 0,
            num_demands: 0,
            k: 0,
            num_edges: 0,
            vols: Vec::new(),
            caps: Arc::clone(&self.caps),
            vcoef: Vec::new(),
            index: Arc::clone(&self.index),
        };
        self.remint_batch_solver(&mut solver, tms);
        solver
    }

    /// Rebind an existing [`AdmmBatchSolver`] to a new window, reusing its
    /// coefficient buffers (grow-only — allocation-free once the buffers
    /// have reached the largest window shape seen). The solver may have been
    /// minted from a *different* skeleton (another topology, or this one
    /// with failure-overridden capacities): every shared handle is replaced,
    /// so the result is indistinguishable from [`AdmmSkeleton::batch_solver`].
    pub fn remint_batch_solver(&self, solver: &mut AdmmBatchSolver, tms: &[TrafficMatrix]) {
        assert!(!tms.is_empty(), "batch_solver requires at least one matrix");
        let nb = tms.len();
        let k = self.k;
        solver.batch = nb;
        solver.num_demands = self.num_demands;
        solver.k = k;
        solver.num_edges = self.num_edges;
        solver.caps = Arc::clone(&self.caps);
        solver.index = Arc::clone(&self.index);
        solver.vols.clear();
        solver.vols.resize(self.num_demands * nb, 0.0);
        for (b, tm) in tms.iter().enumerate() {
            assert_eq!(tm.len(), self.num_demands, "traffic matrix arity mismatch");
            for (d, v) in tm.demands().iter().enumerate() {
                solver.vols[d * nb + b] = v * self.alpha;
            }
        }
        solver.vcoef.clear();
        solver.vcoef.resize(self.discount.len() * nb, 0.0);
        for (p, disc) in self.discount.iter().enumerate() {
            for b in 0..nb {
                solver.vcoef[p * nb + b] = solver.vols[(p / k) * nb + b] * disc;
            }
        }
    }
}

/// Structure-of-arrays ADMM state for a batch of matrices: each per-matrix
/// array of length `L` becomes `L × batch` with lanes contiguous
/// (`value[i * batch + b]`), and `z`/`l4` use edge-major entry positions
/// (see [`AdmmIndex`]).
struct BatchState {
    f: Vec<f64>,
    z: Vec<f64>,
    s1: Vec<f64>,
    s3: Vec<f64>,
    l1: Vec<f64>,
    l3: Vec<f64>,
    l4: Vec<f64>,
}

impl BatchState {
    fn empty() -> Self {
        BatchState {
            f: Vec::new(),
            z: Vec::new(),
            s1: Vec::new(),
            s3: Vec::new(),
            l1: Vec::new(),
            l3: Vec::new(),
            l4: Vec::new(),
        }
    }

    /// Resize every family to the given window shape and zero it. Buffers
    /// only ever grow, so once the largest window shape has been seen this
    /// performs no heap allocation.
    fn reset_for(&mut self, np: usize, npos: usize, nd: usize, ne: usize, nb: usize) {
        for (buf, len) in [
            (&mut self.f, np * nb),
            (&mut self.z, npos * nb),
            (&mut self.s1, nd * nb),
            (&mut self.s3, ne * nb),
            (&mut self.l1, nd * nb),
            (&mut self.l3, ne * nb),
            (&mut self.l4, npos * nb),
        ] {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
}

/// Reusable scratch for [`AdmmBatchSolver::run_batch_into`]: the SoA
/// `BatchState`, per-lane bookkeeping, tile bounds, per-tile sweep
/// scratch, and the atomic lane-max slots. Every buffer is grow-only, so a
/// server that keeps one arena per dispatch lane reaches an
/// **allocation-free steady state**: from the second window of a given
/// shape onwards, a full fine-tuning run performs zero heap allocations
/// (asserted by `tests/steady_state_alloc.rs`).
///
/// # Lifecycle and ownership
///
/// An arena is plain mutable scratch — it carries no results across
/// windows, only capacity. Exactly one solve may use it at a time (`&mut`
/// enforces this); different threads must use different arenas. It is not
/// tied to any skeleton or topology: reusing one arena across topologies,
/// capacity overrides, or weight swaps is safe and merely re-grows buffers
/// on shape changes.
pub struct BatchArena {
    st: BatchState,
    active: Vec<bool>,
    iterations: Vec<usize>,
    residual: Vec<f64>,
    df: Vec<f64>,
    dz: Vec<f64>,
    primal: Vec<f64>,
    /// Per-lane primal/dual residuals captured at each lane's *last active*
    /// iteration (the sweep buffers above are overwritten every iteration,
    /// including for lanes already frozen by the convergence mask).
    primal_final: Vec<f64>,
    dual_final: Vec<f64>,
    dbounds: Vec<usize>,
    ebounds: Vec<usize>,
    lane_max: Vec<std::sync::atomic::AtomicU64>,
    scratch: Vec<f64>,
    /// Per-tile scratch stride for the current window.
    stride: usize,
}

impl Default for BatchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchArena {
    /// An empty arena; buffers grow to fit the first solve that uses it.
    pub fn new() -> Self {
        BatchArena {
            st: BatchState::empty(),
            active: Vec::new(),
            iterations: Vec::new(),
            residual: Vec::new(),
            df: Vec::new(),
            dz: Vec::new(),
            primal: Vec::new(),
            primal_final: Vec::new(),
            dual_final: Vec::new(),
            dbounds: Vec::new(),
            ebounds: Vec::new(),
            lane_max: Vec::new(),
            scratch: Vec::new(),
            stride: 0,
        }
    }

    /// Size every buffer for one window of `solver` across `threads` tiles.
    fn prepare(&mut self, solver: &AdmmBatchSolver, threads: usize) {
        let nb = solver.batch;
        let np = solver.num_demands * solver.k;
        let npos = solver.index.pos_path.len();
        self.st
            .reset_for(np, npos, solver.num_demands, solver.num_edges, nb);
        self.active.clear();
        self.active.resize(nb, true);
        self.iterations.clear();
        self.iterations.resize(nb, 0);
        self.residual.clear();
        self.residual.resize(nb, f64::INFINITY);
        for buf in [&mut self.primal_final, &mut self.dual_final] {
            buf.clear();
            buf.resize(nb, f64::INFINITY);
        }
        for buf in [&mut self.df, &mut self.dz, &mut self.primal] {
            buf.clear();
            buf.resize(nb, 0.0);
        }
        even_bounds_into(solver.num_demands, threads, &mut self.dbounds);
        edge_bounds_into(&solver.index.edge_start, threads, &mut self.ebounds);
        if self.lane_max.len() < nb {
            self.lane_max
                .resize_with(nb, || std::sync::atomic::AtomicU64::new(0));
        }
        // Per-tile sweep scratch, sized for the widest sweep: the F-update
        // needs (2k + 4)·nb, the z-update (max per-edge entries + 2)·nb,
        // the fused slack/dual pass 2·nb.
        let stride = (2 * solver.k + 4)
            .max(solver.index.max_edge_entries + 2)
            .max(2)
            * nb;
        let tiles = (self.dbounds.len().max(self.ebounds.len()))
            .saturating_sub(1)
            .max(1);
        self.stride = stride;
        self.scratch.clear();
        self.scratch.resize(tiles * stride, 0.0);
    }
}

/// Reset the per-lane atomic maxima to zero before a sweep.
fn lane_reset(slots: &[std::sync::atomic::AtomicU64]) {
    for s in slots {
        s.store(0.0f64.to_bits(), std::sync::atomic::Ordering::Relaxed);
    }
}

/// Fold a tile's local maxima into the shared per-lane slots via
/// compare-and-swap. Max is commutative and associative, so tile execution
/// order never affects the folded value — the batched sweeps stay
/// deterministic under any pool schedule.
fn lane_fold(slots: &[std::sync::atomic::AtomicU64], local: &[f64]) {
    use std::sync::atomic::Ordering;
    for (slot, &v) in slots.iter().zip(local) {
        let mut cur = slot.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match slot.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }
}

/// Read the folded per-lane maxima back out.
fn lane_read(slots: &[std::sync::atomic::AtomicU64], out: &mut [f64]) {
    for (o, s) in out.iter_mut().zip(slots) {
        *o = f64::from_bits(s.load(std::sync::atomic::Ordering::Relaxed));
    }
}

/// Raw view of a mutable buffer whose disjoint regions are written by
/// different pool tiles. SAFETY contract: every region is handed to exactly
/// one tile, regions handed out over one `TileBuf`'s lifetime are pairwise
/// disjoint, and the borrow that produced the view outlives the pool
/// dispatch (which blocks until all tiles finish). A buffer whose regions
/// are legitimately reused across *sequential* dispatches (the fused
/// slack/dual scratch) must be re-viewed with a fresh `TileBuf` per
/// dispatch.
///
/// Checked-unsafe instrumentation: in debug/`teal_check` builds every
/// `slice` call is recorded and checked against all earlier ones; an
/// overlapping or out-of-bounds range panics at the hand-out site instead
/// of corrupting a neighbor tile's lanes.
struct TileBuf {
    ptr: *mut f64,
    #[cfg(any(debug_assertions, teal_check))]
    len: usize,
    /// Ranges handed out so far. A plain std mutex (not a pool
    /// primitive): held only for the duration of the overlap scan, and
    /// tiles call `slice` once per claim, off the lane-arithmetic hot
    /// path.
    #[cfg(any(debug_assertions, teal_check))]
    handed: std::sync::Mutex<HandedRanges>,
}

/// Fixed-capacity log of the `(start, len)` ranges a [`TileBuf`] has
/// handed out. Inline storage, not a `Vec`: the instrumentation is live
/// in debug builds, where the steady-state zero-allocation test still
/// counts every heap allocation — recording a hand-out must not be one.
/// Capacity is tile count, which `even_bounds_into` clamps to the pool
/// thread budget; 128 leaves an order of magnitude of headroom.
#[cfg(any(debug_assertions, teal_check))]
struct HandedRanges {
    ranges: [(usize, usize); HANDED_CAP],
    n: usize,
}

#[cfg(any(debug_assertions, teal_check))]
const HANDED_CAP: usize = 128;

// SAFETY: the pointer itself is plain data; dereferencing it is gated by
// `slice`'s contract (disjoint ranges, borrow alive across the dispatch),
// which is exactly what makes the views safe to create from any thread.
unsafe impl Send for TileBuf {}
// SAFETY: as above — concurrent `slice` calls hand out non-overlapping
// `&mut`s by contract, and the instrumentation list is mutex-guarded.
unsafe impl Sync for TileBuf {}

impl TileBuf {
    fn new(data: &mut [f64]) -> Self {
        TileBuf {
            ptr: data.as_mut_ptr(),
            #[cfg(any(debug_assertions, teal_check))]
            len: data.len(),
            #[cfg(any(debug_assertions, teal_check))]
            handed: std::sync::Mutex::new(HandedRanges {
                ranges: [(0, 0); HANDED_CAP],
                n: 0,
            }),
        }
    }

    /// Record `start..start + len` and panic if it escapes the buffer or
    /// overlaps any range already handed out by this view.
    #[cfg(any(debug_assertions, teal_check))]
    fn check_range(&self, start: usize, len: usize) {
        assert!(
            start + len <= self.len,
            "TileBuf range [{start}; {len}) escapes a buffer of {}",
            self.len
        );
        let mut handed = self
            .handed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for &(s, l) in &handed.ranges[..handed.n] {
            assert!(
                start + len <= s || s + l <= start,
                "TileBuf ranges overlap: [{start}; {len}) vs [{s}; {l}) — \
                 two tiles would alias the same lanes"
            );
        }
        assert!(
            handed.n < HANDED_CAP,
            "TileBuf handed out more than {HANDED_CAP} ranges; bump HANDED_CAP"
        );
        let n = handed.n;
        handed.ranges[n] = (start, len);
        handed.n = n + 1;
    }

    /// SAFETY: `start..start + len` must be claimed by exactly one tile and
    /// be disjoint from every other range sliced from this `TileBuf`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, start: usize, len: usize) -> &mut [f64] {
        #[cfg(any(debug_assertions, teal_check))]
        self.check_range(start, len);
        // SAFETY: in-bounds per the caller contract (and asserted above in
        // checked builds); disjointness makes the `&mut` unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// Execute `job(0..tiles)` — inline when serial (or trivially small),
/// otherwise claimed chunk-by-chunk on the shared `teal-nn` worker pool.
/// The pool's caller-participates protocol makes this safe to invoke from
/// inside other pool jobs and a plain loop on single-CPU machines.
fn par_tiles(tiles: usize, serial: bool, job: &(dyn Fn(usize) + Sync)) {
    if serial || tiles <= 1 {
        for t in 0..tiles {
            job(t);
        }
    } else {
        teal_nn::pool::run(tiles, job);
    }
}

/// Split `0..n` into at most `tiles` contiguous ranges, written as boundary
/// offsets into `out` (reused, grow-only).
fn even_bounds_into(n: usize, tiles: usize, out: &mut Vec<usize>) {
    let tiles = tiles.clamp(1, n.max(1));
    let per = n.div_ceil(tiles);
    out.clear();
    out.extend((0..=tiles).map(|t| (t * per).min(n)));
    out.dedup();
}

/// Split edges into contiguous ranges balanced by incidence-entry count, so
/// hub edges do not serialize a whole tile. Boundaries written into `out`.
fn edge_bounds_into(edge_start: &[usize], tiles: usize, out: &mut Vec<usize>) {
    let num_edges = edge_start.len() - 1;
    let total = *edge_start.last().unwrap_or(&0);
    let tiles = tiles.clamp(1, num_edges.max(1));
    let target = total.div_ceil(tiles).max(1);
    out.clear();
    out.push(0);
    let mut next_cut = target;
    for (e, &start) in edge_start.iter().enumerate().take(num_edges).skip(1) {
        if start >= next_cut {
            out.push(e);
            next_cut = start + target;
        }
    }
    out.push(num_edges);
    out.dedup();
}

/// Batched ADMM solver: repairs a whole window of traffic matrices in
/// **one pass over the shared incidence index per sweep**, instead of
/// re-reading the index once per matrix. Minted by
/// [`AdmmSkeleton::batch_solver`]; see the module docs for the SoA layout,
/// parallel tiling, and per-matrix convergence-mask semantics.
///
/// Produces exactly the allocations, iteration counts, and residuals that
/// `batch` independent per-matrix ADMM runs would (the per-lane arithmetic
/// is the textbook per-matrix iteration, operation for operation) —
/// property-tested to 1e-6 against a serial per-matrix reference in
/// `tests/batch_equivalence.rs`.
pub struct AdmmBatchSolver {
    batch: usize,
    num_demands: usize,
    k: usize,
    num_edges: usize,
    /// Normalized demand volumes, `[demand][lane]`.
    vols: Vec<f64>,
    /// Normalized capacities per edge (shared across lanes).
    caps: Arc<Vec<f64>>,
    /// Normalized per-path objective coefficients, `[path][lane]`.
    vcoef: Vec<f64>,
    /// Shared incidence index.
    index: Arc<AdmmIndex>,
}

impl AdmmBatchSolver {
    /// Number of matrices in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Run ADMM on every lane from its own warm start (each projected onto
    /// the demand constraints first). With
    /// `cfg.tol > 0`, lanes stop independently once their residual clears
    /// the bar (the convergence mask); the rest keep sweeping. Returns the
    /// refined allocations and one report per matrix. One-shot convenience
    /// over [`AdmmBatchSolver::run_batch_into`] with a throwaway arena.
    pub fn run_batch(
        &self,
        inits: &[Allocation],
        cfg: AdmmConfig,
    ) -> (Vec<Allocation>, Vec<AdmmReport>) {
        let mut arena = BatchArena::new();
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        self.run_batch_into(inits, cfg, &mut arena, &mut outs, &mut reports);
        (outs, reports)
    }

    /// Like [`AdmmBatchSolver::run_batch`], but every byte of working state
    /// lives in the caller's [`BatchArena`] and the results land in the
    /// caller's `outs`/`reports` (reused in place when shapes match, else
    /// replaced). With a retained arena and output buffers, the second and
    /// later windows of a steady-state serving loop perform **zero heap
    /// allocations** end to end. Results are identical to
    /// [`AdmmBatchSolver::run_batch`] regardless of what the arena served
    /// before.
    pub fn run_batch_into(
        &self,
        inits: &[Allocation],
        cfg: AdmmConfig,
        arena: &mut BatchArena,
        outs: &mut Vec<Allocation>,
        reports: &mut Vec<AdmmReport>,
    ) {
        assert_eq!(inits.len(), self.batch, "init count != batch size");
        let nb = self.batch;
        let k = self.k;
        let np = self.num_demands * k;
        let npos = self.index.pos_path.len();
        let serial = cfg.serial;
        let threads = if serial {
            1
        } else {
            teal_nn::par::max_threads()
        };
        arena.prepare(self, threads);
        let BatchArena {
            st,
            active,
            iterations,
            residual,
            df,
            dz,
            primal,
            primal_final,
            dual_final,
            dbounds,
            ebounds,
            lane_max,
            scratch,
            stride,
        } = arena;
        let stride = *stride;

        // Warm-start copy plus the per-lane demand projection, done directly
        // in the SoA lanes: same clamp / sum / rescale order as
        // `Allocation::project_demand_constraints`, so the start is bitwise
        // identical to projecting each init and copying it in (without the
        // per-init clone the one-shot path used to mint).
        for (b, init) in inits.iter().enumerate() {
            assert_eq!(init.num_demands(), self.num_demands);
            assert_eq!(init.k(), k);
            for (p, &v) in init.splits().iter().enumerate() {
                st.f[p * nb + b] = v;
            }
        }
        for d in 0..self.num_demands {
            for b in 0..nb {
                let mut sum = 0.0;
                for j in 0..k {
                    let v = &mut st.f[(d * k + j) * nb + b];
                    if !v.is_finite() || *v < 0.0 {
                        *v = 0.0;
                    }
                    sum += *v;
                }
                if sum > 1.0 {
                    for j in 0..k {
                        st.f[(d * k + j) * nb + b] /= sum;
                    }
                }
            }
        }
        // Near-consistent start: z matches the warm-started flows, slacks
        // absorb the residual capacities, so iteration 1 starts close to
        // feasible.
        for pos in 0..npos {
            let p = self.index.pos_path[pos] as usize;
            let d = p / k;
            for b in 0..nb {
                st.z[pos * nb + b] = st.f[p * nb + b] * self.vols[d * nb + b];
            }
        }
        for d in 0..self.num_demands {
            for b in 0..nb {
                let mut sum = 0.0;
                for j in 0..k {
                    sum += st.f[(d * k + j) * nb + b];
                }
                st.s1[d * nb + b] = (1.0 - sum).max(0.0);
            }
        }
        for e in 0..self.num_edges {
            for b in 0..nb {
                let mut sum = 0.0;
                for pos in self.index.edge_start[e]..self.index.edge_start[e + 1] {
                    sum += st.z[pos * nb + b];
                }
                st.s3[e * nb + b] = (self.caps[e] - sum).max(0.0);
            }
        }

        let rho = cfg.rho;
        for _ in 0..cfg.max_iters {
            let live = active.iter().filter(|&&a| a).count();
            if live == 0 {
                break;
            }
            // All-lanes-active fast path: until the first lane freezes
            // (never, under the paper's fixed-iteration fine-tuning), the
            // commit loops run branch-free over every lane — `None` selects
            // the zip-vectorized variant with no mask test per lane.
            let mask: Option<&[bool]> = if live == nb { None } else { Some(active) };
            self.update_f(
                st, mask, rho, serial, dbounds, scratch, stride, lane_max, df,
            );
            self.update_z(
                st, mask, rho, serial, ebounds, scratch, stride, lane_max, dz,
            );
            self.update_slacks_duals(
                st, mask, rho, serial, dbounds, ebounds, scratch, stride, lane_max, primal,
            );
            for b in 0..nb {
                if !active[b] {
                    continue;
                }
                iterations[b] += 1;
                // Two-sided test: feasibility (primal) plus a stationary
                // iterate (dual ~ ρ · step); primal alone is satisfied by
                // the all-zero point.
                primal_final[b] = primal[b];
                dual_final[b] = rho * df[b].max(dz[b]);
                residual[b] = primal_final[b].max(dual_final[b]);
                if cfg.tol > 0.0 && residual[b] < cfg.tol {
                    active[b] = false;
                }
            }
        }

        outs.truncate(nb);
        reports.clear();
        for b in 0..nb {
            if b == outs.len() {
                outs.push(Allocation::zeros(self.num_demands, k));
            } else if outs[b].k() != k || outs[b].splits().len() != np {
                outs[b] = Allocation::zeros(self.num_demands, k);
            }
            let out = &mut outs[b];
            for (p, s) in out.splits_mut().iter_mut().enumerate() {
                *s = st.f[p * nb + b];
            }
            out.project_demand_constraints();
            reports.push(AdmmReport {
                iterations: iterations[b],
                primal_residual: primal_final[b],
                dual_residual: dual_final[b],
            });
        }
    }

    /// Batched per-demand F-update: one walk of each demand's incidence
    /// entries serves every lane. The hot accumulation loops run unmasked
    /// over all lanes (branch-free, zip-vectorized); the convergence mask
    /// is applied only at the commit site — and skipped entirely on the
    /// all-lanes-active fast path (`mask == None`). Writes per-lane max
    /// split change into `out`. All scratch comes from the arena.
    #[allow(clippy::too_many_arguments)]
    fn update_f(
        &self,
        st: &mut BatchState,
        mask: Option<&[bool]>,
        rho: f64,
        serial: bool,
        dbounds: &[usize],
        scratch: &mut [f64],
        stride: usize,
        lane_max: &[std::sync::atomic::AtomicU64],
        out: &mut [f64],
    ) {
        let nb = self.batch;
        let k = self.k;
        lane_reset(lane_max);
        let fbuf = TileBuf::new(&mut st.f);
        let sbuf = TileBuf::new(scratch);
        let (z, s1, l1, l4) = (&st.z, &st.s1, &st.l1, &st.l4);
        let idx = &*self.index;
        par_tiles(dbounds.len() - 1, serial, &|t| {
            let (d0, d1) = (dbounds[t], dbounds[t + 1]);
            // SAFETY: demand tiles are disjoint, so each tile owns its rows.
            let rows = unsafe { fbuf.slice(d0 * k * nb, (d1 - d0) * k * nb) };
            // SAFETY: tile `t` owns scratch positions `t*stride..(t+1)*stride`.
            let tile = unsafe { sbuf.slice(t * stride, stride) };
            let (b, tile) = tile.split_at_mut(k * nb);
            let (diag, tile) = tile.split_at_mut(k * nb);
            let (sum_binv, tile) = tile.split_at_mut(nb);
            let (sum_inv, tile) = tile.split_at_mut(nb);
            let (corr, tile) = tile.split_at_mut(nb);
            let (local, _) = tile.split_at_mut(nb);
            local.fill(0.0);
            for d in d0..d1 {
                let vols_d = &self.vols[d * nb..(d + 1) * nb];
                let s1_d = &s1[d * nb..(d + 1) * nb];
                let l1_d = &l1[d * nb..(d + 1) * nb];
                for j in 0..k {
                    let p = d * k + j;
                    // Path p's entry ids are contiguous; its incidence walk
                    // is one linear scan of the `entry_pos` arena slice.
                    let ents = &idx.entry_pos[idx.path_start[p]..idx.path_start[p + 1]];
                    let bj = &mut b[j * nb..(j + 1) * nb];
                    let vc = &self.vcoef[p * nb..(p + 1) * nb];
                    for (bv, ((&vcv, &l1v), &s1v)) in
                        bj.iter_mut().zip(vc.iter().zip(l1_d).zip(s1_d))
                    {
                        *bv = vcv - l1v - rho * (s1v - 1.0);
                    }
                    for &pos in ents {
                        let pos = pos as usize;
                        let l4p = &l4[pos * nb..(pos + 1) * nb];
                        let zp = &z[pos * nb..(pos + 1) * nb];
                        for (bv, (&vol, (&l4v, &zv))) in
                            bj.iter_mut().zip(vols_d.iter().zip(l4p.iter().zip(zp)))
                        {
                            *bv += -l4v * vol + rho * vol * zv;
                        }
                    }
                    let len = ents.len() as f64;
                    for (dj, &vol) in diag[j * nb..(j + 1) * nb].iter_mut().zip(vols_d) {
                        *dj = rho * vol * vol * len;
                    }
                }
                sum_binv.fill(0.0);
                sum_inv.fill(0.0);
                for j in 0..k {
                    let bj = &b[j * nb..(j + 1) * nb];
                    let dj = &diag[j * nb..(j + 1) * nb];
                    for ((sb, si), (&bv, &dv)) in sum_binv
                        .iter_mut()
                        .zip(sum_inv.iter_mut())
                        .zip(bj.iter().zip(dj))
                    {
                        *sb += bv / dv;
                        *si += 1.0 / dv;
                    }
                }
                // Sherman-Morrison solve of (diag + rho*11^T) x = b.
                for ((cv, &sb), &si) in corr.iter_mut().zip(sum_binv.iter()).zip(sum_inv.iter()) {
                    *cv = rho * sb / (1.0 + rho * si);
                }
                for j in 0..k {
                    let bj = &b[j * nb..(j + 1) * nb];
                    let dj = &diag[j * nb..(j + 1) * nb];
                    let row = &mut rows[((d - d0) * k + j) * nb..((d - d0) * k + j + 1) * nb];
                    match mask {
                        // Fast path: every lane commits, no mask branch.
                        None => {
                            for ((rv, lv), ((&bv, &dv), (&vol, &cv))) in row
                                .iter_mut()
                                .zip(local.iter_mut())
                                .zip(bj.iter().zip(dj).zip(vols_d.iter().zip(&*corr)))
                            {
                                let x = if vol <= 0.0 {
                                    0.0
                                } else {
                                    ((bv - cv) / dv).clamp(0.0, 1.0)
                                };
                                *lv = lv.max((x - *rv).abs());
                                *rv = x;
                            }
                        }
                        Some(active) => {
                            for lane in 0..nb {
                                if !active[lane] {
                                    continue;
                                }
                                let x = if vols_d[lane] <= 0.0 {
                                    0.0
                                } else {
                                    ((bj[lane] - corr[lane]) / dj[lane]).clamp(0.0, 1.0)
                                };
                                local[lane] = local[lane].max((x - row[lane]).abs());
                                row[lane] = x;
                            }
                        }
                    }
                }
            }
            lane_fold(lane_max, local);
        });
        lane_read(lane_max, out);
    }

    /// Batched per-edge z-update. Edge-major storage lets each tile write
    /// its edges' entries in place — no scratch copy of `z`, no atomics.
    /// Writes per-lane max auxiliary change into `out`.
    #[allow(clippy::too_many_arguments)]
    fn update_z(
        &self,
        st: &mut BatchState,
        mask: Option<&[bool]>,
        rho: f64,
        serial: bool,
        ebounds: &[usize],
        scratch: &mut [f64],
        stride: usize,
        lane_max: &[std::sync::atomic::AtomicU64],
        out: &mut [f64],
    ) {
        let nb = self.batch;
        let k = self.k;
        lane_reset(lane_max);
        let zbuf = TileBuf::new(&mut st.z);
        let sbuf = TileBuf::new(scratch);
        let (f, s3, l3, l4) = (&st.f, &st.s3, &st.l3, &st.l4);
        let idx = &*self.index;
        par_tiles(ebounds.len() - 1, serial, &|t| {
            let (e0, e1) = (ebounds[t], ebounds[t + 1]);
            let base = idx.edge_start[e0];
            // SAFETY: edge tiles own disjoint position ranges of `z`.
            let ztile = unsafe { zbuf.slice(base * nb, (idx.edge_start[e1] - base) * nb) };
            // SAFETY: tile `t` owns scratch positions `t*stride..(t+1)*stride`.
            let tile = unsafe { sbuf.slice(t * stride, stride) };
            let (bs, tile) = tile.split_at_mut(idx.max_edge_entries * nb);
            let (corr, tile) = tile.split_at_mut(nb);
            let (local, _) = tile.split_at_mut(nb);
            local.fill(0.0);
            for e in e0..e1 {
                let (q0, q1) = (idx.edge_start[e], idx.edge_start[e + 1]);
                if q0 == q1 {
                    continue;
                }
                let n = (q1 - q0) as f64;
                corr.fill(0.0);
                let caps_e = self.caps[e];
                let s3_e = &s3[e * nb..(e + 1) * nb];
                let l3_e = &l3[e * nb..(e + 1) * nb];
                for (r, pos) in (q0..q1).enumerate() {
                    let p = idx.pos_path[pos] as usize;
                    let vols_d = &self.vols[(p / k) * nb..(p / k + 1) * nb];
                    let fp = &f[p * nb..(p + 1) * nb];
                    let l4p = &l4[pos * nb..(pos + 1) * nb];
                    let row = &mut bs[r * nb..(r + 1) * nb];
                    for ((bv, cv), (((&vol, &fv), &l4v), (&s3v, &l3v))) in row
                        .iter_mut()
                        .zip(corr.iter_mut())
                        .zip(vols_d.iter().zip(fp).zip(l4p).zip(s3_e.iter().zip(l3_e)))
                    {
                        let bval = -l3v - rho * (s3v - caps_e) + l4v + rho * fv * vol;
                        *bv = bval;
                        *cv += bval;
                    }
                }
                for c in corr.iter_mut() {
                    *c = *c / rho / (1.0 + n);
                }
                for (r, pos) in (q0..q1).enumerate() {
                    let row = &bs[r * nb..(r + 1) * nb];
                    let zrow = &mut ztile[(pos - base) * nb..(pos - base + 1) * nb];
                    match mask {
                        // Fast path: every lane commits, no mask branch.
                        None => {
                            for ((zv, lv), (&bv, &cv)) in zrow
                                .iter_mut()
                                .zip(local.iter_mut())
                                .zip(row.iter().zip(&*corr))
                            {
                                let zi = bv / rho - cv;
                                *lv = lv.max((zi - *zv).abs());
                                *zv = zi;
                            }
                        }
                        Some(active) => {
                            for lane in 0..nb {
                                if !active[lane] {
                                    continue;
                                }
                                let zi = row[lane] / rho - corr[lane];
                                local[lane] = local[lane].max((zi - zrow[lane]).abs());
                                zrow[lane] = zi;
                            }
                        }
                    }
                }
            }
            lane_fold(lane_max, local);
        });
        lane_read(lane_max, out);
    }

    /// Fused batched slack projections + dual ascent: one demand-tiled pass
    /// (s1, λ1) and one edge-tiled pass (s3, λ3, λ4 — each edge owns its λ4
    /// positions). The per-subproblem arithmetic is exactly the unfused
    /// slack-then-dual order; fusing is legal because no quantity crosses
    /// subproblems.
    /// Writes per-lane max primal residual into `out`.
    #[allow(clippy::too_many_arguments)]
    fn update_slacks_duals(
        &self,
        st: &mut BatchState,
        mask: Option<&[bool]>,
        rho: f64,
        serial: bool,
        dbounds: &[usize],
        ebounds: &[usize],
        scratch: &mut [f64],
        stride: usize,
        lane_max: &[std::sync::atomic::AtomicU64],
        out: &mut [f64],
    ) {
        let nb = self.batch;
        let k = self.k;
        lane_reset(lane_max);
        let idx = &*self.index;

        {
            // Fresh scratch view per dispatch: the edge pass below reuses
            // the same `t * stride` ranges, which is fine sequentially but
            // must not look like an overlap to one view's checker.
            let sbuf = TileBuf::new(&mut *scratch);
            let s1buf = TileBuf::new(&mut st.s1);
            let l1buf = TileBuf::new(&mut st.l1);
            let f = &st.f;
            par_tiles(dbounds.len() - 1, serial, &|t| {
                let (d0, d1) = (dbounds[t], dbounds[t + 1]);
                // SAFETY: demand tiles own disjoint ranges of s1/l1.
                let s1 = unsafe { s1buf.slice(d0 * nb, (d1 - d0) * nb) };
                let l1 = unsafe { l1buf.slice(d0 * nb, (d1 - d0) * nb) };
                // SAFETY: tile `t` owns its scratch range.
                let tile = unsafe { sbuf.slice(t * stride, stride) };
                let (sum, tile) = tile.split_at_mut(nb);
                let (local, _) = tile.split_at_mut(nb);
                local.fill(0.0);
                for d in d0..d1 {
                    sum.fill(0.0);
                    for j in 0..k {
                        let fr = &f[(d * k + j) * nb..(d * k + j + 1) * nb];
                        for (sv, &fv) in sum.iter_mut().zip(fr) {
                            *sv += fv;
                        }
                    }
                    let s1_d = &mut s1[(d - d0) * nb..(d - d0 + 1) * nb];
                    let l1_d = &mut l1[(d - d0) * nb..(d - d0 + 1) * nb];
                    match mask {
                        // Fast path: every lane commits, no mask branch.
                        None => {
                            for ((sv, lv), (&su, lc)) in s1_d
                                .iter_mut()
                                .zip(l1_d.iter_mut())
                                .zip(sum.iter().zip(local.iter_mut()))
                            {
                                let s = (1.0 - su - *lv / rho).max(0.0);
                                *sv = s;
                                let g = su + s - 1.0;
                                *lv += rho * g;
                                *lc = lc.max(g.abs());
                            }
                        }
                        Some(active) => {
                            for lane in 0..nb {
                                if !active[lane] {
                                    continue;
                                }
                                let s = (1.0 - sum[lane] - l1_d[lane] / rho).max(0.0);
                                s1_d[lane] = s;
                                let g = sum[lane] + s - 1.0;
                                l1_d[lane] += rho * g;
                                local[lane] = local[lane].max(g.abs());
                            }
                        }
                    }
                }
                lane_fold(lane_max, local);
            });
        }

        {
            let sbuf = TileBuf::new(&mut *scratch);
            let s3buf = TileBuf::new(&mut st.s3);
            let l3buf = TileBuf::new(&mut st.l3);
            let l4buf = TileBuf::new(&mut st.l4);
            let (f, z) = (&st.f, &st.z);
            par_tiles(ebounds.len() - 1, serial, &|t| {
                let (e0, e1) = (ebounds[t], ebounds[t + 1]);
                let base = idx.edge_start[e0];
                // SAFETY: edge tiles own disjoint ranges of s3/l3 and (via
                // edge_start) of the edge-major l4 positions.
                let s3 = unsafe { s3buf.slice(e0 * nb, (e1 - e0) * nb) };
                let l3 = unsafe { l3buf.slice(e0 * nb, (e1 - e0) * nb) };
                let l4 = unsafe { l4buf.slice(base * nb, (idx.edge_start[e1] - base) * nb) };
                // SAFETY: tile `t` owns its scratch range (the demand pass
                // above has fully completed before this dispatch starts).
                let tile = unsafe { sbuf.slice(t * stride, stride) };
                let (sum, tile) = tile.split_at_mut(nb);
                let (local, _) = tile.split_at_mut(nb);
                local.fill(0.0);
                for e in e0..e1 {
                    let (q0, q1) = (idx.edge_start[e], idx.edge_start[e + 1]);
                    sum.fill(0.0);
                    for pos in q0..q1 {
                        let zp = &z[pos * nb..(pos + 1) * nb];
                        for (sv, &zv) in sum.iter_mut().zip(zp) {
                            *sv += zv;
                        }
                    }
                    let caps_e = self.caps[e];
                    let s3_e = &mut s3[(e - e0) * nb..(e - e0 + 1) * nb];
                    let l3_e = &mut l3[(e - e0) * nb..(e - e0 + 1) * nb];
                    match mask {
                        // Fast path: every lane commits, no mask branch.
                        None => {
                            for ((sv, lv), (&su, lc)) in s3_e
                                .iter_mut()
                                .zip(l3_e.iter_mut())
                                .zip(sum.iter().zip(local.iter_mut()))
                            {
                                let s = (caps_e - su - *lv / rho).max(0.0);
                                *sv = s;
                                let g = su + s - caps_e;
                                *lv += rho * g;
                                *lc = lc.max(g.abs());
                            }
                        }
                        Some(active) => {
                            for lane in 0..nb {
                                if !active[lane] {
                                    continue;
                                }
                                let s = (caps_e - sum[lane] - l3_e[lane] / rho).max(0.0);
                                s3_e[lane] = s;
                                let g = sum[lane] + s - caps_e;
                                l3_e[lane] += rho * g;
                                local[lane] = local[lane].max(g.abs());
                            }
                        }
                    }
                    for pos in q0..q1 {
                        let p = idx.pos_path[pos] as usize;
                        let vols_d = &self.vols[(p / k) * nb..(p / k + 1) * nb];
                        let fp = &f[p * nb..(p + 1) * nb];
                        let zp = &z[pos * nb..(pos + 1) * nb];
                        let l4p = &mut l4[(pos - base) * nb..(pos - base + 1) * nb];
                        match mask {
                            // Fast path: every lane commits, no mask branch.
                            None => {
                                for ((lv, lc), ((&fv, &vol), &zv)) in l4p
                                    .iter_mut()
                                    .zip(local.iter_mut())
                                    .zip(fp.iter().zip(vols_d).zip(zp))
                                {
                                    let g4 = fv * vol - zv;
                                    *lv += rho * g4;
                                    *lc = lc.max(g4.abs());
                                }
                            }
                            Some(active) => {
                                for lane in 0..nb {
                                    if !active[lane] {
                                        continue;
                                    }
                                    let g4 = fp[lane] * vols_d[lane] - zp[lane];
                                    l4p[lane] += rho * g4;
                                    local[lane] = local[lane].max(g4.abs());
                                }
                            }
                        }
                    }
                }
                lane_fold(lane_max, local);
            });
        }
        lane_read(lane_max, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::evaluate;
    use crate::problem::TeInstance;
    use crate::simplex;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    fn diamond() -> Topology {
        let mut t = Topology::new("d", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.5);
        t.add_link(2, 3, 10.0, 1.5);
        t.add_link(0, 3, 5.0, 4.0);
        t
    }

    /// One-matrix ADMM run: a batch of one through the batched solver.
    fn run_one(inst: &TeInstance, init: &Allocation, cfg: AdmmConfig) -> (Allocation, AdmmReport) {
        let (mut outs, mut reps) = AdmmSkeleton::new(inst.topo, inst.paths, Objective::TotalFlow)
            .batch_solver(std::slice::from_ref(inst.tm))
            .run_batch(std::slice::from_ref(init), cfg);
        (outs.pop().expect("one lane"), reps.pop().expect("one lane"))
    }

    /// Exact optimum of the same LP via simplex, for comparison.
    fn simplex_optimum(inst: &TeInstance) -> f64 {
        let k = inst.k();
        let vc = inst.value_coefficients(Objective::TotalFlow);
        let mut rows = Vec::new();
        for d in 0..inst.num_demands() {
            let coeffs = (0..k).map(|j| (d * k + j, 1.0)).collect();
            rows.push(simplex::Row { coeffs, rhs: 1.0 });
        }
        for e in 0..inst.topo.num_edges() {
            let plist = inst.paths.paths_on_edge(e);
            if plist.is_empty() {
                continue;
            }
            let coeffs = plist
                .iter()
                .map(|&p| (p as usize, inst.tm.demand(p as usize / k)))
                .collect();
            rows.push(simplex::Row {
                coeffs,
                rhs: inst.topo.edge(e).capacity,
            });
        }
        let r = simplex::solve(&vc, &rows, 50_000);
        assert_eq!(r.status, simplex::SimplexStatus::Optimal);
        r.objective
    }

    #[test]
    fn admm_converges_to_lp_optimum_single_demand() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        // Demand exceeds single-path capacity: optimum uses all 25 units of
        // cut capacity.
        let tm = TrafficMatrix::new(vec![30.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, report) = run_one(
            &inst,
            &Allocation::zeros(1, 4),
            AdmmConfig::to_convergence(),
        );
        let stats = evaluate(&inst, &alloc);
        let opt = simplex_optimum(&inst);
        assert!(
            stats.realized_flow > 0.95 * opt,
            "admm {} vs simplex {} (residual {})",
            stats.realized_flow,
            opt,
            report.primal_residual
        );
        assert!(alloc.demand_feasible(1e-6));
    }

    #[test]
    fn admm_matches_simplex_multi_demand() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize), (1usize, 2usize), (3usize, 0usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![12.0, 9.0, 15.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, _) = run_one(
            &inst,
            &Allocation::zeros(3, 4),
            AdmmConfig::to_convergence(),
        );
        let got = evaluate(&inst, &alloc).realized_flow;
        let opt = simplex_optimum(&inst);
        assert!(got > 0.93 * opt, "admm {got} vs simplex {opt}");
    }

    #[test]
    fn few_iterations_reduce_violations_of_bad_start() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![40.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        // Grossly infeasible warm start: everything on every path.
        let bad = Allocation::from_splits(4, vec![1.0, 1.0, 1.0, 1.0]);
        let mut bad_proj = bad.clone();
        bad_proj.project_demand_constraints();
        let before = evaluate(&inst, &bad_proj).total_overuse;
        let (tuned, _) = run_one(
            &inst,
            &bad,
            AdmmConfig {
                rho: 1.0,
                max_iters: 5,
                tol: 0.0,
                serial: false,
            },
        );
        let after = evaluate(&inst, &tuned).total_overuse;
        assert!(after < before, "overuse before {before}, after {after}");
    }

    #[test]
    fn warm_start_speeds_convergence() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize), (1usize, 2usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![18.0, 6.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        // Near-optimal warm start.
        let (near_opt, _) = run_one(
            &inst,
            &Allocation::zeros(2, 4),
            AdmmConfig::to_convergence(),
        );
        let opt_flow = evaluate(&inst, &near_opt).realized_flow;
        let cfg5 = AdmmConfig {
            rho: 1.0,
            max_iters: 5,
            tol: 0.0,
            serial: false,
        };
        let (from_warm, _) = run_one(&inst, &near_opt, cfg5);
        let warm_flow = evaluate(&inst, &from_warm).realized_flow;
        // Five fine-tuning iterations on a near-optimal warm start must
        // preserve near-optimality (the property §3.4 relies on).
        assert!(
            warm_flow >= 0.90 * opt_flow,
            "warm 5-iter flow {warm_flow} degraded from optimum {opt_flow}"
        );
    }

    #[test]
    fn batch_lanes_match_batch_of_one_runs() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize), (1usize, 2usize), (3usize, 0usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
        let tms = [
            TrafficMatrix::new(vec![12.0, 9.0, 15.0]),
            TrafficMatrix::new(vec![1.0, 0.0, 30.0]),
            TrafficMatrix::new(vec![0.0, 0.0, 0.0]),
        ];
        let inits = [
            Allocation::shortest_path(3, 4),
            Allocation::zeros(3, 4),
            Allocation::from_splits(4, vec![1.0; 12]),
        ];
        // tol > 0 exercises the convergence mask: lanes stop independently.
        let cfg = AdmmConfig {
            rho: 1.0,
            max_iters: 200,
            tol: 1e-4,
            serial: false,
        };
        let (outs, reps) = skel.batch_solver(&tms).run_batch(&inits, cfg);
        for b in 0..tms.len() {
            let inst = TeInstance::new(&topo, &paths, &tms[b]);
            let (want, wrep) = run_one(&inst, &inits[b], cfg);
            assert_eq!(
                reps[b].iterations, wrep.iterations,
                "lane {b} iteration count diverged"
            );
            for (x, y) in outs[b].splits().iter().zip(want.splits()) {
                assert!(
                    (x - y).abs() <= 1e-9,
                    "lane {b}: batch of 3 {x} vs batch of one {y}"
                );
            }
        }
    }

    #[test]
    fn zero_demand_yields_zero_allocation() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![0.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, _) = run_one(
            &inst,
            &Allocation::shortest_path(1, 4),
            AdmmConfig::to_convergence(),
        );
        assert!(alloc.splits().iter().all(|&v| v == 0.0));
    }
}

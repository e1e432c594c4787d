//! Property tests: [`AdmmBatchSolver`] ≡ a per-matrix reference ADMM to
//! 1e-6.
//!
//! The batched sweep is a layout/parallelism transformation — no ADMM
//! quantity couples two matrices — so every lane of a batched run must
//! reproduce what a plain per-matrix solver would produce on its matrix:
//! same splits, same iteration counts under early stopping (the
//! convergence mask), on random topologies, heterogeneous demand volumes,
//! both linear objectives, and failure-modified (zero-capacity) capacity
//! vectors. In the spirit of the commutativity-rule line of work, the two
//! paths commute by construction and that equivalence is machine-checked
//! here.
//!
//! The reference ([`reference_run`]) is Appendix C's iteration written the
//! obvious way: one matrix, serial, path-major `z`/`λ4`, per-edge entry
//! lists. It is built only from the public `TeInstance`/`PathSet`, so it
//! shares no index, layout or tiling code with the solver under test.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_lp::{
    AdmmBatchSolver, AdmmConfig, AdmmReport, AdmmSkeleton, Allocation, BatchArena, Objective,
    TeInstance,
};
use teal_topology::{gravity_pairs, large_wan, PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// The batch sizes the issue calls out: singleton, tiny, odd, and a full
/// serving window.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 16];

/// Per-matrix ADMM state (path-major `z`/`l4`).
struct State {
    f: Vec<f64>,
    z: Vec<f64>,
    s1: Vec<f64>,
    s3: Vec<f64>,
    l1: Vec<f64>,
    l3: Vec<f64>,
    l4: Vec<f64>,
}

/// Serial per-matrix reference solver for one instance.
struct Reference {
    num_demands: usize,
    k: usize,
    num_edges: usize,
    /// Normalized demand volumes.
    vols: Vec<f64>,
    /// Normalized capacities.
    caps: Vec<f64>,
    /// Normalized per-path objective coefficients.
    vcoef: Vec<f64>,
    /// Owning path of each incidence entry (path-major entry order).
    entry_path: Vec<u32>,
    /// Entry range of each path.
    path_start: Vec<usize>,
    /// Entries crossing each edge, ascending.
    edge_entries: Vec<Vec<u32>>,
}

impl Reference {
    fn new(inst: &TeInstance, obj: Objective) -> Self {
        let (topo, paths) = (inst.topo, inst.paths);
        let num_edges = topo.num_edges();
        // Volumes and capacities normalized by the mean capacity.
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
        let k = paths.k();
        let vols: Vec<f64> = inst.tm.demands().iter().map(|v| v * alpha).collect();
        let vcoef: Vec<f64> = discount
            .iter()
            .enumerate()
            .map(|(p, disc)| vols[p / k] * disc)
            .collect();
        let mut entry_path = Vec::new();
        let mut path_start = vec![0];
        let mut edge_entries = vec![Vec::new(); num_edges];
        for (p, path) in paths.paths().iter().enumerate() {
            for &e in &path.edges {
                edge_entries[e].push(entry_path.len() as u32);
                entry_path.push(p as u32);
            }
            path_start.push(entry_path.len());
        }
        Reference {
            num_demands: paths.num_demands(),
            k,
            num_edges,
            vols,
            caps,
            vcoef,
            entry_path,
            path_start,
            edge_entries,
        }
    }

    fn run(&self, init: &Allocation, cfg: AdmmConfig) -> (Allocation, AdmmReport) {
        let mut warm = init.clone();
        warm.project_demand_constraints();
        let nnz = self.entry_path.len();
        let mut st = State {
            f: warm.splits().to_vec(),
            z: vec![0.0; nnz],
            s1: vec![0.0; self.num_demands],
            s3: vec![0.0; self.num_edges],
            l1: vec![0.0; self.num_demands],
            l3: vec![0.0; self.num_edges],
            l4: vec![0.0; nnz],
        };
        // z matches the warm-started flows, slacks the residual capacities.
        for (i, &p) in self.entry_path.iter().enumerate() {
            st.z[i] = st.f[p as usize] * self.vols[p as usize / self.k];
        }
        for d in 0..self.num_demands {
            let sum: f64 = st.f[d * self.k..(d + 1) * self.k].iter().sum();
            st.s1[d] = (1.0 - sum).max(0.0);
        }
        for e in 0..self.num_edges {
            let sum: f64 = self.edge_entries[e].iter().map(|&i| st.z[i as usize]).sum();
            st.s3[e] = (self.caps[e] - sum).max(0.0);
        }

        let rho = cfg.rho;
        let mut iterations = 0;
        let mut last_primal = f64::INFINITY;
        let mut last_dual = f64::INFINITY;
        for _ in 0..cfg.max_iters {
            let df = self.update_f(&mut st, rho);
            let dz = self.update_z(&mut st, rho);
            self.update_slacks(&mut st, rho);
            let primal = self.dual_ascent(&mut st, rho);
            last_primal = primal;
            last_dual = rho * df.max(dz);
            iterations += 1;
            if cfg.tol > 0.0 && last_primal.max(last_dual) < cfg.tol {
                break;
            }
        }

        let mut out = Allocation::from_splits(self.k, st.f);
        out.project_demand_constraints();
        (
            out,
            AdmmReport {
                iterations,
                primal_residual: last_primal,
                dual_residual: last_dual,
            },
        )
    }

    /// Per-demand F-update (Sherman-Morrison); returns the max split change.
    fn update_f(&self, st: &mut State, rho: f64) -> f64 {
        let k = self.k;
        let prev = st.f.clone();
        for (d, row) in st.f.chunks_mut(k).enumerate() {
            let vol = self.vols[d];
            if vol <= 0.0 {
                row.iter_mut().for_each(|v| *v = 0.0);
                continue;
            }
            let mut b = [0.0f64; 16];
            let mut diag = [0.0f64; 16];
            for (j, bj) in b.iter_mut().enumerate().take(k) {
                let p = d * k + j;
                let mut acc = self.vcoef[p] - st.l1[d] - rho * (st.s1[d] - 1.0);
                let (i0, i1) = (self.path_start[p], self.path_start[p + 1]);
                for i in i0..i1 {
                    acc += -st.l4[i] * vol + rho * vol * st.z[i];
                }
                *bj = acc;
                diag[j] = rho * vol * vol * (i1 - i0) as f64;
            }
            // Sherman-Morrison solve of (diag + rho*11^T) x = b.
            let mut sum_binv = 0.0;
            let mut sum_inv = 0.0;
            for j in 0..k {
                sum_binv += b[j] / diag[j];
                sum_inv += 1.0 / diag[j];
            }
            let corr = rho * sum_binv / (1.0 + rho * sum_inv);
            for (j, r) in row.iter_mut().enumerate() {
                let x = (b[j] - corr) / diag[j];
                *r = x.clamp(0.0, 1.0);
            }
        }
        prev.iter()
            .zip(&st.f)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Per-edge z-update (Sherman-Morrison); returns the max `z` change.
    fn update_z(&self, st: &mut State, rho: f64) -> f64 {
        let k = self.k;
        let mut new_z = st.z.clone();
        let mut bs: Vec<f64> = Vec::new();
        for e in 0..self.num_edges {
            let ents = &self.edge_entries[e];
            if ents.is_empty() {
                continue;
            }
            let n = ents.len() as f64;
            let mut sum_b = 0.0;
            bs.clear();
            for &i in ents {
                let i = i as usize;
                let p = self.entry_path[i] as usize;
                let vol = self.vols[p / k];
                let b =
                    -st.l3[e] - rho * (st.s3[e] - self.caps[e]) + st.l4[i] + rho * st.f[p] * vol;
                bs.push(b);
                sum_b += b;
            }
            let corr = sum_b / rho / (1.0 + n);
            for (&i, b) in ents.iter().zip(&bs) {
                new_z[i as usize] = b / rho - corr;
            }
        }
        let dz =
            st.z.iter()
                .zip(&new_z)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
        st.z = new_z;
        dz
    }

    /// Closed-form non-negative slack updates.
    fn update_slacks(&self, st: &mut State, rho: f64) {
        let k = self.k;
        for d in 0..self.num_demands {
            let sum: f64 = st.f[d * k..(d + 1) * k].iter().sum();
            st.s1[d] = (1.0 - sum - st.l1[d] / rho).max(0.0);
        }
        for e in 0..self.num_edges {
            let sum: f64 = self.edge_entries[e].iter().map(|&i| st.z[i as usize]).sum();
            st.s3[e] = (self.caps[e] - sum - st.l3[e] / rho).max(0.0);
        }
    }

    /// Dual ascent; returns the max primal residual.
    fn dual_ascent(&self, st: &mut State, rho: f64) -> f64 {
        let k = self.k;
        let mut resid = 0.0f64;
        for d in 0..self.num_demands {
            let g = st.f[d * k..(d + 1) * k].iter().sum::<f64>() + st.s1[d] - 1.0;
            st.l1[d] += rho * g;
            resid = resid.max(g.abs());
        }
        for e in 0..self.num_edges {
            let sum: f64 = self.edge_entries[e].iter().map(|&i| st.z[i as usize]).sum();
            let g = sum + st.s3[e] - self.caps[e];
            st.l3[e] += rho * g;
            resid = resid.max(g.abs());
        }
        for (i, &p) in self.entry_path.iter().enumerate() {
            let g = st.f[p as usize] * self.vols[p as usize / k] - st.z[i];
            st.l4[i] += rho * g;
            resid = resid.max(g.abs());
        }
        resid
    }
}

/// Per-matrix reference run of one instance from `init`.
fn reference_run(
    inst: &TeInstance,
    obj: Objective,
    init: &Allocation,
    cfg: AdmmConfig,
) -> (Allocation, AdmmReport) {
    Reference::new(inst, obj).run(init, cfg)
}

/// Random connected topology: a ring (guarantees strong connectivity) plus
/// random chords, with heterogeneous capacities.
fn random_topology(n: usize, extra_links: usize, rng: &mut StdRng) -> Topology {
    let mut t = Topology::new("rand", n);
    for a in 0..n {
        let b = (a + 1) % n;
        t.add_link(a, b, rng.gen_range(5.0..60.0), rng.gen_range(1.0..3.0));
    }
    for _ in 0..extra_links {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !t.has_link(a, b) {
            t.add_link(a, b, rng.gen_range(5.0..60.0), rng.gen_range(1.0..3.0));
        }
    }
    t
}

/// A random problem: topology, candidate paths for a sampled demand set,
/// and the objective under test.
fn random_problem(seed: u64, obj: Objective) -> (Topology, PathSet, AdmmSkeleton, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..9);
    let topo = random_topology(n, rng.gen_range(0..2 * n), &mut rng);
    let mut pairs = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.gen_range(0.0..1.0) < 0.35 {
                pairs.push((a, b));
            }
        }
    }
    if pairs.is_empty() {
        pairs.push((0, n / 2 + 1));
    }
    pairs.truncate(10);
    let k = rng.gen_range(2..5);
    let paths = PathSet::compute(&topo, &pairs, k);
    let skel = AdmmSkeleton::new(&topo, &paths, obj);
    let nd = paths.num_demands();
    (topo, paths, skel, nd, k)
}

/// Heterogeneous traffic window: volumes span zero, light, and saturating,
/// so lanes behave differently (and converge at different iterations).
fn random_window(nb: usize, nd: usize, rng: &mut StdRng) -> Vec<TrafficMatrix> {
    (0..nb)
        .map(|_| {
            TrafficMatrix::new(
                (0..nd)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.15 {
                            0.0
                        } else {
                            rng.gen_range(0.1..80.0)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Random (pre-projection) warm starts, like a raw model output.
fn random_inits(nb: usize, nd: usize, k: usize, rng: &mut StdRng) -> Vec<Allocation> {
    (0..nb)
        .map(|_| Allocation::from_splits(k, (0..nd * k).map(|_| rng.gen_range(0.0..1.2)).collect()))
        .collect()
}

/// Core assertion: one batched run of `skel` ≡ `nb` reference runs on
/// `(topo, paths, obj)`, splits to 1e-6 and identical iteration counts
/// (exercised by tol > 0 configs).
fn assert_batch_matches(
    skel: &AdmmSkeleton,
    (topo, paths, obj): (&Topology, &PathSet, Objective),
    tms: &[TrafficMatrix],
    inits: &[Allocation],
    cfg: AdmmConfig,
) -> Result<(), String> {
    let (outs, reps) = skel.batch_solver(tms).run_batch(inits, cfg);
    for (b, tm) in tms.iter().enumerate() {
        let inst = TeInstance::new(topo, paths, tm);
        let (want, wrep) = reference_run(&inst, obj, &inits[b], cfg);
        prop_assert_eq!(
            reps[b].iterations,
            wrep.iterations,
            "lane {} iterations: batched {} vs reference {}",
            b,
            reps[b].iterations,
            wrep.iterations
        );
        for (p, (x, y)) in outs[b].splits().iter().zip(want.splits()).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-6,
                "lane {} split {}: batched {} vs reference {}",
                b,
                p,
                x,
                y
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Paper fine-tuning setting (fixed 2–5 iterations, no early stop),
    /// TotalFlow, all four batch sizes.
    #[test]
    fn fine_tune_total_flow_matches(seed in 0u64..1_000_000, iters in 2usize..6) {
        let obj = Objective::TotalFlow;
        let (topo, paths, skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
        let cfg = AdmmConfig { rho: 1.0, max_iters: iters, tol: 0.0, serial: false };
        for &nb in &BATCH_SIZES {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_batch_matches(&skel, (&topo, &paths, obj), &tms, &inits, cfg)?;
        }
    }

    /// Delay-penalized objective: per-path discounts flow through vcoef; the
    /// batched lanes must see exactly the same discounted coefficients.
    #[test]
    fn fine_tune_delay_penalized_matches(seed in 0u64..1_000_000, gamma in 0.05f64..0.9) {
        let obj = Objective::DelayPenalizedFlow(gamma);
        let (topo, paths, skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xde1a);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 4, tol: 0.0, serial: false };
        for &nb in &BATCH_SIZES {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_batch_matches(&skel, (&topo, &paths, obj), &tms, &inits, cfg)?;
        }
    }

    /// Early stopping: tol > 0 makes lanes drop out of the sweeps at
    /// different iterations — the convergence mask must freeze each lane
    /// exactly where its own reference run would stop.
    #[test]
    fn convergence_mask_matches_early_stopping(seed in 0u64..1_000_000) {
        let obj = Objective::TotalFlow;
        let (topo, paths, skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70f1);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 300, tol: 1e-4, serial: false };
        for &nb in &[2usize, 7] {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_batch_matches(&skel, (&topo, &paths, obj), &tms, &inits, cfg)?;
        }
    }

    /// Failure topologies (§5.3): random links zeroed through
    /// `AdmmSkeleton::with_topology` — the batched path must track the
    /// reference on the degraded capacity vector too.
    #[test]
    fn failed_links_match(seed in 0u64..1_000_000, fail_frac in 0.05f64..0.4) {
        let obj = Objective::TotalFlow;
        let (topo, paths, skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11);
        let failed: Vec<usize> = (0..topo.num_edges())
            .filter(|_| rng.gen_range(0.0..1.0) < fail_frac)
            .collect();
        let degraded = topo.with_failed_edges(&failed);
        let skel = skel.with_topology(&degraded);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 5, tol: 0.0, serial: false };
        for &nb in &[1usize, 7] {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_batch_matches(&skel, (&degraded, &paths, obj), &tms, &inits, cfg)?;
        }
    }

    /// Arena reuse across windows: one retained [`BatchArena`] + solver +
    /// output buffers serving a sequence of windows (batch sizes shrink and
    /// grow, and the skeleton's capacity vector is swapped mid-sequence —
    /// the lp-level analog of a serving hot swap) must produce *bitwise*
    /// what a fresh `run_batch` produces for each window. Nothing may leak
    /// from one window's state into the next through the arena.
    #[test]
    fn arena_reuse_across_windows_matches_fresh(seed in 0u64..1_000_000) {
        let (topo, _paths, skel, nd, k) = random_problem(seed, Objective::TotalFlow);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa12e);
        // tol > 0 so the convergence mask (and its all-lanes fast path
        // hand-off) is exercised across reused buffers.
        let cfg = AdmmConfig { rho: 1.0, max_iters: 60, tol: 1e-4, serial: false };
        let degraded = topo.with_failed_edges(&[0]);
        let swapped = skel.with_topology(&degraded);
        let mut arena = BatchArena::new();
        let mut outs = Vec::new();
        let mut reports = Vec::new();
        let mut solver: Option<AdmmBatchSolver> = None;
        for (w, &nb) in [3usize, 7, 1, 7, 4].iter().enumerate() {
            // Swap to the degraded capacities from window 2 on; the arena
            // and output buffers carry over untouched.
            let skel_w = if w >= 2 { &swapped } else { &skel };
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            match solver.as_mut() {
                Some(s) => skel_w.remint_batch_solver(s, &tms),
                None => solver = Some(skel_w.batch_solver(&tms)),
            }
            solver.as_ref().expect("minted").run_batch_into(
                &inits, cfg, &mut arena, &mut outs, &mut reports,
            );
            let (fresh_outs, fresh_reps) = skel_w.batch_solver(&tms).run_batch(&inits, cfg);
            prop_assert_eq!(outs.len(), nb);
            for b in 0..nb {
                prop_assert_eq!(
                    reports[b].iterations, fresh_reps[b].iterations,
                    "window {} lane {}: reused-arena iterations diverged", w, b
                );
                for (p, (x, y)) in outs[b].splits().iter().zip(fresh_outs[b].splits()).enumerate() {
                    prop_assert!(
                        x == y,
                        "window {} lane {} split {}: reused {} vs fresh {}",
                        w, b, p, x, y
                    );
                }
            }
        }
    }

    /// Generated large-WAN instances: the flat path/edge index arena built
    /// from scale-free topologies (hub edges carry hundreds of paths, so
    /// per-edge entry runs are long and uneven) must preserve batched ≡
    /// reference equivalence just like the small ring instances.
    #[test]
    fn large_wan_batch_matches(seed in 0u64..1_000_000, n in 64usize..128) {
        let topo = large_wan(n, seed);
        let pairs = gravity_pairs(&topo, 2 * n, seed ^ 0x1a2);
        let paths = PathSet::compute(&topo, &pairs, 3);
        let obj = Objective::TotalFlow;
        let skel = AdmmSkeleton::new(&topo, &paths, obj);
        let (nd, k) = (paths.num_demands(), paths.k());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a3);
        let cfg = AdmmConfig { rho: 1.0, max_iters: 3, tol: 0.0, serial: false };
        for &nb in &[1usize, 4] {
            let tms = random_window(nb, nd, &mut rng);
            let inits = random_inits(nb, nd, k, &mut rng);
            assert_batch_matches(&skel, (&topo, &paths, obj), &tms, &inits, cfg)?;
        }
    }

    /// The serial flag must not change results, only scheduling — and a
    /// serial batched run must still match the reference.
    #[test]
    fn serial_and_parallel_batched_agree(seed in 0u64..1_000_000) {
        let obj = Objective::TotalFlow;
        let (topo, paths, skel, nd, k) = random_problem(seed, obj);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1a);
        let tms = random_window(7, nd, &mut rng);
        let inits = random_inits(7, nd, k, &mut rng);
        let par = AdmmConfig { rho: 1.0, max_iters: 50, tol: 1e-4, serial: false };
        let ser = AdmmConfig { serial: true, ..par };
        let (outs_p, reps_p) = skel.batch_solver(&tms).run_batch(&inits, par);
        let (outs_s, reps_s) = skel.batch_solver(&tms).run_batch(&inits, ser);
        for b in 0..tms.len() {
            prop_assert_eq!(reps_p[b].iterations, reps_s[b].iterations);
            for (x, y) in outs_p[b].splits().iter().zip(outs_s[b].splits()) {
                prop_assert!((x - y).abs() <= 1e-12,
                    "serial/parallel batched runs diverged: {} vs {}", x, y);
            }
        }
        assert_batch_matches(&skel, (&topo, &paths, obj), &tms, &inits, par)?;
    }
}

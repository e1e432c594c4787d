//! Criterion bench: ADMM iteration cost of [`teal_lp::AdmmBatchSolver`] —
//! one matrix at 2/5 iterations (fine-tuning, §3.4) up to 100 (towards the
//! solve-to-convergence LP-all substitute), the iteration-count ablation
//! DESIGN.md calls out, and the serving-window cost of fine-tuning a whole
//! window in one batched sweep.
//!
//! The per-matrix-loop baseline arm (`admm_fine_tune_window/looped/*`) was
//! retired with the per-matrix solver; its last records stay in
//! `BENCH_admm.json` as history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teal_lp::{AdmmConfig, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

fn instance(cap: usize) -> (teal_topology::Topology, PathSet, TrafficMatrix) {
    let topo = generate(TopoKind::Swan, 0.5, 42);
    let mut pairs = topo.all_pairs();
    pairs.truncate(cap);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 42);
    model.calibrate(&topo, &paths);
    let tm = model.series(0, 1).remove(0);
    (topo, paths, tm)
}

fn bench_admm(c: &mut Criterion) {
    let (topo, paths, tm) = instance(1200);
    // A batch of one: the one-shot form every single-matrix caller uses.
    let solver = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow)
        .batch_solver(std::slice::from_ref(&tm));
    let init = [Allocation::shortest_path(tm.len(), 4)];
    let mut group = c.benchmark_group("admm");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for iters in [2usize, 5, 20, 100] {
        group.bench_with_input(BenchmarkId::new("iters", iters), &iters, |b, &n| {
            let cfg = AdmmConfig {
                rho: 1.0,
                max_iters: n,
                tol: 0.0,
                serial: false,
            };
            b.iter(|| solver.run_batch(&init, cfg))
        });
    }
    group.finish();
}

/// Serving-window fine-tuning: the batched sweep repairs the whole window
/// in one pass over the incidence index per iteration, 5 iterations (the
/// ≥100-node fine-tune count), in the serving steady state (solver
/// reminted and arena reused across windows).
fn bench_fine_tune_window(c: &mut Criterion) {
    let topo = generate(TopoKind::Swan, 0.5, 42);
    let mut pairs = topo.all_pairs();
    pairs.truncate(1200);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 42);
    model.calibrate(&topo, &paths);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    let cfg = AdmmConfig {
        rho: 1.0,
        max_iters: 5,
        tol: 0.0,
        serial: false,
    };
    let mut group = c.benchmark_group("admm_fine_tune_window");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for window in [4usize, 16] {
        let tms: Vec<TrafficMatrix> = model.series(0, window);
        let inits: Vec<Allocation> = tms
            .iter()
            .map(|tm| Allocation::shortest_path(tm.len(), 4))
            .collect();
        group.bench_with_input(BenchmarkId::new("batched", window), &window, |b, _| {
            // The serving steady state: solver reminted and arena reused
            // across windows, so iterations past the first allocate nothing
            // on the ADMM hot path.
            let mut solver = skel.batch_solver(&tms);
            let mut arena = BatchArena::new();
            let mut outs = Vec::new();
            let mut reports = Vec::new();
            b.iter(|| {
                skel.remint_batch_solver(&mut solver, &tms);
                solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
                outs.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_admm, bench_fine_tune_window);
criterion_main!(benches);

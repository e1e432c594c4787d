//! Criterion bench: multi-matrix allocation throughput on B4 — one window
//! through the batched serving path (`ServingContext::allocate_batch`: one
//! set of matrix products + one batched ADMM sweep) versus a loop of
//! windows of one (`ServingContext::allocate`). `batched` must beat
//! `sequential_loop` on the same matrices.
//!
//! Run with `CRITERION_JSON_PATH=BENCH_throughput.json` to persist the
//! results the CI workflow publishes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_topology::b4;
use teal_traffic::{TrafficConfig, TrafficModel};

/// Matrices per throughput measurement.
const BATCH: usize = 16;

fn setup() -> (Arc<Env>, Vec<teal_traffic::TrafficMatrix>) {
    let env = Arc::new(Env::for_topology(b4()));
    let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 7);
    traffic.calibrate(env.topo(), env.paths());
    let tms = traffic.series(0, BATCH);
    (env, tms)
}

fn bench_throughput(c: &mut Criterion) {
    let (env, tms) = setup();
    let label = format!("B4x{BATCH}");
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // Full pipeline: forward pass + warm-started ADMM fine-tuning.
    let engine = ServingContext::new(
        TealModel::new(Arc::clone(&env), TealConfig::default()),
        EngineConfig::paper_default(env.topo().num_nodes()),
    );
    group.bench_with_input(BenchmarkId::new("sequential_loop", &label), &(), |b, _| {
        b.iter(|| {
            let mut out = Vec::with_capacity(tms.len());
            for tm in &tms {
                out.push(engine.allocate(tm).0);
            }
            out
        })
    });
    group.bench_with_input(BenchmarkId::new("batched", &label), &(), |b, _| {
        b.iter(|| engine.allocate_batch(&tms).0)
    });

    // Model-only (no ADMM): isolates the batched-matmul effect.
    let model_only = ServingContext::new(
        TealModel::new(Arc::clone(&env), TealConfig::default()),
        EngineConfig::without_admm(teal_lp::Objective::TotalFlow),
    );
    group.bench_with_input(
        BenchmarkId::new("model_only_sequential", &label),
        &(),
        |b, _| {
            b.iter(|| {
                let mut out = Vec::with_capacity(tms.len());
                for tm in &tms {
                    out.push(model_only.allocate(tm).0);
                }
                out
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("model_only_batched", &label),
        &(),
        |b, _| b.iter(|| model_only.allocate_batch(&tms).0),
    );
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);

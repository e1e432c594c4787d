//! Criterion bench: large-WAN scale envelope. Generated scale-free
//! topologies ([`large_wan`]) at 256 / 512 / 1,024 nodes with
//! gravity-sampled demand pairs, measuring the three costs that matter at
//! scale:
//!
//! * `precompute_paths` — the once-per-topology KSP precompute (amortized
//!   over the serving lifetime, but paid again on every topology change),
//!   at 256 nodes / 512 pairs and 1,024 nodes / 2,048 pairs;
//! * `forward_only` — one batched FlowGNN forward window, exercising the
//!   cache-blocked incidence SpMM;
//! * `window` — the headline: one full serving window (forward + batched
//!   warm-started ADMM over the flat incidence arena). The acceptance bar
//!   for the scale PR: `window/LargeWAN-1024x8` mean under one second.
//!
//! Run with `CRITERION_JSON_PATH=BENCH_scale.json` to persist the results
//! the CI workflow publishes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_topology::{gravity_pairs, large_wan, PathSet};
use teal_traffic::{TrafficConfig, TrafficModel};

/// Traffic matrices per serving window.
const WINDOW: usize = 8;
/// Generator / traffic seed (fixed: the bench compares kernels, not seeds).
const SEED: u64 = 7;

fn setup(n: usize) -> (Arc<Env>, Vec<teal_traffic::TrafficMatrix>) {
    let topo = large_wan(n, SEED);
    let pairs = gravity_pairs(&topo, 2 * n, SEED ^ 1);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut traffic = TrafficModel::new(&pairs, TrafficConfig::default(), SEED);
    let env = Arc::new(Env::new(topo, paths));
    traffic.calibrate(env.topo(), env.paths());
    let tms = traffic.series(0, WINDOW);
    (env, tms)
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    // Once-per-topology path precompute (bounded Yen's KSP), at the
    // smallest size and at the 1,024-node headline size with 2 pairs/node.
    for &(n, pairs) in &[(256usize, 512usize), (1024, 2048)] {
        let topo = large_wan(n, SEED);
        let pairs = gravity_pairs(&topo, pairs, SEED ^ 1);
        group.bench_with_input(
            BenchmarkId::new(
                "precompute_paths",
                format!("LargeWAN-{n}x{}pairs", pairs.len()),
            ),
            &(),
            |b, _| b.iter(|| PathSet::compute(&topo, &pairs, 4)),
        );
    }

    for &n in &[256usize, 512, 1024] {
        let (env, tms) = setup(n);
        let label = format!("LargeWAN-{n}x{WINDOW}");

        let model_only = ServingContext::new(
            TealModel::new(Arc::clone(&env), TealConfig::default()),
            EngineConfig::without_admm(teal_lp::Objective::TotalFlow),
        );
        group.bench_with_input(BenchmarkId::new("forward_only", &label), &(), |b, _| {
            b.iter(|| model_only.allocate_batch(&tms).0)
        });

        let engine = ServingContext::new(
            TealModel::new(Arc::clone(&env), TealConfig::default()),
            EngineConfig::paper_default(env.topo().num_nodes()),
        );
        group.bench_with_input(BenchmarkId::new("window", &label), &(), |b, _| {
            b.iter(|| engine.allocate_batch(&tms).0)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);

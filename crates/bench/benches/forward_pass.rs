//! Criterion bench: Teal's forward pass (FlowGNN + policy network) and the
//! full engine pipeline — the per-interval cost behind Figures 6a/7a.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use teal_core::{EngineConfig, Env, PolicyModel, ServingContext, TealConfig, TealModel};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::{TrafficConfig, TrafficModel};

fn setup(
    kind: TopoKind,
    scale: f64,
    max_demands: usize,
) -> (Arc<Env>, teal_traffic::TrafficMatrix) {
    let topo = generate(kind, scale, 42);
    let mut pairs = topo.all_pairs();
    pairs.truncate(max_demands);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 42);
    model.calibrate(&topo, &paths);
    let tm = model.series(0, 1).remove(0);
    (Arc::new(Env::new(topo, paths)), tm)
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_pass");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, kind, scale, cap) in [
        ("B4", TopoKind::B4, 1.0, usize::MAX),
        ("SWAN-x0.5", TopoKind::Swan, 0.5, 1200),
        ("Kdl-x0.1", TopoKind::Kdl, 0.1, 1200),
    ] {
        let (env, tm) = setup(kind, scale, cap);
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let input = env.model_input(&tm, None);
        group.bench_with_input(BenchmarkId::new("model_only", label), &(), |b, _| {
            b.iter(|| model.allocate_deterministic(&input))
        });
        let engine = ServingContext::new(
            model.clone(),
            EngineConfig::paper_default(env.topo().num_nodes()),
        );
        group.bench_with_input(BenchmarkId::new("engine_with_admm", label), &(), |b, _| {
            b.iter(|| engine.allocate(&tm))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);

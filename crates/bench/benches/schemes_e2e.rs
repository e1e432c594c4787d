//! Criterion bench: end-to-end per-matrix allocation cost of every scheme on
//! a SWAN-scale testbed — the microbenchmark behind Figure 6a.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_lp::Objective;
use teal_sim::{
    FleischerScheme, LpAllScheme, LpTopScheme, NcflowScheme, PopScheme, Scheme, TealScheme,
};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::{TrafficConfig, TrafficModel};

fn bench_schemes(c: &mut Criterion) {
    let topo = generate(TopoKind::Swan, 0.4, 42);
    let mut pairs = topo.all_pairs();
    pairs.truncate(800);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 42);
    model.calibrate(&topo, &paths);
    let tm = model.series(0, 1).remove(0);
    let env = Arc::new(Env::new(topo, paths));

    let teal_model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let engine = ServingContext::new(
        teal_model,
        EngineConfig::paper_default(env.topo().num_nodes()),
    );
    let mut schemes: Vec<Box<dyn Scheme>> = vec![
        Box::new(TealScheme::new(engine)),
        Box::new(LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow)),
        Box::new(LpTopScheme::new(Arc::clone(&env), Objective::TotalFlow)),
        Box::new(NcflowScheme::new(Arc::clone(&env), Objective::TotalFlow)),
        Box::new(PopScheme::new(Arc::clone(&env), Objective::TotalFlow)),
        Box::new(FleischerScheme::new(Arc::clone(&env))),
    ];
    let mut group = c.benchmark_group("schemes_e2e_swan");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for s in &mut schemes {
        let name = s.name().to_string();
        group.bench_function(&name, |b| b.iter(|| s.allocate(env.topo(), &tm)));
    }
    group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);

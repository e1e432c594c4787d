//! Set-up: build each topology's serving context, start a `ServeDaemon`
//! and a `TealServer` on loopback, and connect the benchmark's clients.

use crate::report::{median, ms};
use std::sync::Arc;
use std::time::Instant;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, TealClient, TealServer};
use teal_topology::{PathSet, Topology};
use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

/// Candidate paths per demand (the paper's k).
pub const K: usize = 4;

/// Seed of the deployment: the generated topologies, their demand pairs
/// and the gravity model of their traffic. The deployment is the same in
/// every run; the run's `--seed` picks the traffic (see
/// [`traffic_series`]) and the request stream. A per-run topology would
/// swing satisfied demand by tens of points from seed to seed and hide
/// any change a code change makes to it.
pub const DEPLOYMENT_SEED: u64 = 7;

/// Days of traffic each run samples its matrices from.
const DAYS: usize = 4;

/// `len` traffic matrices of the deployment's traffic model for `env`'s
/// demand pairs (model `stream` of the deployment), spread evenly over
/// `DAYS` consecutive days from an interval picked by `seed`. Each run sees
/// whole diurnal cycles, so runs differ in day-to-day noise, not in the
/// hours they sample.
pub fn traffic_series(env: &Env, stream: u64, seed: u64, len: usize) -> Vec<TrafficMatrix> {
    let cfg = TrafficConfig::default();
    let day = cfg.diurnal_period;
    let mut traffic = TrafficModel::new(env.paths().pairs(), cfg, DEPLOYMENT_SEED ^ stream);
    traffic.calibrate(env.topo(), env.paths());
    // `series` replays the noise process from interval 0, so its cost grows
    // with the start: keep the start below 2^13 intervals (~28 days).
    let first = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 51) as usize;
    let span = DAYS * day;
    let mut out = Vec::with_capacity(len);
    // One day in memory at a time: input generation must not set the
    // process's peak RSS.
    for d in 0..DAYS {
        let series = traffic.series(first + d * day, day);
        out.extend(
            (0..len)
                .map(|i| i * span / len)
                .filter(|t| t / day == d)
                .map(|t| series[t % day].clone()),
        );
    }
    out
}

/// A topology to serve and the demand pairs it carries (input generation
/// happens before set-up starts).
pub struct TopoSpec {
    pub id: &'static str,
    pub topo: Topology,
    pub pairs: Vec<(usize, usize)>,
    pub model: TealConfig,
}

/// One registered topology, as the daemon serves it.
pub struct Served {
    pub id: &'static str,
    pub env: Arc<Env>,
    /// The daemon's own context for this topology (shared, not copied).
    pub ctx: Arc<ServingContext<TealModel>>,
}

/// A running server plus the benchmark's connections to it. Fields drop in
/// order: clients disconnect before the server shuts down.
pub struct Deployment {
    pub clients: Vec<TealClient>,
    pub server: TealServer<TealModel>,
    pub served: Vec<Served>,
}

impl Deployment {
    pub fn daemon(&self) -> &ServeDaemon<TealModel> {
        self.server.daemon()
    }
}

/// Set-up timings: seconds per repetition, and `PathSet::compute` ms per
/// topology per repetition.
pub struct SetupTimes {
    pub setup_s: Vec<f64>,
    pub paths_ms: Vec<f64>,
}

impl SetupTimes {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// Build and start the deployment `reps` times, from path computation to
/// every client's handshake being answered; keep the last one. Each
/// repetition starts from the raw topologies, so the median set-up time
/// covers everything a fresh process pays.
pub fn deploy(specs: &[TopoSpec], conns: usize, reps: usize) -> (Deployment, SetupTimes) {
    let mut times = SetupTimes {
        setup_s: Vec::new(),
        paths_ms: Vec::new(),
    };
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let registry = ModelRegistry::new();
        for spec in specs {
            let tp = Instant::now();
            let paths = PathSet::compute(&spec.topo, &spec.pairs, K);
            times.paths_ms.push(ms(tp.elapsed()));
            let env = Arc::new(Env::new(spec.topo.clone(), paths));
            let model = TealModel::new(Arc::clone(&env), spec.model);
            let cfg = EngineConfig::paper_default(env.topo().num_nodes());
            registry.insert(spec.id, ServingContext::new(model, cfg));
        }
        let daemon = Arc::new(ServeDaemon::start(registry, ServeConfig::default()));
        let server = TealServer::bind(daemon, "127.0.0.1:0").expect("bind a loopback port");
        let clients: Vec<TealClient> = (0..conns)
            .map(|_| TealClient::connect(server.local_addr()).expect("connect to the server"))
            .collect();
        times.setup_s.push(t0.elapsed().as_secs_f64());
        let served = specs
            .iter()
            .map(|spec| {
                let ctx = server
                    .daemon()
                    .registry()
                    .get(spec.id)
                    .expect("topology registered above");
                Served {
                    id: spec.id,
                    env: Arc::clone(ctx.env()),
                    ctx,
                }
            })
            .collect();
        last = Some(Deployment {
            clients,
            server,
            served,
        });
    }
    (last.expect("at least one set-up repetition"), times)
}

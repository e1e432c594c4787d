//! Per-layer timing for the traced run, measured in process from the
//! benchmark's own files by calling each module's public functions:
//!
//! * `core`/`lp`: each replayed window is served whole through
//!   `ServingContext::try_allocate_batch_with` (`_on_with` for failure
//!   windows), twice layer by layer (`Env::batch_input`,
//!   `PolicyModel::allocate_batch`, `AdmmSkeleton::with_topology`,
//!   `remint_batch_solver`, `AdmmBatchSolver::run_batch_into`,
//!   `Allocation::project_demand_constraints`), then whole again. The
//!   layer-by-layer result must equal the whole-window one, and the layer
//!   times must add up to the window time (`core.layer_sum_ratio`).
//! * `wire`: the public codec functions and `FrameDecoder` over the run's
//!   own requests and replies.
//! * `serve`: `TealClient::stats` and `TelemetrySnapshot::to_prometheus`.

use crate::check::{dead_paths, max_split_diff, REFERENCE_EPS};
use crate::deploy::Served;
use crate::report::{mean, median, ms, us, Metrics};
use crate::trace::Spans;
use std::time::{Duration, Instant};
use teal_core::{BatchScratch, PolicyModel};
use teal_lp::{AdmmBatchSolver, AdmmSkeleton, Allocation, BatchArena};
use teal_serve::{wire, ServeReply, SubmitRequest, TealClient};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// Matrices per forward pass inside one window. Mirrors the sub-batch
/// `ServingContext` uses; if the two drift apart the layer sum stops
/// matching the window and `core.layer_sum_ratio` shows it.
const SUB_BATCH: usize = 4;

/// One window to replay: a slice of matrices for one served topology,
/// optionally on a failure-overridden topology.
pub struct Window<'a> {
    pub served: &'a Served,
    pub tms: Vec<TrafficMatrix>,
    pub failed: Option<Topology>,
}

/// Replay state kept per served topology, like a dispatch lane keeps it.
struct Lane {
    scratch: BatchScratch,
    skeleton: AdmmSkeleton,
    solver: Option<AdmmBatchSolver>,
    arena: BatchArena,
    outs: Vec<Allocation>,
    reports: Vec<teal_lp::AdmmReport>,
}

#[derive(Default)]
struct LayerTotals {
    /// Whole-window runs (each replayed window runs twice each way).
    runs: usize,
    window: f64,
    input: f64,
    forward: f64,
    passes: usize,
    matrices: usize,
    override_skeleton: Vec<f64>,
    remint: f64,
    admm: f64,
    admm_lane_iters: u64,
    project: f64,
    primal_max: f64,
    max_diff: f64,
    /// Per window: layer times over the whole-window time.
    ratios: Vec<f64>,
}

/// Span keys of replayed windows start here, clear of request and window
/// keys.
const REPLAY_KEYS: u64 = 1 << 40;
/// Telemetry scrapes and Prometheus renderings timed when the load took
/// none.
const SCRAPES: usize = 20;

/// Replay `windows` round-robin for at least `budget` (one untimed warm-up
/// pass first, then at least one timed pass) and report the `core.*` and
/// `lp.*` metrics. When no window carries a failure, a single-link failure
/// picked by `seed` is timed through `AdmmSkeleton::with_topology` instead,
/// so `lp.override_skeleton_ms` is reported on every workload.
pub fn replay(
    windows: &[Window],
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut lanes: Vec<(&str, Lane)> = Vec::new();
    let mut totals = LayerTotals::default();
    let start = Instant::now();
    let mut key = REPLAY_KEYS;
    for pass in 0.. {
        if pass > 1 && start.elapsed() >= budget {
            break;
        }
        for w in windows {
            let lane = match lanes.iter().position(|(id, _)| *id == w.served.id) {
                Some(p) => &mut lanes[p].1,
                None => {
                    let env = w.served.env.as_ref();
                    let objective = w.served.ctx.config().objective;
                    lanes.push((
                        w.served.id,
                        Lane {
                            scratch: BatchScratch::new(),
                            skeleton: AdmmSkeleton::new(env.topo(), env.paths(), objective),
                            solver: None,
                            arena: BatchArena::new(),
                            outs: Vec::new(),
                            reports: Vec::new(),
                        },
                    ));
                    &mut lanes.last_mut().expect("just pushed").1
                }
            };
            let mut t = LayerTotals::default();
            let mut local = Spans::new(spans.on());
            // Whole, by layer, by layer, whole: the ratio of the sums cancels
            // a linear drift in the machine's speed across the four runs.
            let reference = whole_window(w, lane, key, &mut t, &mut local)?;
            by_layer(w, lane, key + 1, &mut t, &mut local)?;
            by_layer(w, lane, key + 2, &mut t, &mut local)?;
            whole_window(w, lane, key + 3, &mut t, &mut local)?;
            for (a, b) in lane.outs.iter().zip(&reference) {
                t.max_diff = t.max_diff.max(max_split_diff(a, b));
            }
            if t.max_diff > REFERENCE_EPS {
                return Err(format!(
                    "layer-by-layer replay of {} differs from the served window by {}",
                    w.served.id, t.max_diff
                ));
            }
            if pass > 0 {
                totals.add(&t);
                spans.extend(local);
            }
            key += 4;
        }
    }
    let mut probe = Vec::new();
    if totals.override_skeleton.is_empty() {
        let topo = windows[0].served.env.topo();
        let e = topo.edge((seed as usize).wrapping_mul(2_654_435_761) % topo.num_edges());
        let failed = topo.with_failed_link(e.src, e.dst);
        let skeleton = &lanes
            .first()
            .expect("at least one window replayed")
            .1
            .skeleton;
        for _ in 0..16 {
            let t0 = Instant::now();
            std::hint::black_box(skeleton.with_topology(&failed));
            probe.push(ms(t0.elapsed()));
        }
    }
    totals.report(&probe, m);
    Ok(())
}

fn whole_window(
    w: &Window,
    lane: &mut Lane,
    key: u64,
    t: &mut LayerTotals,
    spans: &mut Spans,
) -> Result<Vec<Allocation>, String> {
    let t0 = Instant::now();
    let result = match &w.failed {
        None => w
            .served
            .ctx
            .try_allocate_batch_with(&w.tms, &mut lane.scratch),
        Some(topo) => w
            .served
            .ctx
            .try_allocate_batch_on_with(topo, &w.tms, &mut lane.scratch),
    };
    let t1 = Instant::now();
    spans.record("core.window", key, 0, None, t0, t1);
    t.window += ms(t1 - t0);
    t.runs += 1;
    let (allocs, _) = result.map_err(|e| format!("in-process window failed: {e}"))?;
    Ok(allocs)
}

fn by_layer(
    w: &Window,
    lane: &mut Lane,
    key: u64,
    t: &mut LayerTotals,
    spans: &mut Spans,
) -> Result<(), String> {
    let env = w.served.env.as_ref();
    let ctx = &w.served.ctx;
    let admm_cfg = ctx
        .config()
        .admm
        .ok_or("replayed topology serves without ADMM")?;
    let p0 = Instant::now();
    let mut raw = Vec::with_capacity(w.tms.len());
    let mut slot = 2;
    for chunk in w.tms.chunks(SUB_BATCH) {
        let a = Instant::now();
        let input = env.batch_input(chunk, w.failed.as_ref());
        let b = Instant::now();
        raw.extend(ctx.model().allocate_batch(&input));
        let c = Instant::now();
        spans.record("core.input", key, slot, Some(1), a, b);
        spans.record("core.forward", key, slot + 1, Some(1), b, c);
        slot += 2;
        t.input += ms(b - a);
        t.forward += ms(c - b);
        t.passes += 1;
        t.matrices += chunk.len();
    }
    let overridden;
    let skeleton = match &w.failed {
        Some(topo) => {
            let a = Instant::now();
            overridden = lane.skeleton.with_topology(topo);
            let b = Instant::now();
            spans.record("lp.override_skeleton", key, slot, Some(1), a, b);
            t.override_skeleton.push(ms(b - a));
            &overridden
        }
        None => &lane.skeleton,
    };
    let a = Instant::now();
    match lane.solver.as_mut() {
        Some(solver) => skeleton.remint_batch_solver(solver, &w.tms),
        None => lane.solver = Some(skeleton.batch_solver(&w.tms)),
    }
    let b = Instant::now();
    let solver = lane.solver.as_ref().expect("minted above");
    solver.run_batch_into(
        &raw,
        admm_cfg,
        &mut lane.arena,
        &mut lane.outs,
        &mut lane.reports,
    );
    let c = Instant::now();
    let dead = w.failed.as_ref().map(|topo| dead_paths(env, topo));
    for alloc in &mut lane.outs {
        alloc.project_demand_constraints();
        for &p in dead.iter().flatten() {
            alloc.splits_mut()[p] = 0.0;
        }
    }
    let d = Instant::now();
    spans.record("lp.remint", key, slot + 1, Some(1), a, b);
    spans.record("lp.admm", key, slot + 2, Some(1), b, c);
    spans.record("lp.project", key, slot + 3, Some(1), c, d);
    spans.record("core.pipeline", key, 1, None, p0, d);
    t.remint += ms(b - a);
    t.admm += ms(c - b);
    t.project += ms(d - c);
    for r in &lane.reports {
        t.admm_lane_iters += r.iterations as u64;
        t.primal_max = t.primal_max.max(r.primal_residual);
    }
    Ok(())
}

impl LayerTotals {
    fn add(&mut self, t: &LayerTotals) {
        self.runs += t.runs;
        self.window += t.window;
        self.input += t.input;
        self.forward += t.forward;
        self.passes += t.passes;
        self.matrices += t.matrices;
        self.override_skeleton.extend(&t.override_skeleton);
        self.remint += t.remint;
        self.admm += t.admm;
        self.admm_lane_iters += t.admm_lane_iters;
        self.project += t.project;
        self.primal_max = self.primal_max.max(t.primal_max);
        self.max_diff = self.max_diff.max(t.max_diff);
        let layers = t.input
            + t.forward
            + t.override_skeleton.iter().sum::<f64>()
            + t.remint
            + t.admm
            + t.project;
        self.ratios.push(layers / t.window);
    }

    /// `probe` holds the override timings taken outside any window; they
    /// stand in for `lp.override_skeleton_ms` when no window had a failure.
    fn report(&self, probe: &[f64], m: &mut Metrics) {
        let n = self.runs;
        let per = |x: f64| x / n as f64;
        let overrides = if self.override_skeleton.is_empty() {
            probe
        } else {
            &self.override_skeleton
        };
        m.put("core.input_ms", per(self.input), "ms", n);
        m.put("core.forward_ms", per(self.forward), "ms", n);
        m.put(
            "core.tms_per_pass",
            self.matrices as f64 / self.passes as f64,
            "matrices",
            self.passes,
        );
        m.put("core.window_ms", per(self.window), "ms", n);
        // The median window: one preempted window on a shared machine must
        // not skew the check.
        m.put("core.layer_sum_ratio", median(&self.ratios), "ratio", n);
        m.put("lp.remint_ms", per(self.remint), "ms", n);
        m.put(
            "lp.override_skeleton_ms",
            mean(overrides),
            "ms",
            overrides.len(),
        );
        m.put("lp.admm_ms", per(self.admm), "ms", n);
        m.put(
            "lp.admm_iters",
            self.admm_lane_iters as f64 / n as f64,
            "count",
            n,
        );
        m.put(
            "lp.admm_us_per_lane_iter",
            self.admm * 1e3 / self.admm_lane_iters as f64,
            "us",
            n,
        );
        m.put("lp.primal_residual_max", self.primal_max, "residual", n);
        m.put("lp.project_ms", per(self.project), "ms", n);
        m.put("core.replay_max_diff", self.max_diff, "split", n);
    }
}

/// Time the public codec functions and `FrameDecoder` over the run's own
/// requests and replies, checking that each decodes back to what was
/// encoded.
pub fn codec(
    reqs: &[&SubmitRequest],
    replies: &[ServeReply],
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    if reqs.is_empty() || replies.is_empty() {
        return Err("codec timing needs at least one request and one reply".into());
    }
    // Enough repetitions that each timed loop runs well above the clock's
    // resolution even for B4-sized frames.
    const REPS: usize = 20;
    let mut buf = Vec::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();

    let t0 = Instant::now();
    for _ in 0..REPS {
        for (id, r) in reqs.iter().enumerate() {
            wire::encode_request(&mut buf, id as u64, r);
            std::hint::black_box(&buf);
        }
    }
    let encode_req = us(t0.elapsed()) / (REPS * reqs.len()) as f64;
    let req_payloads: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(id, r)| {
            wire::encode_request(&mut buf, id as u64, r);
            buf.clone()
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..REPS {
        for p in &req_payloads {
            std::hint::black_box(wire::decode_request(p).map_err(|e| e.to_string())?);
        }
    }
    let decode_req = us(t0.elapsed()) / (REPS * reqs.len()) as f64;
    for (id, (p, r)) in req_payloads.iter().zip(reqs).enumerate() {
        let (got_id, got) = wire::decode_request(p).map_err(|e| e.to_string())?;
        if got_id != id as u64 || got != **r {
            return Err(format!(
                "request {id} does not survive an encode/decode round trip"
            ));
        }
    }

    let replies: Vec<Result<ServeReply, teal_serve::ServeError>> =
        replies.iter().cloned().map(Ok).collect();
    let t0 = Instant::now();
    for _ in 0..REPS {
        for (id, r) in replies.iter().enumerate() {
            wire::encode_reply(&mut buf, id as u64, r);
            std::hint::black_box(&buf);
        }
    }
    let encode_rep = us(t0.elapsed()) / (REPS * replies.len()) as f64;
    let rep_payloads: Vec<Vec<u8>> = replies
        .iter()
        .enumerate()
        .map(|(id, r)| {
            wire::encode_reply(&mut buf, id as u64, r);
            buf.clone()
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..REPS {
        for p in &rep_payloads {
            drop(std::hint::black_box(
                wire::decode_reply(p).map_err(|e| e.to_string())?,
            ));
        }
    }
    let decode_rep = us(t0.elapsed()) / (REPS * replies.len()) as f64;
    for (id, (p, r)) in rep_payloads.iter().zip(&replies).enumerate() {
        let (got_id, got) = wire::decode_reply(p).map_err(|e| e.to_string())?;
        if got_id != id as u64 || got != *r {
            return Err(format!(
                "reply {id} does not survive an encode/decode round trip"
            ));
        }
    }

    // One byte stream of every frame, cut at seeded points (including
    // inside length prefixes), fed through the incremental decoder.
    frames.extend(req_payloads.iter().cloned());
    frames.extend(rep_payloads.iter().cloned());
    let mut stream = Vec::new();
    for f in &frames {
        wire::write_frame(&mut stream, f).map_err(|e| e.to_string())?;
    }
    let mut cuts = Vec::new();
    let mut x = seed | 1;
    let mut at = 0usize;
    while at < stream.len() {
        // xorshift: cheap, seeded, and independent of the workload RNG.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        at += 1 + (x % 4096) as usize;
        cuts.push(at.min(stream.len()));
    }
    let mut decoded = 0usize;
    let t0 = Instant::now();
    for rep in 0..REPS {
        let mut dec = wire::FrameDecoder::new();
        let mut from = 0;
        for &to in &cuts {
            dec.feed(&stream[from..to]).map_err(|e| e.to_string())?;
            from = to;
            while let Some(frame) = dec.next_frame().map_err(|e| e.to_string())? {
                if rep == 0 && frame != frames[decoded].as_slice() {
                    return Err(format!("frame {decoded} decoded wrong after a split"));
                }
                decoded += 1;
            }
        }
    }
    let frame_decode = us(t0.elapsed()) / decoded as f64;
    if decoded != REPS * frames.len() {
        return Err(format!(
            "{decoded} frames decoded, {} sent",
            REPS * frames.len()
        ));
    }

    let bytes = |ps: &[Vec<u8>]| ps.iter().map(Vec::len).sum::<usize>() as f64 / ps.len() as f64;
    m.put("wire.request_bytes", bytes(&req_payloads), "B", reqs.len());
    m.put("wire.reply_bytes", bytes(&rep_payloads), "B", replies.len());
    m.put("wire.encode_request_us", encode_req, "us", reqs.len());
    m.put("wire.decode_request_us", decode_req, "us", reqs.len());
    m.put("wire.encode_reply_us", encode_rep, "us", replies.len());
    m.put("wire.decode_reply_us", decode_rep, "us", replies.len());
    m.put("wire.frame_decode_us", frame_decode, "us", frames.len());
    Ok(())
}

/// `serve.stats_ms_*` from scrape times taken under load, or from
/// `SCRAPES` fresh scrapes when none were taken, plus the cost of
/// rendering the last snapshot as Prometheus text.
pub fn telemetry(
    client: &TealClient,
    mut stats_ms: Vec<f64>,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut snap = client
        .stats()
        .map_err(|e| format!("stats scrape failed: {e}"))?;
    if stats_ms.is_empty() {
        for _ in 0..SCRAPES {
            let t0 = Instant::now();
            snap = client
                .stats()
                .map_err(|e| format!("stats scrape failed: {e}"))?;
            stats_ms.push(ms(t0.elapsed()));
        }
    }
    m.put_percentiles("serve.stats_ms", &stats_ms, 99, "ms");
    let mut render = Vec::new();
    for _ in 0..SCRAPES {
        let t0 = Instant::now();
        let text = snap.to_prometheus();
        render.push(ms(t0.elapsed()));
        if text.is_empty() {
            return Err("empty Prometheus rendering".into());
        }
    }
    m.put("serve.prometheus_ms", mean(&render), "ms", render.len());
    Ok(())
}

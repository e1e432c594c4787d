//! `solve_1024`: the paper's headline regime. One 1,024-node WAN, each TE
//! window of 8 traffic matrices sent as one pipelined burst on one
//! connection, closed loop (the next burst goes once the last reply of
//! the previous one is in).

use crate::check::{self, check_allocation, max_split_diff, Quality, REFERENCE_EPS};
use crate::deploy::{deploy, traffic_series, Deployment, TopoSpec, DEPLOYMENT_SEED};
use crate::layers::{self, Window};
use crate::load::{daemon_counters, serve_metrics, Sample, REPLY_TIMEOUT, REQUEST_SLOTS};
use crate::report::{median, ms, quantile, Json, Metrics};
use crate::trace::Spans;
use crate::{Args, Outcome};
use std::time::{Duration, Instant};
use teal_core::TealConfig;
use teal_lp::Allocation;
use teal_serve::SubmitRequest;
use teal_topology::{gravity_pairs, large_wan};

const NODES: usize = 1024;
/// Traffic matrices per TE window.
const WINDOW: usize = 8;
/// Distinct windows generated per run; the closed loop cycles through them.
const POOL: usize = 8;
/// Fewest windows a run measures, so p90 has ten windows beyond it.
const MIN_WINDOWS: usize = 100;
const SETUP_REPS: usize = 3;
const TOPOLOGY: &str = "wan1024";
/// Untraced/traced segment pairs of the traced run.
const TRACE_SEGMENTS: usize = 4;
/// Windows the in-process layer replay cycles through (fewer than `POOL`,
/// so its time budget buys several timed passes).
const REPLAY_WINDOWS: usize = 4;

struct Inputs {
    /// `POOL` windows of `WINDOW` prebuilt requests each.
    windows: Vec<Vec<SubmitRequest>>,
    /// In-process allocations of each window, to check wire replies against.
    expected: Vec<Vec<Allocation>>,
}

/// Results of one closed-loop phase.
#[derive(Default)]
struct Phase {
    window_ms: Vec<f64>,
    samples: Vec<Sample>,
    replies: Vec<teal_serve::ServeReply>,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        valid: true,
        ..Outcome::default()
    };
    let topo = large_wan(NODES, DEPLOYMENT_SEED);
    let pairs = gravity_pairs(&topo, 2 * NODES, DEPLOYMENT_SEED ^ 1);
    let spec = TopoSpec {
        id: TOPOLOGY,
        topo,
        pairs,
        model: TealConfig::default(),
    };
    let (dep, setup) = deploy(&[spec], 1, SETUP_REPS);
    let inputs = make_inputs(&dep, args.seed);
    let mut quality = Quality::default();

    // Warm-up: the shard spawns and its arenas grow on the first windows.
    closed_loop(
        &dep,
        &inputs,
        2,
        Duration::ZERO,
        None,
        &mut quality,
        &mut out,
    );
    let mut m = Metrics::default();
    if !args.trace {
        let p = closed_loop(
            &dep,
            &inputs,
            MIN_WINDOWS,
            args.budget(1.0),
            None,
            &mut quality,
            &mut out,
        );
        let lat = &p.window_ms;
        m.put("setup_s", setup.setup_s(), "s", setup.setup_s.len());
        m.put("latency_ms_p50", median(lat), "ms", lat.len());
        m.put("latency_ms_p90", quantile(lat, 0.9), "ms", lat.len());
        let tms_per_s = (WINDOW * lat.len()) as f64 / (lat.iter().sum::<f64>() / 1e3);
        m.put("capacity_tms_per_s", tms_per_s, "1/s", lat.len());
        m.put(
            "satisfied_demand_pct",
            quality.satisfied_pct(),
            "%",
            quality.count(),
        );
        m.put(
            "link_overuse_pct",
            quality.overuse_pct(),
            "%",
            quality.count(),
        );
        // The same figures under this workload's own names.
        m.put_percentiles("window_ms", lat, 90, "ms");
        m.put("tms_per_s", tms_per_s, "1/s", lat.len());
        let req: Vec<f64> = p.samples.iter().map(Sample::due_latency_ms).collect();
        m.put_percentiles("req_ms", &req, 99, "ms");
    } else {
        traced(
            args,
            &dep,
            &inputs,
            &setup.paths_ms,
            &mut quality,
            &mut m,
            &mut out,
        );
    }
    out.metrics = m;
    out.notes
        .push(("windows_per_burst", Json::Num(WINDOW as f64)));
    out
}

fn make_inputs(dep: &Deployment, seed: u64) -> Inputs {
    let served = &dep.served[0];
    let tms = traffic_series(&served.env, 2, seed, POOL * WINDOW);
    let mut windows = Vec::new();
    let mut expected = Vec::new();
    for w in tms.chunks(WINDOW) {
        let (allocs, _) = served
            .ctx
            .try_allocate_batch(w)
            .expect("in-process reference window");
        expected.push(allocs);
        windows.push(
            w.iter()
                .map(|tm| SubmitRequest::new(TOPOLOGY, tm.clone()))
                .collect(),
        );
    }
    Inputs { windows, expected }
}

/// Send bursts until at least `min_windows` windows and `budget` have
/// passed (capped at three budgets), checking every reply.
fn closed_loop(
    dep: &Deployment,
    inputs: &Inputs,
    min_windows: usize,
    budget: Duration,
    mut spans: Option<(&mut Spans, u64)>,
    quality: &mut Quality,
    out: &mut Outcome,
) -> Phase {
    let client = &dep.clients[0];
    let served = &dep.served[0];
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut w = 0usize;
    while (w < min_windows || start.elapsed() < budget)
        && start.elapsed() < 3 * budget.max(Duration::from_secs(1))
    {
        let slot = w % POOL;
        let t0 = Instant::now();
        let tickets: Vec<_> = inputs.windows[slot]
            .iter()
            .map(|req| {
                let s0 = Instant::now();
                let t = client.submit(req);
                (t, (s0, Instant::now()))
            })
            .collect();
        let mut answered = Vec::with_capacity(WINDOW);
        for (ticket, submit) in tickets {
            let r = ticket.wait_timeout(REPLY_TIMEOUT);
            answered.push((r, submit, Instant::now()));
        }
        let t1 = Instant::now();
        out.attempted += WINDOW as u64;
        phase.window_ms.push(ms(t1 - t0));
        if let Some((spans, key_base)) = spans.as_mut() {
            spans.record("window", *key_base + w as u64, 0, None, t0, t1);
        }
        // Checks run after the window's clock stopped and before the next
        // burst, so they never overlap a measured window.
        for (j, (r, submit, seen)) in answered.into_iter().enumerate() {
            let reply = match r {
                Ok(reply) => reply,
                Err(e) => {
                    out.fail(format!("window {w} request {j}: {e}"));
                    continue;
                }
            };
            let expected = &inputs.expected[slot][j];
            let checked = check_allocation(&served.env, &reply.allocation, &[]).and_then(|()| {
                let diff = max_split_diff(&reply.allocation, expected);
                if diff <= REFERENCE_EPS {
                    Ok(())
                } else {
                    Err(format!("differs from the in-process allocation by {diff}"))
                }
            });
            if let Err(e) = checked {
                out.fail(format!("window {w} request {j}: {e}"));
                continue;
            }
            let key = slot * WINDOW + j;
            if !quality.contains(key) {
                let tm = &inputs.windows[slot][j].tm;
                quality.add(
                    key,
                    check::quality(&served.env, served.env.topo(), tm, &reply.allocation),
                );
            }
            let sample = Sample::new(t0, submit, seen, &reply);
            if let Some((spans, key_base)) = spans.as_mut() {
                let base = 1 + j as u64 * REQUEST_SLOTS;
                sample.record_spans(spans, *key_base + w as u64, base, Some(0));
            }
            phase.samples.push(sample);
            if phase.replies.len() < 2 * WINDOW {
                phase.replies.push(reply);
            }
        }
        w += 1;
    }
    phase
}

/// The traced run: alternating untraced and traced closed-loop segments
/// (their difference is the tracing overhead), then the in-process layer
/// replay, codec and telemetry timings.
fn traced(
    args: &Args,
    dep: &Deployment,
    inputs: &Inputs,
    paths_ms: &[f64],
    quality: &mut Quality,
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let mut spans = Spans::new(true);
    // Untraced and traced segments alternate, so drift in the machine's
    // speed during the run does not read as tracing overhead.
    let (mut plain_ms, mut traced_ms, mut samples, mut replies) = (vec![], vec![], vec![], vec![]);
    for seg in 0..TRACE_SEGMENTS {
        let budget = args.budget(0.3 / TRACE_SEGMENTS as f64);
        let plain = closed_loop(dep, inputs, 5, budget, None, quality, out);
        let key_base = seg as u64 * 1_000_000;
        let traced = closed_loop(
            dep,
            inputs,
            5,
            budget,
            Some((&mut spans, key_base)),
            quality,
            out,
        );
        plain_ms.extend(plain.window_ms);
        traced_ms.extend(traced.window_ms);
        samples.extend(traced.samples);
        replies.extend(traced.replies);
    }
    let overhead = 100.0 * (median(&traced_ms) / median(&plain_ms) - 1.0);
    m.put("topology.paths_ms", median(paths_ms), "ms", paths_ms.len());
    let served = &dep.served[0];
    let windows: Vec<Window> = inputs
        .windows
        .iter()
        .take(REPLAY_WINDOWS)
        .map(|w| Window {
            served,
            tms: w.iter().map(|r| r.tm.clone()).collect(),
            failed: None,
        })
        .collect();
    if let Err(e) = layers::replay(&windows, args.seed, args.budget(0.4), &mut spans, m) {
        out.fail(e);
    }
    serve_metrics(&samples, m);
    let reqs: Vec<&SubmitRequest> = inputs.windows.iter().flatten().take(2 * WINDOW).collect();
    if let Err(e) = layers::codec(&reqs, &replies, args.seed, m) {
        out.fail(e);
    }
    if let Err(e) = layers::telemetry(&dep.clients[0], Vec::new(), m) {
        out.fail(e);
    }
    daemon_counters(&dep.daemon().stats(), dep.clients[0].unmatched_replies(), m);
    m.put("trace.overhead_pct", overhead, "%", traced_ms.len());
    out.spans = Some(spans);
}

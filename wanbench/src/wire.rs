//! The two wire workloads: single-matrix requests sent open loop (on a
//! fixed schedule, whatever the server does) over `CONNS` connections
//! from one process.
//!
//! * `wire_steady`: plain requests alternating between B4 and a generated
//!   30-node SWAN-like WAN. Solve is the minority of each request, so the
//!   daemon queue, coalescing, the codec and the event loop carry the cost.
//! * `wire_mixed`: the same two plus a generated 256-node WAN. About a third
//!   of the requests carry failed-link overrides drawn from three fixed
//!   signatures per topology; some carry tenant tags and (loose) deadlines;
//!   a `TealClient::stats` scrape runs every `STATS_EVERY` requests.
//!
//! Each run first serves a reference rate below the knee (latency, timed
//! from each request's due time), then bisects for the highest rate that
//! still meets the latency limit with no growing backlog.

use crate::check::{check_allocation, dead_paths, failed_topology, quality, Quality};
use crate::deploy::{deploy, traffic_series, Deployment, TopoSpec, DEPLOYMENT_SEED};
use crate::layers::{self, Window};
use crate::load::{daemon_counters, serve_metrics, Sample, REPLY_TIMEOUT};
use crate::report::{mean, median, ms, quantile, Json, Metrics};
use crate::trace::Spans;
use crate::{Args, Outcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use teal_core::TealConfig;
use teal_serve::{ServeError, ServeReply, SubmitRequest, Ticket};
use teal_topology::{b4, generate, gravity_pairs, large_wan, TopoKind, Topology};

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    Steady,
    Mixed,
}

/// Client connections (at most the two CPUs the benchmark was sized on).
const CONNS: usize = 2;
/// Distinct prebuilt requests per topology.
const POOL_PER_TOPO: usize = 192;
/// Reference rate, requests/s: below the knee on both workloads.
const REF_RATE: f64 = 100.0;
/// The latency limit a rate must meet (p99 from the due time), ms.
const LIMIT_MS: f64 = 20.0;
/// A run whose generator started sends later than this (p99, ms) than
/// scheduled is marked invalid: the offered load was not the stated one.
const GEN_LAG_BOUND_MS: f64 = 10.0;
/// Requests kept in flight while measuring saturated throughput: enough
/// for every shard to fill `max_batch`-sized windows.
const SATURATION_DEPTH: usize = 24;
/// Bisection steps of the open-loop rate search.
const SEARCH_STEPS: usize = 4;
/// A rate whose backlog passes this many requests has failed; the rung
/// stops there instead of flooding the queues.
const MAX_OUTSTANDING: usize = 256;
/// `wire_mixed` scrapes telemetry every this many requests.
const STATS_EVERY: usize = 50;
/// Loose deadline on `wire_mixed`'s deadline'd requests: far above any
/// latency the reference rate or a bounded rung produces.
const DEADLINE: Duration = Duration::from_secs(5);
/// Threads blocked on in-flight tickets: at least the saturation depth,
/// so replies are timed exactly below overload.
const WAITERS: usize = 24;
/// How often a closed-loop phase checks for a free slot.
const POLL: Duration = Duration::from_micros(20);
const SETUP_REPS: usize = 15;
/// Entries per topology the traced run's layer replay serves.
const REPLAY_PER_TOPO: usize = 32;
/// Untraced/traced segment pairs of the traced run.
const TRACE_SEGMENTS: usize = 4;

/// One prebuilt request and what its reply is checked against.
struct Entry {
    topo: usize,
    /// Position among its topology's entries.
    index: usize,
    req: SubmitRequest,
    failed: Option<Topology>,
    dead: Vec<usize>,
}

/// splitmix64: a seeded, dependency-free stream for workload choices.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The serving model of the wire workloads: the three-layer FlowGNN the
/// `serve_latency` bench serves, so a request's solve stays a few
/// milliseconds and the serving path around it carries a visible share.
fn model() -> TealConfig {
    TealConfig {
        gnn_layers: 3,
        ..TealConfig::default()
    }
}

fn specs(mix: Mix) -> Vec<TopoSpec> {
    let all_pairs = |t: Topology| {
        let pairs = t.all_pairs();
        (t, pairs)
    };
    let (b4, b4_pairs) = all_pairs(b4());
    let (swan, swan_pairs) = all_pairs(generate(TopoKind::Swan, 0.3, DEPLOYMENT_SEED));
    let mut v = vec![
        TopoSpec {
            id: "b4",
            topo: b4,
            pairs: b4_pairs,
            model: model(),
        },
        TopoSpec {
            id: "swan",
            topo: swan,
            pairs: swan_pairs,
            model: model(),
        },
    ];
    if mix == Mix::Mixed {
        let wan = large_wan(256, DEPLOYMENT_SEED);
        let pairs = gravity_pairs(&wan, 512, DEPLOYMENT_SEED ^ 1);
        v.push(TopoSpec {
            id: "wan256",
            topo: wan,
            pairs,
            model: model(),
        });
    }
    v
}

fn make_pool(dep: &Deployment, mix: Mix, seed: u64) -> Vec<Entry> {
    let mut pool = Vec::new();
    for (t, served) in dep.served.iter().enumerate() {
        let env = &served.env;
        // Three failure signatures per topology, part of the deployment:
        // one link, two links, one link.
        let edges = env.topo().edges();
        let signatures: Vec<Vec<(usize, usize)>> = (0..3u64)
            .map(|s| {
                (0..=s % 2)
                    .map(|l| {
                        let e = &edges[(mix64(DEPLOYMENT_SEED ^ (t as u64) << 8 ^ s << 4 ^ l)
                            % edges.len() as u64) as usize];
                        (e.src, e.dst)
                    })
                    .collect()
            })
            .collect();
        for (i, tm) in traffic_series(env, 0x100 + t as u64, seed, POOL_PER_TOPO)
            .into_iter()
            .enumerate()
        {
            // Which entries carry failures, tenants and deadlines is part
            // of the deployment too; the seed varies their traffic.
            let r = mix64(DEPLOYMENT_SEED ^ 0xe17 ^ ((t * POOL_PER_TOPO + i) as u64) << 16);
            let mut req = SubmitRequest::new(served.id, tm);
            let mut failed = None;
            let mut dead = Vec::new();
            if mix == Mix::Mixed {
                if r.is_multiple_of(3) {
                    let sig = &signatures[(r >> 8) as usize % signatures.len()];
                    let topo = failed_topology(env, sig);
                    dead = dead_paths(env, &topo);
                    failed = Some(topo);
                    req = req.with_failed_links(sig.iter().copied());
                }
                match (r >> 16) % 4 {
                    0 => req = req.with_tenant("gold"),
                    1 => req = req.with_tenant("silver"),
                    _ => {}
                }
                if (r >> 24).is_multiple_of(4) {
                    req = req.with_deadline(DEADLINE);
                }
            }
            pool.push(Entry {
                topo: t,
                index: i,
                req,
                failed,
                dead,
            });
        }
    }
    pool
}

/// A seeded order of one topology's pool entries.
fn entry_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..POOL_PER_TOPO).collect();
    order.sort_by_key(|&e| mix64(seed ^ (e as u64) << 20));
    order
}

/// Pool entry of the `i`-th request: topologies take turns, and each
/// topology walks its entries in the seeded `order`, so every entry is
/// served once in the first `topologies * POOL_PER_TOPO` requests and the
/// quality figures cover the whole pool on every run.
fn pick(topologies: usize, order: &[usize], i: usize) -> usize {
    let t = i % topologies;
    t * POOL_PER_TOPO + order[(i / topologies) % POOL_PER_TOPO]
}

struct Pending {
    index: usize,
    entry: usize,
    ticket: Option<Ticket>,
    due: Instant,
    submit: (Instant, Instant),
}

/// One open-loop phase at a fixed rate.
struct PhaseSpec {
    rate: f64,
    duration: Duration,
    /// `Some(d)`: ignore `rate` and keep `d` requests in flight for
    /// `duration` (closed loop at depth `d`).
    depth: Option<usize>,
    /// First request index (keys requests and spans uniquely per run).
    first: usize,
    trace: bool,
    scrape: bool,
}

#[derive(Default)]
struct PhaseOut {
    /// (request index, sample), in completion order.
    samples: Vec<(usize, Sample)>,
    lags_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    sent: usize,
    failed: usize,
    aborted: bool,
    replies: Vec<ServeReply>,
    spans: Spans,
}

impl PhaseOut {
    fn due_latency_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|(_, s)| s.due_latency_ms())
            .collect()
    }

    /// Replies per second from the first send to the last reply.
    fn throughput(&self) -> f64 {
        let first = self.samples.iter().map(|(_, s)| s.submit.0).min();
        let last = self.samples.iter().map(|(_, s)| s.seen).max();
        match (first, last) {
            (Some(a), Some(b)) if b > a => self.samples.len() as f64 / (b - a).as_secs_f64(),
            _ => f64::NAN,
        }
    }

    fn lag_p99(&self) -> f64 {
        quantile(&self.lags_ms, 0.99)
    }

    /// Meets the latency limit with no growing backlog: nothing failed or
    /// aborted, p99 within the limit, and the last quarter of the rate's
    /// requests still within it on average.
    fn passes(&self) -> bool {
        let mut by_index: Vec<(usize, f64)> = self
            .samples
            .iter()
            .map(|(i, s)| (*i, s.due_latency_ms()))
            .collect();
        by_index.sort_by_key(|&(i, _)| i);
        let tail: Vec<f64> = by_index[by_index.len() * 3 / 4..]
            .iter()
            .map(|&(_, l)| l)
            .collect();
        !self.aborted
            && self.failed == 0
            && !self.samples.is_empty()
            && quantile(&self.due_latency_ms(), 0.99) <= LIMIT_MS
            && mean(&tail) <= LIMIT_MS
    }
}

struct Ctx<'a> {
    dep: &'a Deployment,
    pool: &'a [Entry],
    /// Seeded order each topology walks its entries in.
    order: Vec<usize>,
}

fn open_loop(ctx: &Ctx, spec: &PhaseSpec, quality: &mut Quality, out: &mut Outcome) -> PhaseOut {
    let completed = AtomicUsize::new(0);
    let mut phase = PhaseOut::default();
    // Open loop only (a closed-loop phase sends as replies free slots).
    let interval = Duration::from_secs_f64(1.0 / spec.rate.max(1e-3));
    let n = (spec.duration.as_secs_f64() * spec.rate).ceil() as usize;
    let mut failures: Vec<String> = Vec::new();
    let (sender, queue) = mpsc::channel::<Pending>();
    let queue = Mutex::new(queue);
    std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let (queue, completed, trace) = (&queue, &completed, spec.trace);
                std::thread::Builder::new()
                    .stack_size(256 << 10)
                    .spawn_scoped(s, move || wait_replies(ctx, queue, completed, trace))
                    .expect("spawn a reply waiter")
            })
            .collect();
        let (scrape_tx, scrape_rx) = mpsc::channel::<()>();
        let scraper = spec.scrape.then(|| {
            let client = &ctx.dep.clients[0];
            s.spawn(move || {
                let mut times = Vec::new();
                let mut errors = Vec::new();
                for () in scrape_rx {
                    let t0 = Instant::now();
                    match client.stats() {
                        Ok(_) => times.push(ms(t0.elapsed())),
                        Err(e) => errors.push(format!("stats scrape: {e}")),
                    }
                }
                (times, errors)
            })
        });
        let start = Instant::now() + Duration::from_millis(2);
        for k in 0.. {
            let i = spec.first + k;
            let due = match spec.depth {
                None => {
                    if k >= n {
                        break;
                    }
                    if k - completed.load(Ordering::Relaxed).min(k) > MAX_OUTSTANDING {
                        phase.aborted = true;
                        break;
                    }
                    let due = start + interval * k as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                Some(depth) => {
                    while k - completed.load(Ordering::Relaxed).min(k) >= depth {
                        std::thread::sleep(POLL);
                    }
                    let now = Instant::now();
                    if now >= start + spec.duration {
                        break;
                    }
                    now
                }
            };
            let entry = pick(ctx.dep.served.len(), &ctx.order, i);
            let c = i % CONNS;
            let s0 = Instant::now();
            let ticket = ctx.dep.clients[c].submit(&ctx.pool[entry].req);
            let s1 = Instant::now();
            phase.lags_ms.push(ms(s0.saturating_duration_since(due)));
            phase.sent += 1;
            sender
                .send(Pending {
                    index: i,
                    entry,
                    ticket: Some(ticket),
                    due,
                    submit: (s0, s1),
                })
                .expect("waiters outlive the generator");
            if spec.scrape && k % STATS_EVERY == STATS_EVERY - 1 {
                scrape_tx.send(()).expect("scraper outlives the generator");
            }
        }
        drop(sender);
        drop(scrape_tx);
        let mut spans = Spans::new(spec.trace);
        for h in waiters {
            let c = h.join().expect("reply waiter thread");
            phase.samples.extend(c.samples);
            phase.failed += c.failures.len();
            failures.extend(c.failures);
            quality.merge(c.quality);
            phase.replies.extend(c.replies.into_iter().take(8));
            spans.extend(c.spans);
        }
        phase.spans = spans;
        if let Some(h) = scraper {
            let (times, errors) = h.join().expect("scraper thread");
            phase.stats_ms = times;
            phase.failed += errors.len();
            failures.extend(errors);
        }
    });
    out.attempted += phase.sent as u64;
    for f in failures {
        out.fail(f);
    }
    phase
}

struct Collected {
    samples: Vec<(usize, Sample)>,
    failures: Vec<String>,
    quality: Quality,
    replies: Vec<ServeReply>,
    spans: Spans,
}

/// Take the next request off the queue and block on its ticket until the
/// queue closes. `WAITERS` of these run at once, so each in-flight request
/// has a thread blocked on it and its reply is seen the moment it lands,
/// whatever order replies come back in.
fn wait_replies(
    ctx: &Ctx,
    queue: &Mutex<mpsc::Receiver<Pending>>,
    completed: &AtomicUsize,
    trace: bool,
) -> Collected {
    let mut c = Collected {
        samples: Vec::new(),
        failures: Vec::new(),
        quality: Quality::default(),
        replies: Vec::new(),
        spans: Spans::new(trace),
    };
    loop {
        let next = queue
            .lock()
            .expect("no waiter panics holding the queue")
            .recv();
        let Ok(mut p) = next else { break };
        let reply = p
            .ticket
            .take()
            .expect("ticket taken once")
            .wait_timeout(REPLY_TIMEOUT);
        let seen = Instant::now();
        completed.fetch_add(1, Ordering::Relaxed);
        handle(ctx, &p, reply, seen, &mut c);
    }
    c
}

fn handle(
    ctx: &Ctx,
    p: &Pending,
    reply: Result<ServeReply, ServeError>,
    seen: Instant,
    c: &mut Collected,
) {
    let entry = &ctx.pool[p.entry];
    let served = &ctx.dep.served[entry.topo];
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            c.failures.push(format!("request {}: {e}", p.index));
            return;
        }
    };
    if let Err(e) = check_allocation(&served.env, &reply.allocation, &entry.dead) {
        c.failures
            .push(format!("request {} ({}): {e}", p.index, served.id));
        return;
    }
    if !c.quality.contains(p.entry) {
        let topo = entry.failed.as_ref().unwrap_or(served.env.topo());
        c.quality.add(
            p.entry,
            quality(&served.env, topo, &entry.req.tm, &reply.allocation),
        );
    }
    let sample = Sample::new(p.due, p.submit, seen, &reply);
    sample.record_spans(&mut c.spans, p.index as u64, 0, None);
    c.samples.push((p.index, sample));
    if c.replies.len() < 8 {
        c.replies.push(reply);
    }
}

pub fn run(args: &Args, mix: Mix) -> Outcome {
    let mut out = Outcome {
        valid: true,
        ..Outcome::default()
    };
    let (dep, setup) = deploy(&specs(mix), CONNS, SETUP_REPS);
    let pool = make_pool(&dep, mix, args.seed);
    let ctx = Ctx {
        dep: &dep,
        pool: &pool,
        order: entry_order(args.seed),
    };
    let scrape = mix == Mix::Mixed;
    let mut quality = Quality::default();
    let mut next = 0usize;
    let mut phase = |rate: f64,
                     duration: Duration,
                     depth: Option<usize>,
                     trace: bool,
                     quality: &mut Quality,
                     out: &mut Outcome| {
        let spec = PhaseSpec {
            rate,
            duration,
            depth,
            first: next,
            trace,
            scrape,
        };
        let p = open_loop(&ctx, &spec, quality, out);
        next += p.sent;
        p
    };
    // Warm-up: shards spawn and arenas grow on the first requests.
    phase(
        REF_RATE,
        args.budget(0.04),
        None,
        false,
        &mut quality,
        &mut out,
    );
    let mut m = Metrics::default();
    if !args.trace {
        let reference = phase(
            REF_RATE,
            args.budget(0.45),
            None,
            false,
            &mut quality,
            &mut out,
        );
        let lat = reference.due_latency_ms();
        let lag = reference.lag_p99();
        out.valid = lag <= GEN_LAG_BOUND_MS;
        // Capacity: matrices per second with SATURATION_DEPTH requests
        // always in flight.
        let saturated = phase(
            0.0,
            args.budget(0.15),
            Some(SATURATION_DEPTH),
            false,
            &mut quality,
            &mut out,
        );
        let capacity = saturated.throughput();
        // The highest open-loop rate meeting the latency limit: bisect
        // between the reference rate and the saturated throughput.
        let (mut lo, mut hi) = if reference.passes() {
            (REF_RATE, capacity.max(REF_RATE))
        } else {
            (0.0, REF_RATE)
        };
        let mut rungs = Vec::new();
        for _ in 0..SEARCH_STEPS {
            let rate = (lo + hi) / 2.0;
            let rung = phase(rate, args.budget(0.09), None, false, &mut quality, &mut out);
            let pass = rung.passes() && rung.lag_p99() <= GEN_LAG_BOUND_MS;
            rungs.push(Json::obj(vec![
                ("rate", Json::Num(rate)),
                ("pass", Json::Bool(pass)),
                ("sent", Json::Num(rung.sent as f64)),
                ("p99_ms", Json::Num(quantile(&rung.due_latency_ms(), 0.99))),
                ("gen_lag_ms_p99", Json::Num(rung.lag_p99())),
                ("aborted", Json::Bool(rung.aborted)),
            ]));
            if pass {
                lo = rate;
            } else {
                hi = rate;
            }
        }
        m.put("setup_s", setup.setup_s(), "s", setup.setup_s.len());
        m.put("latency_ms_p50", median(&lat), "ms", lat.len());
        m.put("latency_ms_p90", quantile(&lat, 0.9), "ms", lat.len());
        m.put(
            "capacity_tms_per_s",
            capacity,
            "1/s",
            saturated.samples.len(),
        );
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
        m.put_percentiles("req_ms", &lat, 99, "ms");
        m.put("max_rate_rps", lo, "1/s", SEARCH_STEPS);
        m.put("gen_lag_ms_p99", lag, "ms", reference.lags_ms.len());
        // Stage figures of the reference rate, so an untraced record shows
        // where its latency went.
        let samples: Vec<Sample> = reference.samples.iter().map(|(_, s)| *s).collect();
        serve_metrics(&samples, &mut m);
        out.notes.push(("reference_rate_rps", Json::Num(REF_RATE)));
        out.notes.push(("latency_limit_ms", Json::Num(LIMIT_MS)));
        out.notes
            .push(("gen_lag_bound_ms", Json::Num(GEN_LAG_BOUND_MS)));
        out.notes.push(("search", Json::Arr(rungs)));
    } else {
        // Untraced and traced segments alternate, so drift in the machine's
        // speed during the run does not read as tracing overhead.
        let (mut plain_ms, mut traced_ms, mut lags) = (Vec::new(), Vec::new(), Vec::new());
        let (mut samples, mut replies, mut stats_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut spans = Spans::new(true);
        for _ in 0..TRACE_SEGMENTS {
            let share = 0.3 / TRACE_SEGMENTS as f64;
            let plain = phase(
                REF_RATE,
                args.budget(share),
                None,
                false,
                &mut quality,
                &mut out,
            );
            let mut traced = phase(
                REF_RATE,
                args.budget(share),
                None,
                true,
                &mut quality,
                &mut out,
            );
            plain_ms.extend(plain.due_latency_ms());
            traced_ms.extend(traced.due_latency_ms());
            lags.extend(plain.lags_ms.iter().chain(&traced.lags_ms));
            samples.extend(traced.samples.iter().map(|(_, s)| *s));
            replies.append(&mut traced.replies);
            stats_ms.append(&mut traced.stats_ms);
            spans.extend(std::mem::take(&mut traced.spans));
        }
        out.valid = quantile(&lags, 0.99) <= GEN_LAG_BOUND_MS;
        let overhead = 100.0 * (median(&traced_ms) / median(&plain_ms) - 1.0);
        let paths_ms = &setup.paths_ms;
        m.put("topology.paths_ms", median(paths_ms), "ms", paths_ms.len());
        // Windows of one: at the reference rate almost every coalesced
        // batch holds a single request.
        // A slice of each topology's entries keeps the replay's passes short.
        let windows: Vec<Window> = pool
            .iter()
            .filter(|e| e.index < REPLAY_PER_TOPO)
            .map(|e| Window {
                served: &dep.served[e.topo],
                tms: vec![e.req.tm.clone()],
                failed: e.failed.clone(),
            })
            .collect();
        if let Err(e) = layers::replay(&windows, args.seed, args.budget(0.2), &mut spans, &mut m) {
            out.fail(e);
        }
        serve_metrics(&samples, &mut m);
        let reqs: Vec<&SubmitRequest> = pool.iter().map(|e| &e.req).collect();
        if let Err(e) = layers::codec(&reqs, &replies, args.seed, &mut m) {
            out.fail(e);
        }
        if let Err(e) = layers::telemetry(&dep.clients[0], stats_ms, &mut m) {
            out.fail(e);
        }
        let unmatched = dep.clients.iter().map(|c| c.unmatched_replies()).sum();
        daemon_counters(&dep.daemon().stats(), unmatched, &mut m);
        m.put("trace.overhead_pct", overhead, "%", samples.len());
        out.spans = Some(spans);
    }
    out.metrics = m;
    out
}

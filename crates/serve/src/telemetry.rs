//! Serving telemetry: per-topology, per-stage latency histograms
//! (p50/p99), ADMM solve introspection, queue depth, worker-pool gauges,
//! slow-request exemplars, and the coalesced batch-size distribution.
//!
//! The recording side is deliberately cheap and contention-free in the
//! places that matter: each dispatcher shard owns its topology's
//! [`ShardStats`] outright (stage histograms, ADMM accumulators, batch
//! counters, batch-size distribution, exemplar ring) and records into it
//! without touching any shared map — shards never contend with each other
//! on the hot path. Queue-depth gauges and the completed counter are plain
//! atomics updated from any thread. Readers take a consistent
//! [`TelemetrySnapshot`] copy, locking each shard's stats only long enough
//! to copy them out.
//!
//! Requests carry a fixed-size [`Trace`] stamped at enqueue, coalesce
//! (drain), solve-start, and solve-end; the reply-write stamp is taken
//! once per chunk just before slots are fulfilled. [`Trace::stages`] folds
//! the stamps into a [`StageTimings`] (queue-wait / solve / write) that is
//! both recorded into the shard histograms and returned to callers inside
//! `ServeReply`, so "why was this one slow" is answerable per request.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use teal_nn::pool::PoolStats;

/// The crate's single clock read. Every other module stamps time through
/// this wrapper (`cargo xtask lint` rejects direct `Instant::now()` calls
/// outside this file), so wall-clock reads stay auditable and a future
/// virtual clock for the model checker has one seam to patch.
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// Log-spaced latency histogram: bucket `i` covers per-request latencies of
/// roughly `2^(i/4)` nanoseconds (four sub-buckets per octave — quantile
/// error bounded by half a sub-bucket, ≤ ~9% relative, plenty for p50/p99
/// serving dashboards while keeping recording allocation-free).
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: f64,
    max_ns: u64,
}

/// Sub-buckets per factor-of-two of latency.
const SUBDIV: f64 = 4.0;
/// Bucket count: covers ~1ns to ~2^64ns with 4 sub-buckets per octave.
const NUM_BUCKETS: usize = 64 * SUBDIV as usize;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(ns: u64) -> usize {
        if ns <= 1 {
            return 0;
        }
        (((ns as f64).log2() * SUBDIV) as usize).min(NUM_BUCKETS - 1)
    }

    /// Representative latency of bucket `i`: its *geometric midpoint*. The
    /// bucket spans `[2^(i/S), 2^((i+1)/S))`; reporting the lower edge (as
    /// an earlier version did) systematically understated every quantile by
    /// up to a full sub-bucket (~19%), while the midpoint is off by at most
    /// half a sub-bucket (~9%) in either direction.
    fn bucket_value(i: usize) -> f64 {
        2f64.powf((i as f64 + 0.5) / SUBDIV)
    }

    /// Record one observation.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold `other` into `self`. Because both histograms share the same
    /// fixed bucket edges, merging is a bucket-wise sum and the merged
    /// quantiles are *identical* to those of a histogram that had recorded
    /// both streams directly (pinned by a unit test) — multi-shard and
    /// cross-window aggregation never re-records.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as f64) as u64)
    }

    /// Quantile estimate via cumulative bucket counts (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Cap at the true observed maximum so p99 of a tight
                // distribution never exceeds the slowest real request.
                let est = Self::bucket_value(i).min(self.max_ns as f64);
                return Duration::from_nanos(est as u64);
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// The standard dashboard triple (mean, p50, p99).
    pub fn summary(&self) -> LatencyStats {
        LatencyStats {
            mean: self.mean(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

/// Mean/p50/p99 of one latency stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Mean latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
}

/// Compact per-request stage trace. Fixed-size and `Copy`: stamping on the
/// hot path is a couple of `Instant` stores, never an allocation. Stamped
/// at enqueue ([`Trace::at`]), coalesce (drain), solve-start and solve-end;
/// the reply-write stamp is passed to [`Trace::stages`] by the shard once
/// per chunk.
#[derive(Clone, Copy, Debug)]
pub struct Trace {
    enqueued: Instant,
    drained: Option<Instant>,
    solve_start: Option<Instant>,
    solve_end: Option<Instant>,
}

impl Trace {
    /// Fresh trace stamped at enqueue time `now`.
    pub fn at(now: Instant) -> Self {
        Trace {
            enqueued: now,
            drained: None,
            solve_start: None,
            solve_end: None,
        }
    }

    /// Enqueue stamp (used for deadline checks and end-to-end latency).
    pub fn enqueued(&self) -> Instant {
        self.enqueued
    }

    /// Stamp the coalesce point: the shard drained this request.
    pub(crate) fn stamp_drained(&mut self, now: Instant) {
        self.drained = Some(now);
    }

    /// Stamp entry into the forward + ADMM solve.
    pub(crate) fn stamp_solve_start(&mut self, now: Instant) {
        self.solve_start = Some(now);
    }

    /// Stamp solve completion (before replies are written).
    pub(crate) fn stamp_solve_end(&mut self, now: Instant) {
        self.solve_end = Some(now);
    }

    /// Fold the stamps into per-stage durations, with `done` as the
    /// reply-write stamp. Missing intermediate stamps (e.g. a request
    /// answered with an error before reaching the solver) collapse that
    /// stage to zero rather than misattributing time.
    pub fn stages(&self, done: Instant) -> StageTimings {
        let drained = self.drained.unwrap_or(done);
        let solve_start = self.solve_start.unwrap_or(drained);
        let solve_end = self.solve_end.unwrap_or(solve_start);
        StageTimings {
            queue_wait: drained.saturating_duration_since(self.enqueued),
            solve: solve_end.saturating_duration_since(solve_start),
            write: done.saturating_duration_since(solve_end),
        }
    }
}

/// Per-stage breakdown of one request's end-to-end latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Enqueue → drained by the shard (time spent in the queue).
    pub queue_wait: Duration,
    /// Forward pass + ADMM fine-tuning for the batch the request rode in.
    pub solve: Duration,
    /// Solve end → response slot fulfilled (allocation split + reply write).
    pub write: Duration,
}

/// Per-shard ADMM solve accumulator (windows = coalesced batches that
/// reached the solver).
#[derive(Default)]
struct AdmmAccum {
    windows: u64,
    lanes: u64,
    iterations: u64,
    budgeted_iterations: u64,
    budget_downgrades: u64,
    /// Per-window iteration budget → windows run under it.
    windows_by_budget: HashMap<u64, u64>,
    min_lane_iterations: u64,
    max_lane_iterations: u64,
    frozen_lanes: u64,
    last_primal_residual: f64,
    max_primal_residual: f64,
    last_dual_residual: f64,
    max_dual_residual: f64,
}

impl AdmmAccum {
    fn record(&mut self, r: &teal_core::SolveReport, downgraded: bool) {
        if self.windows == 0 {
            self.min_lane_iterations = r.min_iterations as u64;
        } else {
            self.min_lane_iterations = self.min_lane_iterations.min(r.min_iterations as u64);
        }
        self.windows += 1;
        self.lanes += r.lanes as u64;
        self.iterations += r.iterations;
        self.budgeted_iterations += (r.lanes * r.budget) as u64;
        self.budget_downgrades += u64::from(downgraded);
        *self.windows_by_budget.entry(r.budget as u64).or_insert(0) += 1;
        self.max_lane_iterations = self.max_lane_iterations.max(r.max_iterations as u64);
        self.frozen_lanes += r.frozen_lanes as u64;
        self.last_primal_residual = r.max_primal_residual;
        self.last_dual_residual = r.max_dual_residual;
        self.max_primal_residual = self.max_primal_residual.max(r.max_primal_residual);
        self.max_dual_residual = self.max_dual_residual.max(r.max_dual_residual);
    }

    fn snapshot(&self) -> Option<AdmmStats> {
        if self.windows == 0 {
            return None;
        }
        let mut windows_by_budget: Vec<(u64, u64)> = self
            .windows_by_budget
            .iter()
            .map(|(&b, &n)| (b, n))
            .collect();
        windows_by_budget.sort_unstable();
        Some(AdmmStats {
            windows: self.windows,
            lanes: self.lanes,
            iterations: self.iterations,
            budgeted_iterations: self.budgeted_iterations,
            budget_downgrades: self.budget_downgrades,
            windows_by_budget,
            min_lane_iterations: self.min_lane_iterations,
            max_lane_iterations: self.max_lane_iterations,
            frozen_lanes: self.frozen_lanes,
            last_primal_residual: self.last_primal_residual,
            max_primal_residual: self.max_primal_residual,
            last_dual_residual: self.last_dual_residual,
            max_dual_residual: self.max_dual_residual,
        })
    }
}

/// Aggregate ADMM solve statistics for one topology (§3.4 quality/latency
/// knob, made measurable). A *window* is one coalesced batch that reached
/// the solver; a *lane* is one traffic matrix inside a window.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmmStats {
    /// Solver windows (coalesced batches) run.
    pub windows: u64,
    /// Total lanes (traffic matrices) across all windows.
    pub lanes: u64,
    /// Total ADMM iterations summed over lanes.
    pub iterations: u64,
    /// Sum over windows of `lanes × that window's budget` — the iterations
    /// the per-window budgets *allowed*. With `tol = 0` (no early freezing)
    /// this equals `iterations` exactly, even when the adaptive policy
    /// mixes budgets across windows.
    pub budgeted_iterations: u64,
    /// Windows the adaptive policy ran below the configured budget
    /// (deadline pressure downgrades — every one is auditable here).
    pub budget_downgrades: u64,
    /// `(iteration budget, windows run under it)`, sorted by budget. Sums
    /// to `windows`.
    pub windows_by_budget: Vec<(u64, u64)>,
    /// Fewest iterations any lane ran.
    pub min_lane_iterations: u64,
    /// Most iterations any lane ran.
    pub max_lane_iterations: u64,
    /// Lanes that converged (froze) before exhausting the iteration budget.
    pub frozen_lanes: u64,
    /// Worst primal residual of the most recent window.
    pub last_primal_residual: f64,
    /// Worst primal residual of any window.
    pub max_primal_residual: f64,
    /// Worst dual residual of the most recent window.
    pub last_dual_residual: f64,
    /// Worst dual residual of any window.
    pub max_dual_residual: f64,
}

impl AdmmStats {
    /// Mean iterations per lane.
    pub fn mean_iterations(&self) -> f64 {
        self.iterations as f64 / self.lanes.max(1) as f64
    }
}

/// Slow-request exemplars retained per shard (top-k by end-to-end latency).
const SLOW_EXEMPLARS: usize = 8;

#[derive(Clone, Copy)]
struct SlowEntry {
    latency: Duration,
    stages: StageTimings,
    batch_size: usize,
}

/// Bounded top-k ring of the slowest requests seen by one shard. Capacity
/// is reserved up front so offering is allocation-free.
struct SlowRing {
    entries: Vec<SlowEntry>,
}

impl Default for SlowRing {
    fn default() -> Self {
        SlowRing {
            entries: Vec::with_capacity(SLOW_EXEMPLARS),
        }
    }
}

impl SlowRing {
    fn offer(&mut self, latency: Duration, stages: StageTimings, batch_size: usize) {
        if self.entries.len() < SLOW_EXEMPLARS {
            self.entries.push(SlowEntry {
                latency,
                stages,
                batch_size,
            });
            return;
        }
        // Replace the current fastest entry iff the newcomer is slower.
        let (idx, fastest) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.latency)
            .unwrap_or_else(|| unreachable!("ring has SLOW_EXEMPLARS entries here"));
        if latency > fastest.latency {
            self.entries[idx] = SlowEntry {
                latency,
                stages,
                batch_size,
            };
        }
    }
}

/// One slow-request exemplar with its stage breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowExemplar {
    /// Topology the request was for.
    pub topology: String,
    /// End-to-end (enqueue → response) latency.
    pub latency: Duration,
    /// Where that time went.
    pub stages: StageTimings,
    /// Size of the coalesced batch the request rode in.
    pub batch_size: usize,
}

/// One shard's serving counters, owned by that shard's dispatcher thread
/// and registered with [`Telemetry`] for snapshotting. Only the owning
/// shard writes; `snapshot` readers lock briefly to copy.
#[derive(Default)]
pub(crate) struct ShardStats {
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    solve: LatencyHistogram,
    write: LatencyHistogram,
    requests: u64,
    batches: u64,
    /// Coalesced-batch size → occurrence count (for this shard).
    batch_sizes: HashMap<usize, u64>,
    admm: AdmmAccum,
    slow: SlowRing,
}

impl ShardStats {
    /// Live queue-wait p99 for this shard — the pressure signal the
    /// adaptive ADMM budget policy compares against deadline headroom.
    /// Zero until the first batch is recorded (an idle shard is never
    /// "under pressure").
    pub(crate) fn queue_wait_p99(&self) -> Duration {
        self.queue_wait.quantile(0.99)
    }

    /// Record one coalesced batch: per-request end-to-end latencies, their
    /// stage breakdowns (parallel slices), and the batch's solver report
    /// when it reached the ADMM fine-tuner (`downgraded` marks a window the
    /// adaptive policy ran below the configured iteration budget).
    pub(crate) fn record_batch(
        &mut self,
        latencies: &[Duration],
        stages: &[StageTimings],
        solve: Option<&teal_core::SolveReport>,
        downgraded: bool,
    ) {
        debug_assert_eq!(
            latencies.len(),
            stages.len(),
            "latency/stage slice mismatch"
        );
        *self.batch_sizes.entry(latencies.len()).or_insert(0) += 1;
        self.batches += 1;
        self.requests += latencies.len() as u64;
        for (&l, s) in latencies.iter().zip(stages) {
            self.latency.record(l);
            self.queue_wait.record(s.queue_wait);
            self.solve.record(s.solve);
            self.write.record(s.write);
            self.slow.offer(l, *s, latencies.len());
        }
        if let Some(r) = solve {
            self.admm.record(r, downgraded);
        }
    }
}

/// One tenant's serving totals (weighted-fair-queuing accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TenantAccum {
    requests: u64,
    windows: u64,
}

/// Aggregate daemon telemetry (see module docs for the locking story).
#[derive(Default)]
pub struct Telemetry {
    /// Topology id → that shard's stats. The map is touched only at shard
    /// creation and in `snapshot`; recording goes through the `Arc` each
    /// shard retains.
    shards: Mutex<HashMap<String, Arc<Mutex<ShardStats>>>>,
    /// Requests currently enqueued across all shards (gauge).
    queue_depth: AtomicUsize,
    /// Deepest aggregate queue ever observed.
    max_queue_depth: AtomicUsize,
    /// Total requests completed (including error responses).
    completed: AtomicU64,
    /// Requests shed by admission control at enqueue (full queue with a
    /// deadline, or a budget already spent).
    shed: AtomicU64,
    /// Requests whose deadline lapsed in the queue (expired at drain time).
    expired: AtomicU64,
    /// Adjacent deadline'd-request pairs served out of deadline order
    /// within one drain (the EDF invariant, as a counter: 0 under the
    /// default EDF drain, > 0 only under `DrainOrder::Fifo` churn).
    deadline_inversions: AtomicU64,
    /// Reply/scrape completions whose id matched no registered slot on the
    /// announcing connection (the wire front end reports these; a nonzero
    /// value flags an id-bookkeeping bug rather than load).
    unmatched_replies: AtomicU64,
    /// Tenant id → served totals. Touched once per chunk (not per
    /// request), so the shared lock stays off the per-request path.
    tenants: Mutex<HashMap<String, TenantAccum>>,
}

impl Telemetry {
    /// The stats slot for `topology`, creating it on first use. Shards call
    /// this once at startup and then record lock-free of the map.
    pub(crate) fn shard_stats(&self, topology: &str) -> Arc<Mutex<ShardStats>> {
        let mut map = self.shards.lock();
        Arc::clone(map.entry(topology.to_string()).or_default())
    }

    /// Gauge bump when a request is enqueued.
    pub(crate) fn on_enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Gauge drop when a shard drains `n` requests. Saturates at zero: a
    /// double-drain bug must not wrap the gauge to `usize::MAX` and poison
    /// every later snapshot (it is loudly caught in debug builds instead).
    pub(crate) fn on_drain(&self, n: usize) {
        // (`fetch_update` is absent from the loom facade; a CAS loop over
        // `compare_exchange` is equivalent and compiles under both.)
        let mut prev = self.queue_depth.load(Ordering::Relaxed);
        loop {
            match self.queue_depth.compare_exchange(
                prev,
                prev.saturating_sub(n),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => prev = cur,
            }
        }
        debug_assert!(
            prev >= n,
            "queue_depth underflow: drained {n} with depth {prev}"
        );
    }

    /// Count `n` successfully answered requests.
    pub(crate) fn on_complete(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one coalesced batch of `latencies` for `topology` (test and
    /// convenience path; shards record through their retained handle).
    #[cfg(test)]
    pub(crate) fn on_batch(&self, topology: &str, latencies: &[Duration]) {
        let stages = vec![StageTimings::default(); latencies.len()];
        self.shard_stats(topology)
            .lock()
            .record_batch(latencies, &stages, None, false);
        self.on_complete(latencies.len() as u64);
    }

    /// Record a request that completed with an error (still counted).
    pub(crate) fn on_error(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an admission-control shed at enqueue (the request was
    /// answered — with an error — so it also counts as completed).
    pub(crate) fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one drain-time deadline expiry (also a completed reply).
    pub(crate) fn on_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` deadline-order inversions observed in one drain's final
    /// serving order (see [`TelemetrySnapshot::deadline_inversions`]).
    pub(crate) fn on_deadline_inversions(&self, n: u64) {
        if n > 0 {
            self.deadline_inversions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count one reply frame (or completion tag) that matched no
    /// registered slot — the wire front end's "reply with no home" event.
    #[cfg(all(target_os = "linux", not(teal_loom)))]
    pub(crate) fn on_unmatched_reply(&self) {
        self.unmatched_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Credit `requests` served requests and `windows` solver windows to
    /// `tenant` (a chunk charges its window to the dominant tenant; request
    /// counts go to each request's own tenant).
    pub(crate) fn on_tenant(&self, tenant: &str, requests: u64, windows: u64) {
        let mut map = self.tenants.lock();
        let acc = map.entry(tenant.to_string()).or_default();
        acc.requests += requests;
        acc.windows += windows;
    }

    /// Take a consistent copy of all counters.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let shards = self.shards.lock();
        let mut per_topology = Vec::with_capacity(shards.len());
        let mut batch_sizes: HashMap<usize, u64> = HashMap::new();
        let mut slow: Vec<SlowExemplar> = Vec::new();
        for (name, stats) in shards.iter() {
            let s = stats.lock();
            let e2e = s.latency.summary();
            per_topology.push(TopoSnapshot {
                topology: name.clone(),
                requests: s.requests,
                batches: s.batches,
                mean: e2e.mean,
                p50: e2e.p50,
                p99: e2e.p99,
                queue_wait: s.queue_wait.summary(),
                solve: s.solve.summary(),
                write: s.write.summary(),
                admm: s.admm.snapshot(),
            });
            for (&size, &n) in &s.batch_sizes {
                *batch_sizes.entry(size).or_insert(0) += n;
            }
            for e in &s.slow.entries {
                slow.push(SlowExemplar {
                    topology: name.clone(),
                    latency: e.latency,
                    stages: e.stages,
                    batch_size: e.batch_size,
                });
            }
        }
        per_topology.sort_by(|a, b| a.topology.cmp(&b.topology));
        // Global top-k across shards, slowest first.
        slow.sort_by_key(|e| std::cmp::Reverse(e.latency));
        slow.truncate(SLOW_EXEMPLARS);
        let mut batch_sizes: Vec<(usize, u64)> = batch_sizes.into_iter().collect();
        batch_sizes.sort_unstable();
        let mut tenants: Vec<TenantSnapshot> = self
            .tenants
            .lock()
            .iter()
            .map(|(name, acc)| TenantSnapshot {
                tenant: name.clone(),
                requests: acc.requests,
                windows: acc.windows,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        TelemetrySnapshot {
            per_topology,
            batch_sizes,
            tenants,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            deadline_inversions: self.deadline_inversions.load(Ordering::Relaxed),
            unmatched_replies: self.unmatched_replies.load(Ordering::Relaxed),
            pool: teal_nn::pool::stats(),
            slow,
        }
    }
}

/// Point-in-time copy of the daemon's serving statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-topology latency/request stats, sorted by topology id.
    pub per_topology: Vec<TopoSnapshot>,
    /// `(batch size, occurrences)` across all shards, sorted by size.
    /// Sizes are *served window* sizes: counted after drain-time expiry
    /// removes lapsed requests and after signature grouping/chunking, so
    /// the distribution never overstates windows under deadline churn.
    pub batch_sizes: Vec<(usize, u64)>,
    /// Per-tenant served totals, sorted by tenant id. Requests are credited
    /// to their own tenant; each solver window is charged to the chunk's
    /// dominant tenant (most requests, ties broken lexicographically).
    pub tenants: Vec<TenantSnapshot>,
    /// Requests currently waiting in shard queues.
    pub queue_depth: usize,
    /// Deepest aggregate queue observed since startup.
    pub max_queue_depth: usize,
    /// Total requests answered (success or error).
    pub completed: u64,
    /// Requests shed by admission control at enqueue (counted in
    /// `completed` too — sheds are answered, with an error).
    pub shed: u64,
    /// Requests whose deadline lapsed while queued (drain-time expiries;
    /// also counted in `completed`).
    pub expired: u64,
    /// Deadline-order inversions: adjacent deadline'd requests served
    /// later-deadline-first within one drain. The EDF invariant is
    /// `deadline_inversions == 0`; a FIFO drain under deadline churn
    /// accumulates them.
    pub deadline_inversions: u64,
    /// Reply frames (or completion-queue tags) whose request id matched no
    /// registered slot on their connection. The server counts tags with no
    /// pending ticket; [`crate::TealClient`] keeps its own local twin
    /// ([`crate::TealClient::unmatched_replies`]). Zero in a correct
    /// deployment — nonzero means an id-bookkeeping bug, not load.
    pub unmatched_replies: u64,
    /// `teal_nn` worker-pool counters (process-global, sampled at snapshot
    /// time): jobs submitted, chunks run by callers vs stolen by helper
    /// workers, and capped-out queue skips.
    pub pool: PoolStats,
    /// Slowest requests observed (global top-k across shards, slowest
    /// first), each with its stage breakdown.
    pub slow: Vec<SlowExemplar>,
}

impl TelemetrySnapshot {
    /// Mean coalesced batch size (zero when nothing was served).
    pub fn mean_batch_size(&self) -> f64 {
        let (total_reqs, total_batches) = self
            .batch_sizes
            .iter()
            .fold((0u64, 0u64), |(r, b), &(size, n)| {
                (r + size as u64 * n, b + n)
            });
        if total_batches == 0 {
            0.0
        } else {
            total_reqs as f64 / total_batches as f64
        }
    }

    /// Render the snapshot in Prometheus text exposition format (one
    /// gauge/counter family per metric, `# HELP`/`# TYPE` headers, labels
    /// for topology/stage/quantile). Suitable for a scrape endpoint or a
    /// CI artifact.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let secs = |d: Duration| d.as_secs_f64();

        out.push_str("# HELP teal_serve_requests_total Requests served per topology.\n");
        out.push_str("# TYPE teal_serve_requests_total counter\n");
        for t in &self.per_topology {
            let _ = writeln!(
                out,
                "teal_serve_requests_total{{topology=\"{}\"}} {}",
                t.topology, t.requests
            );
        }
        out.push_str("# HELP teal_serve_batches_total Coalesced batches served per topology.\n");
        out.push_str("# TYPE teal_serve_batches_total counter\n");
        for t in &self.per_topology {
            let _ = writeln!(
                out,
                "teal_serve_batches_total{{topology=\"{}\"}} {}",
                t.topology, t.batches
            );
        }

        out.push_str(
            "# HELP teal_serve_stage_seconds Request latency by pipeline stage (quantile label; mean under quantile=\"mean\").\n",
        );
        out.push_str("# TYPE teal_serve_stage_seconds gauge\n");
        for t in &self.per_topology {
            let stages: [(&str, LatencyStats); 4] = [
                (
                    "e2e",
                    LatencyStats {
                        mean: t.mean,
                        p50: t.p50,
                        p99: t.p99,
                    },
                ),
                ("queue_wait", t.queue_wait),
                ("solve", t.solve),
                ("write", t.write),
            ];
            for (stage, s) in stages {
                for (q, v) in [("mean", s.mean), ("0.5", s.p50), ("0.99", s.p99)] {
                    let _ = writeln!(
                        out,
                        "teal_serve_stage_seconds{{topology=\"{}\",stage=\"{}\",quantile=\"{}\"}} {:.9}",
                        t.topology,
                        stage,
                        q,
                        secs(v)
                    );
                }
            }
        }

        out.push_str("# HELP teal_serve_admm_windows_total Solver windows (batches) run.\n");
        out.push_str("# TYPE teal_serve_admm_windows_total counter\n");
        out.push_str("# HELP teal_serve_admm_lanes_total Solver lanes (traffic matrices) run.\n");
        out.push_str("# TYPE teal_serve_admm_lanes_total counter\n");
        out.push_str(
            "# HELP teal_serve_admm_iterations_total ADMM iterations summed over lanes.\n",
        );
        out.push_str("# TYPE teal_serve_admm_iterations_total counter\n");
        out.push_str(
            "# HELP teal_serve_admm_frozen_lanes_total Lanes converged before the iteration budget.\n",
        );
        out.push_str("# TYPE teal_serve_admm_frozen_lanes_total counter\n");
        out.push_str(
            "# HELP teal_serve_admm_budgeted_iterations_total Iterations allowed by the per-window budgets (lanes × budget summed over windows).\n",
        );
        out.push_str("# TYPE teal_serve_admm_budgeted_iterations_total counter\n");
        out.push_str(
            "# HELP teal_serve_admm_budget_downgrades_total Windows the adaptive policy ran below the configured iteration budget.\n",
        );
        out.push_str("# TYPE teal_serve_admm_budget_downgrades_total counter\n");
        out.push_str(
            "# HELP teal_serve_admm_windows_by_budget_total Solver windows by per-window iteration budget.\n",
        );
        out.push_str("# TYPE teal_serve_admm_windows_by_budget_total counter\n");
        out.push_str(
            "# HELP teal_serve_admm_residual Final ADMM residuals (kind=primal|dual, stat=last|max).\n",
        );
        out.push_str("# TYPE teal_serve_admm_residual gauge\n");
        for t in &self.per_topology {
            let Some(a) = &t.admm else { continue };
            let topo = &t.topology;
            let _ = writeln!(
                out,
                "teal_serve_admm_windows_total{{topology=\"{topo}\"}} {}",
                a.windows
            );
            let _ = writeln!(
                out,
                "teal_serve_admm_lanes_total{{topology=\"{topo}\"}} {}",
                a.lanes
            );
            let _ = writeln!(
                out,
                "teal_serve_admm_iterations_total{{topology=\"{topo}\"}} {}",
                a.iterations
            );
            let _ = writeln!(
                out,
                "teal_serve_admm_frozen_lanes_total{{topology=\"{topo}\"}} {}",
                a.frozen_lanes
            );
            let _ = writeln!(
                out,
                "teal_serve_admm_budgeted_iterations_total{{topology=\"{topo}\"}} {}",
                a.budgeted_iterations
            );
            let _ = writeln!(
                out,
                "teal_serve_admm_budget_downgrades_total{{topology=\"{topo}\"}} {}",
                a.budget_downgrades
            );
            for &(budget, n) in &a.windows_by_budget {
                let _ = writeln!(
                    out,
                    "teal_serve_admm_windows_by_budget_total{{topology=\"{topo}\",budget=\"{budget}\"}} {n}"
                );
            }
            for (kind, stat, v) in [
                ("primal", "last", a.last_primal_residual),
                ("primal", "max", a.max_primal_residual),
                ("dual", "last", a.last_dual_residual),
                ("dual", "max", a.max_dual_residual),
            ] {
                let _ = writeln!(
                    out,
                    "teal_serve_admm_residual{{topology=\"{topo}\",kind=\"{kind}\",stat=\"{stat}\"}} {v:e}"
                );
            }
        }

        out.push_str("# HELP teal_serve_queue_depth Requests currently enqueued.\n");
        out.push_str("# TYPE teal_serve_queue_depth gauge\n");
        let _ = writeln!(out, "teal_serve_queue_depth {}", self.queue_depth);
        out.push_str("# HELP teal_serve_max_queue_depth Deepest aggregate queue observed.\n");
        out.push_str("# TYPE teal_serve_max_queue_depth gauge\n");
        let _ = writeln!(out, "teal_serve_max_queue_depth {}", self.max_queue_depth);
        for (name, help, v) in [
            (
                "teal_serve_completed_total",
                "Requests answered (success or error).",
                self.completed,
            ),
            (
                "teal_serve_shed_total",
                "Requests shed by admission control.",
                self.shed,
            ),
            (
                "teal_serve_expired_total",
                "Requests expired in the queue.",
                self.expired,
            ),
            (
                "teal_serve_deadline_inversions_total",
                "Deadline'd requests served out of deadline order within a drain.",
                self.deadline_inversions,
            ),
            (
                "teal_serve_unmatched_replies_total",
                "Reply frames whose request id matched no registered slot.",
                self.unmatched_replies,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }

        out.push_str("# HELP teal_serve_batch_size_total Coalesced batches by size.\n");
        out.push_str("# TYPE teal_serve_batch_size_total counter\n");
        for &(size, n) in &self.batch_sizes {
            let _ = writeln!(out, "teal_serve_batch_size_total{{size=\"{size}\"}} {n}");
        }

        out.push_str("# HELP teal_serve_tenant_requests_total Requests served per tenant.\n");
        out.push_str("# TYPE teal_serve_tenant_requests_total counter\n");
        out.push_str(
            "# HELP teal_serve_tenant_windows_total Solver windows charged per tenant (dominant-tenant accounting).\n",
        );
        out.push_str("# TYPE teal_serve_tenant_windows_total counter\n");
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "teal_serve_tenant_requests_total{{tenant=\"{}\"}} {}",
                t.tenant, t.requests
            );
            let _ = writeln!(
                out,
                "teal_serve_tenant_windows_total{{tenant=\"{}\"}} {}",
                t.tenant, t.windows
            );
        }

        for (name, help, v) in [
            (
                "teal_nn_pool_jobs_total",
                "Parallel jobs submitted to the worker pool.",
                self.pool.jobs,
            ),
            (
                "teal_nn_pool_caller_chunks_total",
                "Chunks executed by submitting threads.",
                self.pool.caller_chunks,
            ),
            (
                "teal_nn_pool_helper_chunks_total",
                "Chunks stolen by helper workers.",
                self.pool.helper_chunks,
            ),
            (
                "teal_nn_pool_capped_skips_total",
                "Queue scans that skipped a capped-out job.",
                self.pool.capped_skips,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }

        out.push_str(
            "# HELP teal_serve_slow_seconds Slowest requests (rank 0 = slowest) by stage.\n",
        );
        out.push_str("# TYPE teal_serve_slow_seconds gauge\n");
        for (rank, e) in self.slow.iter().enumerate() {
            for (stage, v) in [
                ("e2e", e.latency),
                ("queue_wait", e.stages.queue_wait),
                ("solve", e.stages.solve),
                ("write", e.stages.write),
            ] {
                let _ = writeln!(
                    out,
                    "teal_serve_slow_seconds{{topology=\"{}\",rank=\"{rank}\",stage=\"{stage}\",batch=\"{}\"}} {:.9}",
                    e.topology,
                    e.batch_size,
                    secs(v)
                );
            }
        }
        out
    }
}

/// One tenant's served totals under weighted fair queuing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant id (`"default"` for untagged requests).
    pub tenant: String,
    /// Requests served for this tenant (success replies only).
    pub requests: u64,
    /// Solver windows charged to this tenant (dominant-tenant accounting).
    pub windows: u64,
}

/// One topology's latency profile.
#[derive(Clone, Debug, PartialEq)]
pub struct TopoSnapshot {
    /// Registry id of the topology.
    pub topology: String,
    /// Requests served.
    pub requests: u64,
    /// Coalesced batches those requests rode in.
    pub batches: u64,
    /// Mean end-to-end (enqueue → response) latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Time spent waiting in the shard queue (enqueue → drain).
    pub queue_wait: LatencyStats,
    /// Time in the forward pass + ADMM fine-tuning.
    pub solve: LatencyStats,
    /// Time from solve end to response fulfillment.
    pub write: LatencyStats,
    /// ADMM solve statistics (`None` until a batch reaches the solver).
    pub admm: Option<AdmmStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmatched_replies_reach_snapshot_and_prometheus() {
        let t = Telemetry::default();
        assert_eq!(t.snapshot().unmatched_replies, 0);
        t.on_unmatched_reply();
        t.on_unmatched_reply();
        let snap = t.snapshot();
        assert_eq!(snap.unmatched_replies, 2);
        let text = snap.to_prometheus();
        assert!(
            text.contains("teal_serve_unmatched_replies_total 2"),
            "missing/incorrect counter line in:\n{text}"
        );
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::default();
        for us in [50u64, 80, 100, 120, 150, 400, 900, 5000] {
            h.record(Duration::from_micros(us));
        }
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        assert!(p50 <= p99, "p50 {p50:?} > p99 {p99:?}");
        assert!(p99 <= Duration::from_micros(5000));
        assert!(p50 >= Duration::from_micros(80), "p50 {p50:?} too low");
        assert_eq!(h.count(), 8);
        assert!(h.mean() > Duration::ZERO);
    }

    #[test]
    fn constant_stream_quantiles_within_one_sub_bucket() {
        // Regression for the lower-edge bug: p50 of a constant-latency
        // stream must land within one sub-bucket (a factor of 2^(1/SUBDIV))
        // of the true latency. Reporting each bucket's lower geometric edge
        // understated it by up to ~19%.
        let sub = 2f64.powf(1.0 / SUBDIV);
        for truth_us in [3u64, 47, 100, 999, 12_345] {
            let mut h = LatencyHistogram::default();
            for _ in 0..1000 {
                h.record(Duration::from_micros(truth_us));
            }
            let truth = (truth_us * 1000) as f64;
            for q in [0.5, 0.99] {
                let est = h.quantile(q).as_nanos() as f64;
                assert!(
                    est <= truth * sub && est >= truth / sub,
                    "q{q}: estimate {est}ns not within one sub-bucket of {truth}ns"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn merged_quantiles_equal_combined_stream() {
        // merge() must be indistinguishable from having recorded both
        // streams into one histogram: same buckets, same count/sum/max,
        // hence *identical* quantiles at every q.
        let stream_a: Vec<u64> = (1..500).map(|i| i * 137 % 90_000 + 1).collect();
        let stream_b: Vec<u64> = (1..300).map(|i| i * 7919 % 2_000_000 + 1).collect();
        let (mut a, mut b, mut combined) = (
            LatencyHistogram::default(),
            LatencyHistogram::default(),
            LatencyHistogram::default(),
        );
        for &us in &stream_a {
            a.record(Duration::from_micros(us));
            combined.record(Duration::from_micros(us));
        }
        for &us in &stream_b {
            b.record(Duration::from_micros(us));
            combined.record(Duration::from_micros(us));
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.mean(), combined.mean());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                a.quantile(q),
                combined.quantile(q),
                "quantile {q} diverged after merge"
            );
        }
        // Merging an empty histogram is a no-op.
        let before = a.quantile(0.5);
        a.merge(&LatencyHistogram::default());
        assert_eq!(a.quantile(0.5), before);
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let t = Telemetry::default();
        t.on_enqueue();
        t.on_enqueue();
        t.on_drain(2);
        t.on_batch(
            "B4",
            &[Duration::from_micros(100), Duration::from_micros(200)],
        );
        t.on_batch("B4", &[Duration::from_micros(300)]);
        let snap = t.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.max_queue_depth, 2);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.per_topology.len(), 1);
        assert_eq!(snap.per_topology[0].requests, 3);
        assert_eq!(snap.per_topology[0].batches, 2);
        assert_eq!(snap.batch_sizes, vec![(1, 1), (2, 1)]);
        assert!((snap.mean_batch_size() - 1.5).abs() < 1e-9);
        // on_batch records zero stage timings and no solver report.
        assert_eq!(snap.per_topology[0].admm, None);
        assert_eq!(snap.slow.len(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "queue_depth underflow")]
    fn over_drain_is_caught_in_debug() {
        let t = Telemetry::default();
        t.on_enqueue();
        t.on_drain(2);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn over_drain_saturates_in_release() {
        let t = Telemetry::default();
        t.on_enqueue();
        t.on_drain(2);
        assert_eq!(t.snapshot().queue_depth, 0, "gauge must saturate, not wrap");
    }

    #[test]
    fn stage_and_admm_stats_reach_snapshot() {
        let t = Telemetry::default();
        let stats = t.shard_stats("B4");
        let stages = [
            StageTimings {
                queue_wait: Duration::from_micros(40),
                solve: Duration::from_micros(700),
                write: Duration::from_micros(10),
            },
            StageTimings {
                queue_wait: Duration::from_micros(80),
                solve: Duration::from_micros(700),
                write: Duration::from_micros(10),
            },
        ];
        let report = teal_core::SolveReport {
            budget: 2,
            lanes: 2,
            iterations: 4,
            min_iterations: 2,
            max_iterations: 2,
            frozen_lanes: 0,
            max_primal_residual: 0.25,
            max_dual_residual: 0.125,
        };
        stats.lock().record_batch(
            &[Duration::from_micros(750), Duration::from_micros(790)],
            &stages,
            Some(&report),
            true,
        );
        let snap = t.snapshot();
        let topo = &snap.per_topology[0];
        assert!(topo.queue_wait.p50 >= Duration::from_micros(30));
        assert!(topo.solve.p99 >= Duration::from_micros(600));
        assert!(topo.write.p50 > Duration::ZERO);
        let admm = topo.admm.as_ref().expect("solver report recorded");
        assert_eq!(admm.windows, 1);
        assert_eq!(admm.lanes, 2);
        assert_eq!(admm.iterations, 4);
        assert_eq!(admm.budgeted_iterations, 4, "lanes × budget for one window");
        assert_eq!(admm.budget_downgrades, 1);
        assert_eq!(admm.windows_by_budget, vec![(2, 1)]);
        assert_eq!(admm.min_lane_iterations, 2);
        assert_eq!(admm.max_lane_iterations, 2);
        assert_eq!(admm.frozen_lanes, 0);
        assert!((admm.mean_iterations() - 2.0).abs() < 1e-12);
        assert!((admm.last_primal_residual - 0.25).abs() < 1e-12);
        assert!((admm.max_dual_residual - 0.125).abs() < 1e-12);
    }

    #[test]
    fn tenant_and_inversion_counters_reach_snapshot() {
        let t = Telemetry::default();
        t.on_tenant("gold", 3, 1);
        t.on_tenant("bronze", 1, 1);
        t.on_tenant("gold", 2, 1);
        t.on_deadline_inversions(2);
        t.on_deadline_inversions(0);
        let snap = t.snapshot();
        assert_eq!(snap.deadline_inversions, 2);
        assert_eq!(
            snap.tenants,
            vec![
                TenantSnapshot {
                    tenant: "bronze".into(),
                    requests: 1,
                    windows: 1,
                },
                TenantSnapshot {
                    tenant: "gold".into(),
                    requests: 5,
                    windows: 2,
                },
            ]
        );
        let text = snap.to_prometheus();
        for needle in [
            "teal_serve_tenant_requests_total{tenant=\"gold\"} 5",
            "teal_serve_tenant_windows_total{tenant=\"gold\"} 2",
            "teal_serve_deadline_inversions_total 2",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn slow_ring_keeps_top_k() {
        let mut ring = SlowRing::default();
        for us in 1..=100u64 {
            ring.offer(Duration::from_micros(us), StageTimings::default(), 1);
        }
        assert_eq!(ring.entries.len(), SLOW_EXEMPLARS);
        let mut lat: Vec<u64> = ring
            .entries
            .iter()
            .map(|e| e.latency.as_micros() as u64)
            .collect();
        lat.sort_unstable();
        assert_eq!(lat, (93..=100).collect::<Vec<_>>());
    }

    #[test]
    fn trace_stages_partition_end_to_end() {
        let t0 = now();
        let mut tr = Trace::at(t0);
        let t1 = t0 + Duration::from_micros(100);
        let t2 = t1 + Duration::from_micros(20);
        let t3 = t2 + Duration::from_micros(500);
        let done = t3 + Duration::from_micros(30);
        tr.stamp_drained(t1);
        tr.stamp_solve_start(t2);
        tr.stamp_solve_end(t3);
        let s = tr.stages(done);
        assert_eq!(s.queue_wait, Duration::from_micros(100));
        assert_eq!(s.solve, Duration::from_micros(500));
        assert_eq!(s.write, Duration::from_micros(30));
        // Unstamped stages collapse to zero instead of misattributing.
        let s = Trace::at(t0).stages(done);
        assert_eq!(s.queue_wait, done - t0);
        assert_eq!(s.solve, Duration::ZERO);
        assert_eq!(s.write, Duration::ZERO);
    }

    #[test]
    fn prometheus_rendering_smoke() {
        let t = Telemetry::default();
        t.on_enqueue();
        t.on_drain(1);
        t.on_batch("B4", &[Duration::from_micros(100)]);
        let text = t.snapshot().to_prometheus();
        for needle in [
            "teal_serve_requests_total{topology=\"B4\"} 1",
            "teal_serve_stage_seconds{topology=\"B4\",stage=\"solve\",quantile=\"0.99\"}",
            "teal_serve_queue_depth 0",
            "teal_serve_completed_total 1",
            "teal_nn_pool_jobs_total",
            "teal_serve_slow_seconds{topology=\"B4\",rank=\"0\",stage=\"e2e\"",
            "# TYPE teal_serve_batch_size_total counter",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}

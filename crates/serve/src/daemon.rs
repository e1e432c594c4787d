//! The transport-agnostic serving core: per-topology dispatch shards, each
//! with its own request queue, micro-batching coalescer, admission control,
//! and ADMM arenas — behind the narrow `submit(SubmitRequest) -> Ticket`
//! API every front end (in-process callers, the TCP [`crate::TealServer`])
//! shares.
//!
//! Concurrent callers [`ServeDaemon::submit`] a [`SubmitRequest`]; the
//! submit path validates it, applies admission control, and routes it to
//! its topology's *shard* — a dedicated dispatcher thread with a private
//! queue — which drains, coalesces, and pushes each batch through
//! [`ServingContext::try_allocate_batch_with`] so unrelated clients'
//! matrices share one set of forward-pass matrix products — the paper's
//! "TE allocation as one fixed-cost batched compute step", turned into a
//! service. On multicore, shards are true parallel lanes: two topologies'
//! windows overlap instead of serializing behind one dispatcher.
//!
//! The hot path is built from commutative operations (requests to
//! different topologies share *no* per-window mutable state, so their
//! dispatch commutes and needs no coordination — and the same holds across
//! *connections* of the wire front end, which all funnel into this one
//! submit path): enqueue appends under a shard-local queue lock held for
//! O(1), each shard snapshots its context from the [`ModelRegistry`] (see
//! its docs), and responses land in per-request slots nobody else touches.
//! There is no lock held across model compute, and no two shards ever
//! share a lock on the hot path.
//!
//! # Admission control and deadlines
//!
//! A request may carry a relative deadline ([`SubmitRequest::deadline`]).
//! Admission control acts at two points:
//!
//! * **At enqueue (shed):** a zero/elapsed budget is refused immediately
//!   with [`ServeError::DeadlineExceeded`], and a deadline'd request
//!   arriving at a full shard queue is refused with
//!   [`ServeError::Overloaded`] instead of blocking (queueing it would
//!   only burn its budget; deadline-less requests keep the classic
//!   blocking backpressure). Sheds count in
//!   [`crate::TelemetrySnapshot::shed`].
//! * **At drain (expire):** when the shard forms a batch, requests whose
//!   deadline passed while queued get [`ServeError::DeadlineExceeded`]
//!   instead of occupying a lane in the forward pass. Expiries count in
//!   [`crate::TelemetrySnapshot::expired`].
//!
//! # Failure-aware requests (§5.3 end to end)
//!
//! A request may carry failed-link overrides. The shard groups each
//! drained window *by override signature* (canonicalized link set): plain
//! requests form the steady-state sub-batch served out of the shard's
//! primary arena — untouched by failure traffic — while each distinct
//! failure scenario forms its own sub-batch served through
//! [`ServingContext::try_allocate_batch_on_with`] against a
//! capacity-overridden topology, out of a second, failure-dedicated
//! arena. A failure window therefore serves *without retraining and
//! without perturbing the steady-state arena* — the paper's
//! failure-recovery path, reachable end to end from a socket.
//!
//! # Shard arena ownership
//!
//! Every shard owns two [`teal_core::BatchScratch`]es: the steady-state
//! arena its plain windows reuse, and a failure arena its override
//! sub-batches reuse (repeated windows on the same degraded topology remint
//! into warmed buffers). Only the shard's dispatcher thread ever touches
//! them. The scratches live in the shard, *not* in the serving context — a
//! hot checkpoint swap replaces the context `Arc` but leaves the shard's
//! arenas (and their warmed-up capacity) untouched, and the next window
//! simply runs against the new weights (swap safety: a scratch carries no
//! weight- or topology-derived state across windows, only buffer capacity).
//!
//! # Shutdown protocol
//!
//! `shutdown` sets the flag, then wakes and joins every shard. Submitters
//! re-check the flag *under the shard's queue lock* — the same lock the
//! shard holds for its final is-empty check — so a request is either
//! enqueued before the shard's last drain (and served) or observes the
//! flag and gets [`ServeError::ShuttingDown`]. A post-join sweep fails any
//! conceivable straggler rather than stranding its ticket.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::telemetry::now;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use teal_core::{AllocError, BatchScratch, PolicyModel, ServingContext};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

use crate::registry::ModelRegistry;
use crate::request::{ResponseSlot, ServeError, ServeReply, SubmitRequest, Ticket};
use crate::telemetry::{ShardStats, StageTimings, Telemetry, TelemetrySnapshot, Trace};
use crate::wfq::WfqScheduler;

/// One queued request (its topology is implied by the shard holding it).
struct Request {
    tm: TrafficMatrix,
    /// Stage trace, stamped at enqueue; the shard stamps drain/solve spans
    /// as the request moves through the pipeline.
    trace: Trace,
    /// Absolute expiry minted from [`SubmitRequest::deadline`] at enqueue.
    expires: Option<Instant>,
    /// Canonical failed-link override set; empty = steady-state path.
    signature: Vec<(usize, usize)>,
    /// Effective tenant id (`"default"` for untagged requests), shared so
    /// per-chunk accounting clones a pointer, not a string.
    tenant: Arc<str>,
    slot: Arc<ResponseSlot>,
}

/// In what order a shard serves the live requests of one drained window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DrainOrder {
    /// Earliest-deadline-first: deadline'd requests run before deadline-less
    /// ones, ordered by expiry; ties and deadline-less requests keep their
    /// arrival order (the sort is stable). This is the default — it is what
    /// makes a deadline under load *mean* something.
    #[default]
    EarliestDeadlineFirst,
    /// Strict arrival order. Exists for apples-to-apples baselines (the
    /// `deadline_pressure` bench arm); deadline'd requests stuck behind a
    /// long plain backlog will expire exactly as naively as you'd expect.
    Fifo,
}

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Matrices per coalesced `allocate_batch` call. Larger batches
    /// amortize more per-pass overhead but add queueing delay for the
    /// requests at the front.
    pub max_batch: usize,
    /// After the first request of a drain arrives, linger this long for
    /// stragglers before dispatching (micro-batching window). Zero
    /// dispatches immediately. Deadline'd traffic caps the wait: a linger
    /// never burns more than half of the tightest queued budget (see
    /// `shard_loop`).
    pub linger: Duration,
    /// Per-shard queue bound. Deadline-less submitters block once this many
    /// requests are waiting for one topology (backpressure instead of
    /// unbounded memory growth); deadline'd requests are shed instead.
    pub queue_capacity: usize,
    /// Cap on pool threads (submitting dispatcher + helpers) each shard may
    /// use for its ADMM tiles and forward-pass kernels. `None` = share the
    /// whole `teal_nn::pool`. Set this when topology counts grow past core
    /// counts so shards degrade into roughly-even lanes instead of
    /// thrashing the pool. Setting a cap also arms the per-tenant
    /// deficit-round-robin window arbiter (see [`crate::wfq`]): shards
    /// sharing one budget take turns by [`ServeConfig::tenant_weights`].
    pub shard_threads: Option<usize>,
    /// Order in which each drained window is served (default EDF).
    pub drain_order: DrainOrder,
    /// Weighted-fair-queuing weights by tenant id. Unlisted tenants
    /// (including `"default"`) weigh 1. Only consulted when
    /// [`ServeConfig::shard_threads`] is set — without a shared budget,
    /// shards are independent lanes and there is nothing to arbitrate.
    pub tenant_weights: Vec<(String, u32)>,
    /// ADMM iteration budget a window is downgraded to when its deadline
    /// headroom is tighter than the shard's observed queue-wait p99 (the
    /// paper's §3.4 knob: 2 iterations under pressure, the configured
    /// maximum — typically 5 — otherwise). Downgrades are counted in
    /// [`crate::AdmmStats::budget_downgrades`].
    pub pressured_budget: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            linger: Duration::from_micros(200),
            queue_capacity: 1024,
            shard_threads: None,
            drain_order: DrainOrder::EarliestDeadlineFirst,
            tenant_weights: Vec::new(),
            pressured_budget: 2,
        }
    }
}

/// One topology's dispatch lane: private queue, condvars, and telemetry
/// slot. The shard's dispatcher thread additionally owns two
/// [`BatchScratch`]es (thread-local by construction — they live on the
/// dispatcher's stack and are never shared).
struct Shard {
    topology: String,
    queue: Mutex<VecDeque<Request>>,
    /// Signals the shard dispatcher that work (or shutdown) is pending.
    nonempty: Condvar,
    /// Signals submitters that queue space freed up.
    space: Condvar,
    /// This shard's telemetry slot (also registered in the global
    /// [`Telemetry`] for snapshots).
    stats: Arc<Mutex<ShardStats>>,
}

/// A shard plus its dispatcher thread handle (held by the daemon for
/// joining at shutdown).
struct ShardHandle {
    shard: Arc<Shard>,
    thread: thread::JoinHandle<()>,
}

/// Shared state between submitters and the shard dispatchers.
struct Inner<M: PolicyModel> {
    registry: ModelRegistry<M>,
    cfg: ServeConfig,
    /// Topology id → dispatch shard, created lazily on first submit.
    /// Locked only to route a request (a map read) or create a shard —
    /// never across compute.
    shards: Mutex<HashMap<String, ShardHandle>>,
    shutdown: AtomicBool,
    /// `Arc` so the wire front end's event loop can record wire-level
    /// events against the same counters the serving core feeds.
    telemetry: Arc<Telemetry>,
    /// Per-tenant DRR window arbiter; armed iff `cfg.shard_threads` is set
    /// (shards sharing one thread budget contend; independent shards
    /// don't).
    wfq: Option<WfqScheduler>,
}

/// The long-running TE serving core (see module docs). Transport front
/// ends ([`crate::TealServer`]) and in-process callers share this object.
pub struct ServeDaemon<M: PolicyModel + Send + Sync + 'static> {
    inner: Arc<Inner<M>>,
}

impl<M: PolicyModel + Send + Sync + 'static> ServeDaemon<M> {
    /// Start the daemon over `registry` (which may be empty; topologies can
    /// be registered and swapped while serving). Shards spawn lazily: the
    /// first request for a registered topology brings up its dispatch lane.
    pub fn start(registry: ModelRegistry<M>, cfg: ServeConfig) -> Self {
        let wfq = cfg
            .shard_threads
            .is_some()
            .then(|| WfqScheduler::new(&cfg.tenant_weights));
        ServeDaemon {
            inner: Arc::new(Inner {
                registry,
                cfg,
                shards: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                telemetry: Arc::new(Telemetry::default()),
                wfq,
            }),
        }
    }

    /// Start with default tuning.
    pub fn with_defaults(registry: ModelRegistry<M>) -> Self {
        Self::start(registry, ServeConfig::default())
    }

    /// The topology/model registry (register or hot-swap while serving).
    pub fn registry(&self) -> &ModelRegistry<M> {
        &self.inner.registry
    }

    /// A consistent copy of the serving statistics.
    pub fn stats(&self) -> TelemetrySnapshot {
        self.inner.telemetry.snapshot()
    }

    /// The tuning configuration this daemon was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// The live telemetry counters — shared with the wire front end so it
    /// can record wire-level events (e.g. unmatched replies) alongside the
    /// serving core's own.
    #[cfg(all(target_os = "linux", not(teal_loom)))]
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// The shard for `topology`, creating it (and its dispatcher thread) on
    /// first use. `None` when the daemon is shutting down — checked under
    /// the shard-map lock, so no shard can appear after [`Self::shutdown`]
    /// has collected the map.
    fn shard(&self, topology: &str) -> Option<Arc<Shard>> {
        let mut map = self.inner.shards.lock();
        if self.inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(h) = map.get(topology) {
            return Some(Arc::clone(&h.shard));
        }
        let shard = Arc::new(Shard {
            topology: topology.to_string(),
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            stats: self.inner.telemetry.shard_stats(topology),
        });
        let thread = {
            let inner = Arc::clone(&self.inner);
            let shard = Arc::clone(&shard);
            thread::spawn_named(&format!("teal-serve-{topology}"), move || {
                shard_loop(&inner, &shard)
            })
        };
        map.insert(
            topology.to_string(),
            ShardHandle {
                shard: Arc::clone(&shard),
                thread,
            },
        );
        Some(shard)
    }

    /// Enqueue a request; returns a [`Ticket`] immediately. Blocks only
    /// when the topology's shard queue is at capacity *and* the request
    /// carries no deadline (backpressure); deadline'd requests are shed
    /// instead of queued late (see the module docs' admission-control
    /// section).
    pub fn submit(&self, req: SubmitRequest) -> Ticket {
        let slot = ResponseSlot::new();
        self.submit_on(req, Arc::clone(&slot));
        Ticket::new(slot)
    }

    /// [`ServeDaemon::submit`] into a caller-provided response slot — the
    /// hook the wire front end uses so it can register the slot in its
    /// reply map *before* any fulfillment (including synchronous submit
    /// errors) can fire.
    pub(crate) fn submit_on(&self, req: SubmitRequest, slot: Arc<ResponseSlot>) {
        if self.inner.shutdown.load(Ordering::Acquire) {
            slot.fulfill(Err(ServeError::ShuttingDown));
            return;
        }
        // Route by topology. Unknown ids fail here instead of spawning a
        // dispatch lane per typo'd request.
        let Some(ctx) = self.inner.registry.get(&req.topology) else {
            slot.fulfill(Err(ServeError::UnknownTopology(req.topology)));
            return;
        };
        // Validate the failure overrides against the serving topology up
        // front: a typo'd link must be a per-request error, not a silent
        // no-op override (or a whole-group BadTopology later).
        let signature = req.override_signature();
        let topo = ctx.env().topo();
        for &(a, b) in &signature {
            if a >= topo.num_nodes()
                || b >= topo.num_nodes()
                || (topo.find_edge(a, b).is_none() && topo.find_edge(b, a).is_none())
            {
                slot.fulfill(Err(ServeError::BadRequest(format!(
                    "failed link {a}-{b} does not exist in topology {:?}",
                    req.topology
                ))));
                return;
            }
        }
        let Some(shard) = self.shard(&req.topology) else {
            slot.fulfill(Err(ServeError::ShuttingDown));
            return;
        };
        let now = now();
        // Shed a request whose budget is already gone: enqueueing it could
        // only produce a stale allocation nobody will apply.
        if req.deadline.is_some_and(|d| d.is_zero()) {
            self.inner.telemetry.on_shed();
            slot.fulfill(Err(ServeError::DeadlineExceeded));
            return;
        }
        let tenant: Arc<str> = Arc::from(req.tenant_id());
        let request = Request {
            tm: req.tm,
            trace: Trace::at(now),
            expires: req.deadline.map(|d| now + d),
            signature,
            tenant,
            slot: Arc::clone(&slot),
        };
        {
            let mut q = shard.queue.lock();
            if request.expires.is_some() && q.len() >= self.inner.cfg.queue_capacity {
                // Admission control: a deadline'd request meeting a full
                // queue is refused *now* — blocking would silently convert
                // its budget into queueing delay.
                drop(q);
                self.inner.telemetry.on_shed();
                slot.fulfill(Err(ServeError::Overloaded(format!(
                    "shard {:?} queue full ({} waiting)",
                    shard.topology, self.inner.cfg.queue_capacity
                ))));
                return;
            }
            while q.len() >= self.inner.cfg.queue_capacity
                && !self.inner.shutdown.load(Ordering::Acquire)
            {
                q = shard.space.wait(q);
            }
            // Checked under the queue lock: the shard's final
            // drain-or-exit decision holds this same lock, so either this
            // push lands before that drain (and is served) or the flag is
            // visible here and the request is refused — never enqueued
            // after the last drain and dropped (the submit/shutdown race).
            if self.inner.shutdown.load(Ordering::Acquire) {
                drop(q);
                slot.fulfill(Err(ServeError::ShuttingDown));
                return;
            }
            q.push_back(request);
            self.inner.telemetry.on_enqueue();
        }
        shard.nonempty.notify_one();
    }

    /// Submit a plain request and block for the reply (convenience for
    /// synchronous callers).
    pub fn allocate(
        &self,
        topology: impl Into<String>,
        tm: TrafficMatrix,
    ) -> Result<ServeReply, ServeError> {
        self.submit(SubmitRequest::new(topology, tm)).wait()
    }

    /// Stop accepting requests, serve everything already queued on every
    /// shard, and join the shard dispatchers. Idempotent, callable from any
    /// thread (even concurrently with submitters); also runs on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Collect the shard map first: creation re-checks the flag under
        // this lock, so no new shard can appear afterwards.
        let handles: Vec<ShardHandle> = {
            let mut map = self.inner.shards.lock();
            map.drain().map(|(_, h)| h).collect()
        };
        for h in &handles {
            // The wakeup must hold the queue lock: the shutdown flag is an
            // atomic the dispatcher checks *under* that lock, so a bare
            // notify could land in the window between a dispatcher's flag
            // check and its wait registration — the store+notify would
            // both be missed and the shard would sleep through shutdown
            // forever, hanging the join below. Taking the lock first means
            // any dispatcher that saw the flag clear has already parked
            // (and gets this notify), and any later one sees the flag set.
            // `model::shutdown_straggler_sweep` checks exactly this
            // ordering (`SweepMutation::NotifyOutsideLock`).
            let q = h.shard.queue.lock();
            h.shard.nonempty.notify_all();
            h.shard.space.notify_all();
            drop(q);
        }
        for h in handles {
            // A dispatcher that panicked mid-drain must not abort shutdown
            // (this also runs on drop): its queued requests are swept below
            // so no client hangs on a stranded ticket.
            let _ = h.thread.join();
            // Safety net: the queue-lock protocol above means the shard
            // exits only with an empty queue, but a stranded ticket would
            // hang its client forever — sweep and refuse rather than trust.
            let mut q = h.shard.queue.lock();
            let leftover: Vec<Request> = q.drain(..).collect();
            drop(q);
            if !leftover.is_empty() {
                self.inner.telemetry.on_drain(leftover.len());
            }
            for req in leftover {
                self.inner.telemetry.on_error();
                req.slot.fulfill(Err(ServeError::ShuttingDown));
            }
        }
    }
}

impl<M: PolicyModel + Send + Sync + 'static> Drop for ServeDaemon<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's dispatcher: drain the shard queue, coalesce, serve through
/// the shard-owned arenas, repeat until shutdown drains it dry.
fn shard_loop<M: PolicyModel>(inner: &Inner<M>, shard: &Shard) {
    // The shard's private ADMM arenas (see module docs for ownership
    // rules): one for the steady-state path, one for failure overrides so
    // a failure burst never disturbs the steady arena's warmed state.
    let mut scratch = BatchScratch::new();
    let mut failure_scratch = BatchScratch::new();
    // Failure scenarios this shard has already built the overridden
    // topology for: a sustained burst on one degraded topology must not
    // pay a topology clone + rebuild per window. Keyed by the `Env` whose
    // topology the overrides were derived from — holding the `Arc` both
    // detects a registry swap to a different environment (cache cleared)
    // and makes pointer comparison ABA-safe; hot checkpoint swaps keep the
    // env, so the cache survives them.
    let mut overrides = OverrideCache::new();
    loop {
        let drained = {
            let mut q = shard.queue.lock();
            while q.is_empty() && !inner.shutdown.load(Ordering::Acquire) {
                q = shard.nonempty.wait(q);
            }
            if q.is_empty() {
                // Shutdown with an empty queue: done. This decision is made
                // under the queue lock — see `submit_on` for why no request
                // can slip in afterwards.
                return;
            }
            // Micro-batching window: once work exists, linger briefly so
            // concurrent submitters can pile on and share the forward pass.
            // Deadline'd traffic caps the wait: lingering past a queued
            // request's expiry converts its whole budget into queueing
            // delay and then expires it at drain — the linger bug this
            // codepath used to have. Capping at the expiry itself is just
            // as fatal (the condvar wakes at-or-after the timeout, i.e.
            // exactly when the request is already dead), so the cap is each
            // deadline'd request's *midpoint* — enqueue + budget/2 — which
            // guarantees the drain leaves at least half the budget for
            // solving. The midpoint is anchored at enqueue, so repeated
            // wakeups never ratchet the cap toward the expiry.
            if !inner.cfg.linger.is_zero() {
                let deadline = now() + inner.cfg.linger;
                while q.len() < inner.cfg.max_batch && !inner.shutdown.load(Ordering::Acquire) {
                    let cap = q
                        .iter()
                        .filter_map(|r| {
                            let e = r.expires?;
                            let enq = r.trace.enqueued();
                            Some(enq + e.saturating_duration_since(enq) / 2)
                        })
                        .min();
                    let effective = cap.map_or(deadline, |c| deadline.min(c));
                    let now = now();
                    if now >= effective {
                        break;
                    }
                    // No timed-out fast path: a wakeup re-derives the cap
                    // because a tighter deadline may have arrived meanwhile.
                    let (guard, _) = shard.nonempty.wait_timeout(q, effective - now);
                    q = guard;
                }
            }
            let drained: Vec<Request> = q.drain(..).collect();
            // Gauge only: this decrements queue depth for everything taken
            // off the queue, expired requests included. The *batch-size
            // distribution* is recorded per served chunk (post-expiry,
            // post-grouping) in `serve_chunk` → `record_batch`.
            inner.telemetry.on_drain(drained.len());
            drop(q);
            shard.space.notify_all();
            drained
        };
        // Per-shard thread cap: bind the pool fan-out of everything this
        // window computes (forward-pass kernels and ADMM tiles alike) from
        // this, the submitting thread.
        match inner.cfg.shard_threads {
            Some(cap) => teal_nn::pool::with_thread_cap(cap, || {
                serve_drained(
                    inner,
                    shard,
                    &mut scratch,
                    &mut failure_scratch,
                    &mut overrides,
                    drained,
                );
            }),
            None => serve_drained(
                inner,
                shard,
                &mut scratch,
                &mut failure_scratch,
                &mut overrides,
                drained,
            ),
        }
    }
}

/// Per-shard cache of failure-overridden topologies (see `shard_loop`).
struct OverrideCache {
    /// The environment the cached topologies were derived from.
    env: Option<Arc<teal_core::Env>>,
    /// Canonical failure signature → (prebuilt overridden topology,
    /// last-touched tick) for LRU eviction.
    topos: HashMap<Vec<(usize, usize)>, (Topology, u64)>,
    /// Monotonic access counter backing the LRU ordering.
    tick: u64,
    /// Topology rebuilds performed (cache misses). Test hook: the thrash
    /// regression below pins that hot signatures survive cold churn.
    builds: u64,
}

/// Most distinct failure scenarios a shard caches topologies for. Failure
/// signatures are client-chosen (up to 2^links valid combinations), so an
/// unbounded cache would let a hostile wire client grow server memory
/// without limit. At the cap, only the least-recently-used entry is
/// evicted — the old clear-everything policy meant one cold scenario per
/// window wiped the hot set and forced a rebuild storm on live bursts.
const MAX_CACHED_OVERRIDES: usize = 32;

impl OverrideCache {
    fn new() -> Self {
        OverrideCache {
            env: None,
            topos: HashMap::new(),
            tick: 0,
            builds: 0,
        }
    }

    /// The overridden topology for `sig`, built (and cached) on first use
    /// against `env`'s base topology.
    fn get(&mut self, env: &Arc<teal_core::Env>, sig: &[(usize, usize)]) -> &Topology {
        if !self.env.as_ref().is_some_and(|e| Arc::ptr_eq(e, env)) {
            self.topos.clear();
            self.env = Some(Arc::clone(env));
        }
        self.tick += 1;
        let tick = self.tick;
        if !self.topos.contains_key(sig) {
            if self.topos.len() >= MAX_CACHED_OVERRIDES {
                if let Some(lru) = self
                    .topos
                    .iter()
                    .min_by_key(|&(_, &(_, touched))| touched)
                    .map(|(k, _)| k.clone())
                {
                    self.topos.remove(&lru);
                }
            }
            self.builds += 1;
            let mut topo = env.topo().clone();
            for &(a, b) in sig {
                topo = topo.with_failed_link(a, b);
            }
            self.topos.insert(sig.to_vec(), (topo, tick));
        }
        let Some(entry) = self.topos.get_mut(sig) else {
            unreachable!("signature was present or just inserted")
        };
        entry.1 = tick;
        &entry.0
    }
}

/// Serve one drained queue segment: expire stale requests, split the rest
/// into the steady-state sub-batch and one sub-batch per failure-override
/// signature, and push each through the batched path in `max_batch`-sized
/// chunks against one context snapshot.
fn serve_drained<M: PolicyModel>(
    inner: &Inner<M>,
    shard: &Shard,
    scratch: &mut BatchScratch,
    failure_scratch: &mut BatchScratch,
    overrides: &mut OverrideCache,
    drained: Vec<Request>,
) {
    // One context snapshot per drain: every request in it is served by the
    // same weights even if a hot swap lands mid-drain.
    let Some(ctx) = inner.registry.get(&shard.topology) else {
        for req in drained {
            // Count before unblocking, like every other reply path: a
            // client that has its reply always sees itself in `stats()`.
            inner.telemetry.on_error();
            req.slot
                .fulfill(Err(ServeError::UnknownTopology(shard.topology.clone())));
        }
        return;
    };
    // Admission control, drain side: a request whose deadline lapsed while
    // queued must not occupy a lane in the forward pass — its caller has
    // already moved on.
    let now = now();
    let mut live = Vec::with_capacity(drained.len());
    for req in drained {
        if req.expires.is_some_and(|e| e <= now) {
            inner.telemetry.on_expired();
            req.slot.fulfill(Err(ServeError::DeadlineExceeded));
        } else {
            // No drain stamp here: queue-wait ends at the *chunk's* solve
            // start (stamped in `serve_chunk`), so multi-chunk drains still
            // partition end-to-end latency exactly — stamping once per
            // drain charged every later chunk's wait to the solve span.
            live.push(req);
        }
    }
    // EDF drain order (default): deadline'd requests first, tightest expiry
    // first; the sort is stable so ties and deadline-less requests keep
    // arrival order. Sorting *before* grouping means the order also holds
    // within every signature sub-batch.
    if inner.cfg.drain_order == DrainOrder::EarliestDeadlineFirst {
        live.sort_by_key(|r| drain_key(r.expires));
    }
    // Group by override signature, preserving drain order within each
    // group. The empty signature — the steady-state path — is always group
    // 0 and is served out of the shard's primary arena; each failure
    // scenario gets its own coalesced sub-batch on the failure arena.
    type SignatureGroup = (Vec<(usize, usize)>, Vec<Request>);
    let mut groups: Vec<SignatureGroup> = vec![(Vec::new(), Vec::new())];
    for req in live {
        match groups.iter_mut().find(|(sig, _)| *sig == req.signature) {
            Some((_, g)) => g.push(req),
            None => groups.push((req.signature.clone(), vec![req])),
        }
    }
    // EDF invariant telemetry: within each group's serving order, count
    // adjacent deadline'd pairs that run tighter-after-looser. Always zero
    // under EDF (the sort precedes grouping and grouping is order
    // preserving); under FIFO it measures how often arrival order inverts
    // urgency.
    let mut inversions = 0u64;
    for (_, g) in &groups {
        let mut last: Option<Instant> = None;
        for r in g {
            if let Some(e) = r.expires {
                if last.is_some_and(|prev| prev > e) {
                    inversions += 1;
                }
                last = Some(e);
            }
        }
    }
    inner.telemetry.on_deadline_inversions(inversions);
    // Flatten the groups into the drain's serving order of `max_batch`-sized
    // windows before touching the WFQ arbiter: fair queuing needs the *next*
    // window's ticket enqueued while the current one still holds its grant
    // (one-ahead reservation — see `crate::wfq`), so this shard stays
    // backlogged at the arbiter for the whole drain instead of degenerating
    // to strict alternation with whoever else shares the thread budget.
    let mut windows: Vec<SignatureGroup> = Vec::new();
    for (sig, mut requests) in groups {
        while !requests.is_empty() {
            let take = requests.len().min(inner.cfg.max_batch.max(1));
            windows.push((sig.clone(), requests.drain(..take).collect()));
        }
    }
    let mut iter = windows.into_iter().peekable();
    let mut reservation = iter
        .peek()
        .and_then(|(_, c)| inner.wfq.as_ref().map(|w| w.enqueue(&dominant_tenant(c))));
    while let Some((sig, chunk)) = iter.next() {
        // A reservation exists only if `inner.wfq` does (it was minted from
        // it), so the `(Some, None)` arm is unreachable and maps to no
        // grant.
        let window = match (reservation.take(), inner.wfq.as_ref()) {
            (Some(r), Some(w)) => Some(w.wait(r)),
            _ => None,
        };
        // Holding this chunk's grant, reserve the next chunk's slot.
        reservation = iter
            .peek()
            .and_then(|(_, c)| inner.wfq.as_ref().map(|w| w.enqueue(&dominant_tenant(c))));
        let (override_topo, group_scratch) = if sig.is_empty() {
            (None, &mut *scratch)
        } else {
            (Some(overrides.get(ctx.env(), &sig)), &mut *failure_scratch)
        };
        serve_chunk(
            inner,
            shard,
            group_scratch,
            &ctx,
            override_topo,
            chunk,
            window,
        );
    }
}

/// Serve one coalesced chunk (plain or failure-overridden), isolating
/// faults without losing batching. The engine's [`AllocError::BadRequest`]
/// names the offending request, so only that one is failed and the
/// remainder is re-batched in a single pass — one malformed matrix must not
/// serialize (or error) 31 innocent requests. A poisoned worker is a
/// *server* fault: the chunk gets a retryable [`ServeError::Internal`],
/// never `BadRequest`. `catch_unwind` stays as a last line of defense
/// against panics the engine does not classify, degrading to per-request
/// serving.
fn serve_chunk<M: PolicyModel>(
    inner: &Inner<M>,
    shard: &Shard,
    scratch: &mut BatchScratch,
    ctx: &Arc<ServingContext<M>>,
    override_topo: Option<&Topology>,
    mut chunk: Vec<Request>,
    window: Option<crate::wfq::WindowGrant<'_>>,
) {
    let allocate = |tms: &[TrafficMatrix], scratch: &mut BatchScratch| match override_topo {
        Some(topo) => ctx.try_allocate_batch_on_with(topo, tms, scratch),
        None => ctx.try_allocate_batch_with(tms, scratch),
    };
    // Per-tenant fair queuing: when shards share a thread budget, the
    // caller already waited out the DRR schedule for this window, charged
    // to the chunk's dominant tenant. The grant is RAII — held across the
    // whole chunk and released on every return path, panics included.
    let dominant = dominant_tenant(&chunk);
    let _window = window;
    // Adaptive ADMM budget, the paper's §3.4 iterations-as-latency-knob: a
    // chunk carrying deadline'd requests whose tightest remaining headroom
    // is smaller than this shard's observed queue-wait p99 is under
    // pressure — it runs `pressured_budget` fine-tune iterations instead
    // of the configured maximum, trading a sliver of allocation quality
    // for making the deadline at all. Deadline-less chunks always run the
    // full budget. The override is sticky on the arena for exactly this
    // chunk (reset here on every call), so retries after evictions keep
    // the decision and the next chunk re-derives it.
    let full_budget = ctx.config().admm.map(|a| a.max_iters);
    let downgraded = match full_budget {
        Some(full) if full > inner.cfg.pressured_budget => {
            match chunk.iter().filter_map(|r| r.expires).min() {
                Some(earliest) => {
                    let headroom = earliest.saturating_duration_since(now());
                    let p99 = shard.stats.lock().queue_wait_p99();
                    headroom < p99
                }
                None => false,
            }
        }
        _ => false,
    };
    scratch.set_iteration_budget(downgraded.then_some(inner.cfg.pressured_budget));
    // Cloned once; evictions below remove the matching entry instead of
    // re-cloning the whole remainder each retry.
    let mut tms: Vec<TrafficMatrix> = chunk.iter().map(|r| r.tm.clone()).collect();
    while !chunk.is_empty() {
        // Solve span: forward pass + ADMM fine-tuning for this attempt. A
        // re-batch after a bad-request eviction restamps — the successful
        // attempt is the one whose span is reported. The drain stamp lands
        // here too (queue-wait ends where the solve begins), so the three
        // stages partition end-to-end latency exactly even when one drain
        // serves many chunks back to back.
        let solve_start = now();
        for r in chunk.iter_mut() {
            r.trace.stamp_drained(solve_start);
            r.trace.stamp_solve_start(solve_start);
        }
        let batched =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| allocate(&tms, scratch)));
        let solve_end = now();
        for r in chunk.iter_mut() {
            r.trace.stamp_solve_end(solve_end);
        }
        match batched {
            // A model whose allocate_batch drops or invents results would
            // silently strand zipped-out clients on their slots forever;
            // fail the whole chunk loudly instead.
            Ok(Ok((allocs, _))) if allocs.len() != chunk.len() => {
                let got = allocs.len();
                for req in chunk {
                    inner.telemetry.on_error();
                    req.slot.fulfill(Err(ServeError::Internal(format!(
                        "model returned {got} allocations for a batch of {}",
                        tms.len()
                    ))));
                }
                return;
            }
            Ok(Ok((allocs, _))) => {
                let batch_size = chunk.len();
                // One reply-write stamp for the whole chunk: per-stage
                // spans and the end-to-end latency are derived from the
                // same instant so the stages always sum to the total.
                let solve = scratch.solve_report();
                let done = now();
                let latencies: Vec<Duration> = chunk
                    .iter()
                    .map(|r| done.saturating_duration_since(r.trace.enqueued()))
                    .collect();
                let stages: Vec<StageTimings> =
                    chunk.iter().map(|r| r.trace.stages(done)).collect();
                // Count the batch before unblocking any client, so a caller
                // that has its reply always sees itself in `stats()`.
                shard
                    .stats
                    .lock()
                    .record_batch(&latencies, &stages, solve.as_ref(), downgraded);
                charge_tenants(&inner.telemetry, &chunk, &dominant);
                inner.telemetry.on_complete(latencies.len() as u64);
                for (((req, allocation), latency), stages) in
                    chunk.into_iter().zip(allocs).zip(latencies).zip(stages)
                {
                    req.slot.fulfill(Ok(ServeReply {
                        allocation,
                        latency,
                        stages,
                        batch_size,
                    }));
                }
                return;
            }
            Ok(Err(AllocError::BadRequest { index, reason })) if index < chunk.len() => {
                // Evict only the named offender; loop to re-batch the rest.
                let req = chunk.remove(index);
                tms.remove(index);
                inner.telemetry.on_error();
                req.slot.fulfill(Err(ServeError::BadRequest(reason)));
            }
            Ok(Err(e)) => {
                for req in chunk {
                    inner.telemetry.on_error();
                    req.slot.fulfill(Err(ServeError::Internal(e.to_string())));
                }
                return;
            }
            Err(_) => {
                for mut req in chunk {
                    let retry_start = now();
                    // Re-stamp the drain too: this singleton's queue-wait
                    // runs until *its* solve attempt, keeping the stage
                    // partition exact for degraded serving as well.
                    req.trace.stamp_drained(retry_start);
                    req.trace.stamp_solve_start(retry_start);
                    let one = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        allocate(std::slice::from_ref(&req.tm), scratch)
                    }));
                    req.trace.stamp_solve_end(now());
                    match one {
                        Ok(Ok((mut allocs, _))) if allocs.len() == 1 => {
                            let Some(allocation) = allocs.pop() else {
                                unreachable!("len checked == 1")
                            };
                            let solve = scratch.solve_report();
                            let done = now();
                            let latency = done.saturating_duration_since(req.trace.enqueued());
                            let stages = req.trace.stages(done);
                            shard.stats.lock().record_batch(
                                &[latency],
                                &[stages],
                                solve.as_ref(),
                                downgraded,
                            );
                            inner.telemetry.on_tenant(&req.tenant, 1, 1);
                            inner.telemetry.on_complete(1);
                            req.slot.fulfill(Ok(ServeReply {
                                allocation,
                                latency,
                                stages,
                                batch_size: 1,
                            }));
                        }
                        Ok(Ok(_)) => {
                            inner.telemetry.on_error();
                            req.slot.fulfill(Err(ServeError::Internal(
                                "model returned a misaligned singleton batch".into(),
                            )));
                        }
                        Ok(Err(AllocError::BadRequest { reason, .. })) => {
                            inner.telemetry.on_error();
                            req.slot.fulfill(Err(ServeError::BadRequest(reason)));
                        }
                        Ok(Err(e)) => {
                            inner.telemetry.on_error();
                            req.slot.fulfill(Err(ServeError::Internal(e.to_string())));
                        }
                        Err(_) => {
                            inner.telemetry.on_error();
                            req.slot.fulfill(Err(ServeError::Internal(format!(
                                "allocation panicked for topology {:?} \
                                 (matrix of {} demands)",
                                shard.topology,
                                req.tm.len()
                            ))));
                        }
                    }
                }
                return;
            }
        }
    }
}

/// EDF sort key: deadline'd requests before deadline-less ones, tightest
/// expiry first. Pure so the ordering is property-testable without a
/// daemon; used with a *stable* sort, ties (and all deadline-less
/// requests) keep arrival order.
fn drain_key(expires: Option<Instant>) -> (bool, Option<Instant>) {
    (expires.is_none(), expires)
}

/// The tenant a chunk's window is charged to in the DRR schedule: the one
/// tagging the most requests, ties broken toward the lexicographically
/// smallest id (deterministic under concurrency).
fn dominant_tenant(chunk: &[Request]) -> Arc<str> {
    let mut counts: Vec<(Arc<str>, u64)> = Vec::new();
    for r in chunk {
        match counts.iter_mut().find(|(t, _)| **t == *r.tenant) {
            Some((_, n)) => *n += 1,
            None => counts.push((Arc::clone(&r.tenant), 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|(at, an), (bt, bn)| an.cmp(bn).then_with(|| bt.cmp(at)))
        .map(|(t, _)| t)
        .unwrap_or_else(|| Arc::from("default"))
}

/// Per-tenant accounting for one successfully served chunk: every request
/// counts toward its own tenant; the window counts toward the dominant
/// tenant the DRR schedule charged it to.
fn charge_tenants(telemetry: &Telemetry, chunk: &[Request], dominant: &str) {
    let mut counts: Vec<(&str, u64)> = Vec::new();
    for r in chunk {
        match counts.iter_mut().find(|(t, _)| *t == &*r.tenant) {
            Some((_, n)) => *n += 1,
            None => counts.push((&r.tenant, 1)),
        }
    }
    for (t, n) in counts {
        telemetry.on_tenant(t, n, u64::from(t == dominant));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EDF ordering property, on the pure sort key the drain path uses:
    /// across randomized queues, after a stable sort (1) every deadline'd
    /// request precedes every deadline-less one, (2) deadline'd requests
    /// are non-decreasing in expiry, and (3) deadline-less requests keep
    /// their relative arrival order.
    #[test]
    fn edf_drain_key_orders_randomized_queues() {
        let base = now();
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        for _case in 0..200 {
            let n = (next() % 24) as usize;
            // (arrival index, expires)
            let queue: Vec<(usize, Option<Instant>)> = (0..n)
                .map(|i| {
                    let e = if next() % 3 == 0 {
                        // Coarse buckets force plenty of exact ties.
                        Some(base + Duration::from_millis(u64::from(next() % 8) * 10))
                    } else {
                        None
                    };
                    (i, e)
                })
                .collect();
            let mut sorted = queue.clone();
            sorted.sort_by_key(|&(_, e)| drain_key(e));
            let first_plain = sorted.iter().position(|(_, e)| e.is_none());
            for (pos, (_, e)) in sorted.iter().enumerate() {
                if let Some(cut) = first_plain {
                    assert_eq!(
                        e.is_none(),
                        pos >= cut,
                        "deadline'd request after a plain one at {pos}"
                    );
                }
            }
            let deadlines: Vec<Instant> = sorted.iter().filter_map(|&(_, e)| e).collect();
            assert!(
                deadlines.windows(2).all(|w| w[0] <= w[1]),
                "expiries not non-decreasing"
            );
            let plain_order: Vec<usize> = sorted
                .iter()
                .filter(|(_, e)| e.is_none())
                .map(|&(i, _)| i)
                .collect();
            assert!(
                plain_order.windows(2).all(|w| w[0] < w[1]),
                "stable sort broke FIFO order of deadline-less requests"
            );
            // Ties among deadline'd requests also keep arrival order.
            for pair in sorted.windows(2) {
                if let ((i, Some(a)), (j, Some(b))) = (pair[0], pair[1]) {
                    if a == b {
                        assert!(i < j, "stable sort broke FIFO order within an expiry tie");
                    }
                }
            }
        }
    }

    /// Regression for the override-cache thrash bug: at capacity the old
    /// code cleared the *whole* cache, so one cold scenario per window
    /// forced the hot set to rebuild every time. LRU eviction must keep
    /// recently-used signatures cached through cold churn.
    #[test]
    fn override_cache_evicts_lru_not_everything() {
        let env = Arc::new(teal_core::Env::for_topology(teal_topology::b4()));
        let mut cache = OverrideCache::new();
        let hot_a: Vec<(usize, usize)> = vec![(0, 1)];
        let hot_b: Vec<(usize, usize)> = vec![(1, 2)];
        cache.get(&env, &hot_a);
        cache.get(&env, &hot_b);
        // Cold churn well past capacity, touching the hot pair every step
        // so it stays most-recently-used.
        for i in 0..2 * MAX_CACHED_OVERRIDES {
            cache.get(&env, &[(i, i + 1000)]);
            cache.get(&env, &hot_a);
            cache.get(&env, &hot_b);
        }
        let builds = cache.builds;
        assert_eq!(
            builds as usize,
            2 + 2 * MAX_CACHED_OVERRIDES,
            "every distinct signature should have been built exactly once"
        );
        // Alternating the hot signatures must now be pure cache hits.
        for _ in 0..64 {
            cache.get(&env, &hot_a);
            cache.get(&env, &hot_b);
        }
        assert_eq!(
            cache.builds, builds,
            "hot signatures were rebuilt — LRU eviction is thrashing"
        );
        assert!(cache.topos.len() <= MAX_CACHED_OVERRIDES);
    }
}

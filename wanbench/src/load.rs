//! Per-request samples taken on the client side, and the `serve.*`,
//! `net.*` and `client.*` metrics derived from them.

use crate::report::{mean, ms, us, Metrics};
use crate::trace::Spans;
use std::time::{Duration, Instant};
use teal_serve::{ServeReply, StageTimings};

/// A reply later than this counts as lost (and fails the run) instead of
/// hanging it.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request, as the client saw it.
#[derive(Clone, Copy)]
pub struct Sample {
    /// When the request was due to be sent (open loop), or when its
    /// window's burst began (closed loop).
    pub due: Instant,
    /// `TealClient::submit` entered and returned.
    pub submit: (Instant, Instant),
    /// When the client saw the reply.
    pub seen: Instant,
    /// The server's own enqueue → reply-ready latency.
    pub latency: Duration,
    pub stages: StageTimings,
    pub batch_size: usize,
}

impl Sample {
    pub fn new(
        due: Instant,
        submit: (Instant, Instant),
        seen: Instant,
        reply: &ServeReply,
    ) -> Self {
        Sample {
            due,
            submit,
            seen,
            latency: reply.latency,
            stages: reply.stages,
            batch_size: reply.batch_size,
        }
    }

    /// Latency from the due time, in ms (what a user of an open-loop
    /// schedule waits, including any generator lag).
    pub fn due_latency_ms(&self) -> f64 {
        ms(self.seen.saturating_duration_since(self.due))
    }

    /// Latency from the start of `submit`, in ms.
    pub fn client_ms(&self) -> f64 {
        ms(self.seen.saturating_duration_since(self.submit.0))
    }

    /// Client-observed latency minus the server's own latency: encode,
    /// loopback, event loop, decode and reply pickup.
    pub fn net_ms(&self) -> f64 {
        self.client_ms() - ms(self.latency)
    }

    /// Server latency not covered by the three stages (e.g. waiting for
    /// an earlier sub-batch of the same window).
    pub fn unstaged_ms(&self) -> f64 {
        let s = self.stages;
        ms(self.latency) - ms(s.queue_wait + s.solve + s.write)
    }

    /// Record this request's spans under `key`: the client-observed
    /// request at `base`, its submit, and the server's stages laid end to
    /// end from the moment submit returned (the server reports durations,
    /// not instants).
    pub fn record_spans(&self, spans: &mut Spans, key: u64, base: u64, parent: Option<u64>) {
        if !spans.on() {
            return;
        }
        spans.record("req", key, base, parent, self.submit.0, self.seen);
        spans.record(
            "client.submit",
            key,
            base + 1,
            Some(base),
            self.submit.0,
            self.submit.1,
        );
        let unstaged = self
            .latency
            .saturating_sub(self.stages.queue_wait + self.stages.solve + self.stages.write);
        let mut at = self.submit.1;
        for (i, (name, d)) in [
            ("serve.queue_wait", self.stages.queue_wait),
            ("serve.unstaged", unstaged),
            ("serve.solve", self.stages.solve),
            ("serve.write", self.stages.write),
        ]
        .into_iter()
        .enumerate()
        {
            spans.record(name, key, base + 2 + i as u64, Some(base), at, at + d);
            at += d;
        }
    }
}

/// Span slots one request uses (see [`Sample::record_spans`]).
pub const REQUEST_SLOTS: u64 = 6;

/// `serve.*`, `net.*` and `client.*` metrics over `samples`, plus the
/// wire layer-sum check: (net + queue wait + solve + write) against the
/// client-observed latency, with the server time outside the stages
/// reported as the named residual `serve.unstaged_ms_mean`.
pub fn serve_metrics(samples: &[Sample], m: &mut Metrics) {
    let col = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    m.put_percentiles(
        "serve.queue_wait_ms",
        &col(&|s| ms(s.stages.queue_wait)),
        99,
        "ms",
    );
    m.put_percentiles("serve.solve_ms", &col(&|s| ms(s.stages.solve)), 99, "ms");
    m.put_percentiles("serve.write_ms", &col(&|s| ms(s.stages.write)), 99, "ms");
    m.put(
        "serve.batch_size_mean",
        mean(&col(&|s| s.batch_size as f64)),
        "requests",
        samples.len(),
    );
    m.put_percentiles("net.overhead_ms", &col(&|s| s.net_ms()), 99, "ms");
    m.put_percentiles(
        "client.submit_us",
        &col(&|s| us(s.submit.1 - s.submit.0)),
        99,
        "us",
    );
    let staged: f64 = samples
        .iter()
        .map(|s| s.net_ms() + ms(s.stages.queue_wait + s.stages.solve + s.stages.write))
        .sum();
    let client: f64 = samples.iter().map(Sample::client_ms).sum();
    m.put(
        "serve.stage_sum_ratio",
        staged / client,
        "ratio",
        samples.len(),
    );
    m.put(
        "serve.unstaged_ms_mean",
        mean(&col(&|s| s.unstaged_ms())),
        "ms",
        samples.len(),
    );
}

/// `serve.shed`, `serve.expired` and `serve.unmatched_replies` from the
/// daemon's counters (plus replies the clients could not match).
pub fn daemon_counters(
    snap: &teal_serve::TelemetrySnapshot,
    client_unmatched: u64,
    m: &mut Metrics,
) {
    m.put("serve.shed", snap.shed as f64, "count", 1);
    m.put("serve.expired", snap.expired as f64, "count", 1);
    m.put(
        "serve.unmatched_replies",
        (snap.unmatched_replies + client_unmatched) as f64,
        "count",
        1,
    );
}

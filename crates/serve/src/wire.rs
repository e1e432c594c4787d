//! Length-prefixed binary wire codec for the TCP front end.
//!
//! Every message on a connection is a *frame*: a little-endian `u32`
//! payload length followed by the payload, whose first byte is the message
//! kind. A connection opens with a versioned handshake (client sends
//! [`encode_hello`], server answers [`encode_hello_ok`] or closes), after
//! which the client pipelines [`encode_request`] frames and the server
//! answers with [`encode_reply`] frames **in any order** — replies are
//! matched to requests by the caller-chosen `u64` request id, never by
//! position, which is what lets the server drain tickets as they complete.
//!
//! The payload encodings are fixed-layout little-endian (no
//! self-description): the version field in the handshake is the only
//! compatibility gate, and it is bumped whenever any layout below changes.
//! Round-trip identity for every message type (including every
//! [`ServeError`] variant) is property-tested in
//! `crates/serve/tests/wire_roundtrip.rs`.
//!
//! Frames have one decode path, [`FrameDecoder`]: it resumes across
//! arbitrary partial reads (a frame split anywhere — even
//! mid-length-prefix — decodes identically; see
//! `crates/serve/tests/decoder_resume.rs`). The event loop feeds it
//! whatever a nonblocking read produced; the client drives the same
//! decoder over a blocking socket with [`FrameDecoder::read_frame`].
//! Frames are written either one at a time with [`write_frame`] (the
//! client) or through the event loop's [`WriteQueue`], which encodes
//! replies *appended* into one pooled per-connection buffer so a
//! steady-state flush path allocates nothing once warm
//! (`crates/serve/tests/write_path_alloc.rs`).
//!
//! Layouts (after the kind byte):
//!
//! ```text
//! HELLO      magic b"TEAL" · version u16
//! HELLO_OK   version u16
//! REQUEST    id u64 · topology str · deadline (u8 flag, u64 ns if 1)
//!            · tenant (u8 flag, str if 1; absent = "default" tenant)
//!            · failed links (u32 count, (u32, u32) node pairs)
//!            · demands (u32 count, f64 each)
//! REPLY      id u64 · tag u8
//!            tag 0 (ok):  k u16 · num_demands u32 · splits f64 × (nd·k)
//!                         · latency u64 ns
//!                         · stage ns u64 × 3 (queue_wait, solve, write)
//!                         · batch_size u32
//!            tag 1 (err): error code u8 · message str
//! STATS      id u64                        (telemetry scrape request)
//! STATS_OK   id u64
//!            · topologies (u32 count, each: topology str
//!              · requests u64 · batches u64
//!              · 4 stages (e2e, queue_wait, solve, write), each
//!                mean/p50/p99 u64 ns
//!              · admm flag u8; if 1: windows/lanes/iterations/
//!                budgeted_iterations/budget_downgrades/
//!                min_lane_iters/max_lane_iters/frozen_lanes u64 × 8
//!                · windows by budget (u32 count, (u64 budget, u64 n))
//!                · last_primal/max_primal/last_dual/max_dual f64 × 4)
//!            · batch sizes (u32 count, each: size u32 · n u64)
//!            · queue_depth u64 · max_queue_depth u64
//!            · completed u64 · shed u64 · expired u64
//!            · deadline_inversions u64 · unmatched_replies u64
//!            · pool jobs/caller_chunks/helper_chunks/capped_skips u64 × 4
//!            · slow exemplars (u32 count, each: topology str
//!              · latency u64 ns · stage ns u64 × 3 · batch_size u32)
//!            · tenants (u32 count, each: tenant str
//!              · requests u64 · windows u64)
//! str        u32 byte length · UTF-8 bytes
//! ```

use std::io::{self, Read, Write};
use std::time::Duration;
use teal_lp::Allocation;
use teal_nn::pool::PoolStats;
use teal_traffic::TrafficMatrix;

use crate::request::{ServeError, ServeReply, SubmitRequest};
use crate::telemetry::{
    AdmmStats, LatencyStats, SlowExemplar, StageTimings, TelemetrySnapshot, TenantSnapshot,
    TopoSnapshot,
};

/// Handshake magic: the first bytes any teal-serve peer sends.
pub const MAGIC: &[u8; 4] = b"TEAL";
/// Wire protocol version; bump on any layout change.
/// v2: REPLY gained per-stage spans; STATS/STATS_OK scrape frames added.
/// v3: REQUEST gained the flag-gated tenant tag; STATS_OK gained per-budget
/// window counts / budget downgrades, the deadline-inversion counter, and
/// the per-tenant section.
/// v4: STATS_OK gained the unmatched-replies counter.
pub const VERSION: u16 = 4;
/// Upper bound on a single frame (guards the length prefix against a
/// corrupt or hostile peer asking us to allocate gigabytes).
pub const MAX_FRAME: u32 = 64 << 20;

/// Message kinds (first payload byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Hello = 1,
    HelloOk = 2,
    Request = 3,
    Reply = 4,
    /// Telemetry scrape request (client → server).
    Stats = 5,
    /// Telemetry snapshot reply (server → client).
    StatsOk = 6,
}

/// A malformed or incompatible frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer sent bytes that do not decode (message named in the text).
    Protocol(String),
    /// Handshake version mismatch.
    Version { got: u16, want: u16 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Protocol(m) => write!(f, "wire protocol error: {m}"),
            WireError::Version { got, want } => {
                write!(
                    f,
                    "wire version mismatch: peer speaks v{got}, we speak v{want}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------- frames

/// Write one frame (length prefix + payload) to `w`. The payload buffer is
/// caller-owned so steady-state senders reuse one encode buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

// --------------------------------------------------------------- writing

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Durations travel as u64 nanoseconds (saturating, like deadlines).
fn put_dur(buf: &mut Vec<u8>, d: Duration) {
    buf.extend_from_slice(&(d.as_nanos().min(u128::from(u64::MAX)) as u64).to_le_bytes());
}

fn put_latency_stats(buf: &mut Vec<u8>, s: &LatencyStats) {
    put_dur(buf, s.mean);
    put_dur(buf, s.p50);
    put_dur(buf, s.p99);
}

/// Encode the client half of the handshake.
pub fn encode_hello(buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(Kind::Hello as u8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
}

/// Encode the server half of the handshake.
pub fn encode_hello_ok(buf: &mut Vec<u8>) {
    buf.clear();
    put_hello_ok(buf);
}

/// Append a HELLO_OK payload (shared by the clearing encoder above and
/// [`WriteQueue::push_hello_ok`]).
fn put_hello_ok(buf: &mut Vec<u8>) {
    buf.push(Kind::HelloOk as u8);
    buf.extend_from_slice(&VERSION.to_le_bytes());
}

/// Encode one request under the caller-chosen pipelining id.
pub fn encode_request(buf: &mut Vec<u8>, id: u64, req: &SubmitRequest) {
    buf.clear();
    buf.push(Kind::Request as u8);
    buf.extend_from_slice(&id.to_le_bytes());
    put_str(buf, &req.topology);
    match req.deadline {
        Some(d) => {
            buf.push(1);
            buf.extend_from_slice(&(d.as_nanos().min(u128::from(u64::MAX)) as u64).to_le_bytes());
        }
        None => buf.push(0),
    }
    match &req.tenant {
        Some(t) => {
            buf.push(1);
            put_str(buf, t);
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&(req.failed_links.len() as u32).to_le_bytes());
    for &(a, b) in &req.failed_links {
        buf.extend_from_slice(&(a as u32).to_le_bytes());
        buf.extend_from_slice(&(b as u32).to_le_bytes());
    }
    buf.extend_from_slice(&(req.tm.len() as u32).to_le_bytes());
    for &v in req.tm.demands() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Stable error code for each [`ServeError`] variant.
fn error_code(e: &ServeError) -> u8 {
    match e {
        ServeError::UnknownTopology(_) => 0,
        ServeError::ShuttingDown => 1,
        ServeError::Checkpoint(_) => 2,
        ServeError::BadRequest(_) => 3,
        ServeError::Internal(_) => 4,
        ServeError::DeadlineExceeded => 5,
        ServeError::Overloaded(_) => 6,
    }
}

/// Encode one reply (success or typed error) under its request id.
pub fn encode_reply(buf: &mut Vec<u8>, id: u64, reply: &Result<ServeReply, ServeError>) {
    buf.clear();
    put_reply(buf, id, reply);
}

/// Append a REPLY payload (shared by the clearing encoder above and
/// [`WriteQueue::push_reply`]).
fn put_reply(buf: &mut Vec<u8>, id: u64, reply: &Result<ServeReply, ServeError>) {
    buf.push(Kind::Reply as u8);
    buf.extend_from_slice(&id.to_le_bytes());
    match reply {
        Ok(r) => {
            buf.push(0);
            buf.extend_from_slice(&(r.allocation.k() as u16).to_le_bytes());
            buf.extend_from_slice(&(r.allocation.num_demands() as u32).to_le_bytes());
            for &v in r.allocation.splits() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            put_dur(buf, r.latency);
            put_dur(buf, r.stages.queue_wait);
            put_dur(buf, r.stages.solve);
            put_dur(buf, r.stages.write);
            buf.extend_from_slice(&(r.batch_size as u32).to_le_bytes());
        }
        Err(e) => {
            buf.push(1);
            buf.push(error_code(e));
            let msg = match e {
                ServeError::UnknownTopology(m)
                | ServeError::Checkpoint(m)
                | ServeError::BadRequest(m)
                | ServeError::Internal(m)
                | ServeError::Overloaded(m) => m.as_str(),
                ServeError::ShuttingDown | ServeError::DeadlineExceeded => "",
            };
            put_str(buf, msg);
        }
    }
}

/// Encode a telemetry scrape request under the caller-chosen pipelining id
/// (STATS frames share the reply id space with REQUEST frames).
pub fn encode_stats_request(buf: &mut Vec<u8>, id: u64) {
    buf.clear();
    buf.push(Kind::Stats as u8);
    buf.extend_from_slice(&id.to_le_bytes());
}

/// Encode a full telemetry snapshot as the reply to scrape `id`.
pub fn encode_stats_reply(buf: &mut Vec<u8>, id: u64, snap: &TelemetrySnapshot) {
    buf.clear();
    put_stats_reply(buf, id, snap);
}

/// Append a STATS_OK payload (shared by the clearing encoder above and
/// [`WriteQueue::push_stats_reply`]).
fn put_stats_reply(buf: &mut Vec<u8>, id: u64, snap: &TelemetrySnapshot) {
    buf.push(Kind::StatsOk as u8);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(snap.per_topology.len() as u32).to_le_bytes());
    for t in &snap.per_topology {
        put_str(buf, &t.topology);
        buf.extend_from_slice(&t.requests.to_le_bytes());
        buf.extend_from_slice(&t.batches.to_le_bytes());
        put_latency_stats(
            buf,
            &LatencyStats {
                mean: t.mean,
                p50: t.p50,
                p99: t.p99,
            },
        );
        put_latency_stats(buf, &t.queue_wait);
        put_latency_stats(buf, &t.solve);
        put_latency_stats(buf, &t.write);
        match &t.admm {
            Some(a) => {
                buf.push(1);
                for v in [
                    a.windows,
                    a.lanes,
                    a.iterations,
                    a.budgeted_iterations,
                    a.budget_downgrades,
                    a.min_lane_iterations,
                    a.max_lane_iterations,
                    a.frozen_lanes,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(a.windows_by_budget.len() as u32).to_le_bytes());
                for &(budget, n) in &a.windows_by_budget {
                    buf.extend_from_slice(&budget.to_le_bytes());
                    buf.extend_from_slice(&n.to_le_bytes());
                }
                for v in [
                    a.last_primal_residual,
                    a.max_primal_residual,
                    a.last_dual_residual,
                    a.max_dual_residual,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            None => buf.push(0),
        }
    }
    buf.extend_from_slice(&(snap.batch_sizes.len() as u32).to_le_bytes());
    for &(size, n) in &snap.batch_sizes {
        buf.extend_from_slice(&(size as u32).to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
    }
    for v in [
        snap.queue_depth as u64,
        snap.max_queue_depth as u64,
        snap.completed,
        snap.shed,
        snap.expired,
        snap.deadline_inversions,
        snap.unmatched_replies,
        snap.pool.jobs,
        snap.pool.caller_chunks,
        snap.pool.helper_chunks,
        snap.pool.capped_skips,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&(snap.slow.len() as u32).to_le_bytes());
    for e in &snap.slow {
        put_str(buf, &e.topology);
        put_dur(buf, e.latency);
        put_dur(buf, e.stages.queue_wait);
        put_dur(buf, e.stages.solve);
        put_dur(buf, e.stages.write);
        buf.extend_from_slice(&(e.batch_size as u32).to_le_bytes());
    }
    buf.extend_from_slice(&(snap.tenants.len() as u32).to_le_bytes());
    for t in &snap.tenants {
        put_str(buf, &t.tenant);
        buf.extend_from_slice(&t.requests.to_le_bytes());
        buf.extend_from_slice(&t.windows.to_le_bytes());
    }
}

// --------------------------------------------------------------- reading

/// Cursor over a frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WireError::Protocol(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let mut bytes = [0u8; 2];
        bytes.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(bytes))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Protocol("string field is not UTF-8".into()))
    }

    /// Validate a decoded element count against the bytes actually left in
    /// the frame *before* any `Vec::with_capacity` — a hostile count field
    /// must be a protocol error, never a multi-gigabyte allocation request
    /// (which would abort the process on failure).
    fn check_count(&self, n: usize, elem_bytes: usize, what: &str) -> Result<(), WireError> {
        let need = n.checked_mul(elem_bytes);
        let have = self.buf.len() - self.pos;
        match need {
            Some(need) if need <= have => Ok(()),
            _ => Err(WireError::Protocol(format!(
                "{what} count {n} exceeds the {have} bytes remaining in the frame"
            ))),
        }
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// The message kind of a payload (its first byte).
pub fn peek_kind(payload: &[u8]) -> Result<Kind, WireError> {
    match payload.first() {
        Some(1) => Ok(Kind::Hello),
        Some(2) => Ok(Kind::HelloOk),
        Some(3) => Ok(Kind::Request),
        Some(4) => Ok(Kind::Reply),
        Some(5) => Ok(Kind::Stats),
        Some(6) => Ok(Kind::StatsOk),
        Some(k) => Err(WireError::Protocol(format!("unknown message kind {k}"))),
        None => Err(WireError::Protocol("empty frame".into())),
    }
}

/// Validate a HELLO payload, returning the peer's version.
pub fn decode_hello(payload: &[u8]) -> Result<u16, WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != Kind::Hello as u8 {
        return Err(WireError::Protocol("expected HELLO".into()));
    }
    if r.take(4)? != MAGIC {
        return Err(WireError::Protocol("bad handshake magic".into()));
    }
    let version = r.u16()?;
    r.done()?;
    if version != VERSION {
        return Err(WireError::Version {
            got: version,
            want: VERSION,
        });
    }
    Ok(version)
}

/// Validate a HELLO_OK payload, returning the server's version.
pub fn decode_hello_ok(payload: &[u8]) -> Result<u16, WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != Kind::HelloOk as u8 {
        return Err(WireError::Protocol("expected HELLO_OK".into()));
    }
    let version = r.u16()?;
    r.done()?;
    if version != VERSION {
        return Err(WireError::Version {
            got: version,
            want: VERSION,
        });
    }
    Ok(version)
}

/// Decode a REQUEST payload into `(id, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, SubmitRequest), WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != Kind::Request as u8 {
        return Err(WireError::Protocol("expected REQUEST".into()));
    }
    let id = r.u64()?;
    let topology = r.str()?;
    let deadline = match r.u8()? {
        0 => None,
        1 => Some(Duration::from_nanos(r.u64()?)),
        f => return Err(WireError::Protocol(format!("bad deadline flag {f}"))),
    };
    let tenant = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        f => return Err(WireError::Protocol(format!("bad tenant flag {f}"))),
    };
    let nlinks = r.u32()? as usize;
    r.check_count(nlinks, 8, "failed-link")?;
    let mut failed_links = Vec::with_capacity(nlinks);
    for _ in 0..nlinks {
        let a = r.u32()? as usize;
        let b = r.u32()? as usize;
        failed_links.push((a, b));
    }
    let nd = r.u32()? as usize;
    r.check_count(nd, 8, "demand")?;
    let mut demands = Vec::with_capacity(nd);
    for _ in 0..nd {
        demands.push(r.f64()?);
    }
    r.done()?;
    // NaN, infinite or negative volumes are a malformed frame: rejected
    // here, before `TrafficMatrix`'s invariant can panic the decoding
    // thread.
    let tm = TrafficMatrix::try_new(demands).map_err(|e| WireError::Protocol(e.to_string()))?;
    Ok((
        id,
        SubmitRequest {
            topology,
            tm,
            deadline,
            failed_links,
            tenant,
        },
    ))
}

/// Decode a REPLY payload into `(id, result)`.
#[allow(clippy::type_complexity)]
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Result<ServeReply, ServeError>), WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != Kind::Reply as u8 {
        return Err(WireError::Protocol("expected REPLY".into()));
    }
    let id = r.u64()?;
    let result = match r.u8()? {
        0 => {
            let k = r.u16()? as usize;
            let nd = r.u32()? as usize;
            if k == 0 {
                return Err(WireError::Protocol("reply with k = 0 paths".into()));
            }
            let n = nd
                .checked_mul(k)
                .ok_or_else(|| WireError::Protocol("split count overflow".into()))?;
            r.check_count(n, 8, "split")?;
            let mut splits = Vec::with_capacity(n);
            for _ in 0..n {
                splits.push(r.f64()?);
            }
            let latency = Duration::from_nanos(r.u64()?);
            let stages = StageTimings {
                queue_wait: Duration::from_nanos(r.u64()?),
                solve: Duration::from_nanos(r.u64()?),
                write: Duration::from_nanos(r.u64()?),
            };
            let batch_size = r.u32()? as usize;
            Ok(ServeReply {
                allocation: Allocation::from_splits(k, splits),
                latency,
                stages,
                batch_size,
            })
        }
        1 => {
            let code = r.u8()?;
            let msg = r.str()?;
            Err(match code {
                0 => ServeError::UnknownTopology(msg),
                1 => ServeError::ShuttingDown,
                2 => ServeError::Checkpoint(msg),
                3 => ServeError::BadRequest(msg),
                4 => ServeError::Internal(msg),
                5 => ServeError::DeadlineExceeded,
                6 => ServeError::Overloaded(msg),
                c => {
                    return Err(WireError::Protocol(format!("unknown error code {c}")));
                }
            })
        }
        t => return Err(WireError::Protocol(format!("bad reply tag {t}"))),
    };
    r.done()?;
    Ok((id, result))
}

/// Decode a STATS payload into the scrape id.
pub fn decode_stats_request(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != Kind::Stats as u8 {
        return Err(WireError::Protocol("expected STATS".into()));
    }
    let id = r.u64()?;
    r.done()?;
    Ok(id)
}

fn read_dur(r: &mut Reader<'_>) -> Result<Duration, WireError> {
    Ok(Duration::from_nanos(r.u64()?))
}

fn read_latency_stats(r: &mut Reader<'_>) -> Result<LatencyStats, WireError> {
    Ok(LatencyStats {
        mean: read_dur(r)?,
        p50: read_dur(r)?,
        p99: read_dur(r)?,
    })
}

/// Decode a STATS_OK payload into `(id, snapshot)`.
pub fn decode_stats_reply(payload: &[u8]) -> Result<(u64, TelemetrySnapshot), WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != Kind::StatsOk as u8 {
        return Err(WireError::Protocol("expected STATS_OK".into()));
    }
    let id = r.u64()?;
    let ntopo = r.u32()? as usize;
    // Minimum bytes per topology entry: empty name (4) + two counters (16)
    // + 4 stages × 3 quantiles × 8 + the admm flag (1).
    r.check_count(ntopo, 4 + 16 + 96 + 1, "topology")?;
    let mut per_topology = Vec::with_capacity(ntopo);
    for _ in 0..ntopo {
        let topology = r.str()?;
        let requests = r.u64()?;
        let batches = r.u64()?;
        let e2e = read_latency_stats(&mut r)?;
        let queue_wait = read_latency_stats(&mut r)?;
        let solve = read_latency_stats(&mut r)?;
        let write = read_latency_stats(&mut r)?;
        let admm = match r.u8()? {
            0 => None,
            1 => {
                let windows = r.u64()?;
                let lanes = r.u64()?;
                let iterations = r.u64()?;
                let budgeted_iterations = r.u64()?;
                let budget_downgrades = r.u64()?;
                let min_lane_iterations = r.u64()?;
                let max_lane_iterations = r.u64()?;
                let frozen_lanes = r.u64()?;
                let nbudgets = r.u32()? as usize;
                r.check_count(nbudgets, 16, "windows-by-budget")?;
                let mut windows_by_budget = Vec::with_capacity(nbudgets);
                for _ in 0..nbudgets {
                    let budget = r.u64()?;
                    let n = r.u64()?;
                    windows_by_budget.push((budget, n));
                }
                Some(AdmmStats {
                    windows,
                    lanes,
                    iterations,
                    budgeted_iterations,
                    budget_downgrades,
                    windows_by_budget,
                    min_lane_iterations,
                    max_lane_iterations,
                    frozen_lanes,
                    last_primal_residual: r.f64()?,
                    max_primal_residual: r.f64()?,
                    last_dual_residual: r.f64()?,
                    max_dual_residual: r.f64()?,
                })
            }
            f => return Err(WireError::Protocol(format!("bad admm flag {f}"))),
        };
        per_topology.push(TopoSnapshot {
            topology,
            requests,
            batches,
            mean: e2e.mean,
            p50: e2e.p50,
            p99: e2e.p99,
            queue_wait,
            solve,
            write,
            admm,
        });
    }
    let nsizes = r.u32()? as usize;
    r.check_count(nsizes, 12, "batch-size")?;
    let mut batch_sizes = Vec::with_capacity(nsizes);
    for _ in 0..nsizes {
        let size = r.u32()? as usize;
        let n = r.u64()?;
        batch_sizes.push((size, n));
    }
    let queue_depth = r.u64()? as usize;
    let max_queue_depth = r.u64()? as usize;
    let completed = r.u64()?;
    let shed = r.u64()?;
    let expired = r.u64()?;
    let deadline_inversions = r.u64()?;
    let unmatched_replies = r.u64()?;
    let pool = PoolStats {
        jobs: r.u64()?,
        caller_chunks: r.u64()?,
        helper_chunks: r.u64()?,
        capped_skips: r.u64()?,
    };
    let nslow = r.u32()? as usize;
    // Empty name (4) + four spans (32) + batch size (4).
    r.check_count(nslow, 40, "slow-exemplar")?;
    let mut slow = Vec::with_capacity(nslow);
    for _ in 0..nslow {
        let topology = r.str()?;
        let latency = read_dur(&mut r)?;
        let stages = StageTimings {
            queue_wait: read_dur(&mut r)?,
            solve: read_dur(&mut r)?,
            write: read_dur(&mut r)?,
        };
        let batch_size = r.u32()? as usize;
        slow.push(SlowExemplar {
            topology,
            latency,
            stages,
            batch_size,
        });
    }
    let ntenants = r.u32()? as usize;
    // Empty name (4) + two counters (16).
    r.check_count(ntenants, 20, "tenant")?;
    let mut tenants = Vec::with_capacity(ntenants);
    for _ in 0..ntenants {
        let tenant = r.str()?;
        let requests = r.u64()?;
        let windows = r.u64()?;
        tenants.push(TenantSnapshot {
            tenant,
            requests,
            windows,
        });
    }
    r.done()?;
    Ok((
        id,
        TelemetrySnapshot {
            per_topology,
            batch_sizes,
            tenants,
            queue_depth,
            max_queue_depth,
            completed,
            shed,
            expired,
            deadline_inversions,
            unmatched_replies,
            pool,
            slow,
        },
    ))
}

// ------------------------------------- frame decoder, event-loop writes

/// Incremental frame decoder: feed whatever bytes the socket produced,
/// then pull complete frame payloads as they materialize. A frame split
/// at *any* byte boundary — including inside the 4-byte length prefix —
/// decodes identically to the same frame delivered whole. Blocking
/// readers use [`FrameDecoder::read_frame`], which does the feeding.
///
/// The [`MAX_FRAME`] guard fires as soon as a hostile length prefix
/// becomes visible, **before** any buffer growth driven by it: the decoder
/// only ever buffers bytes the peer actually sent, never
/// `with_capacity(attacker_len)`.
#[derive(Default)]
pub struct FrameDecoder {
    /// Raw received bytes not yet returned as frames: `pending[pos..]` is
    /// live, `pending[..pos]` is consumed and reclaimed by compaction.
    pending: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// The length prefix of the frame at the parse cursor, if fully
    /// visible.
    fn peek_len(&self) -> Option<u32> {
        let avail = &self.pending[self.pos..];
        if avail.len() < 4 {
            return None;
        }
        let mut len = [0u8; 4];
        len.copy_from_slice(&avail[..4]);
        Some(u32::from_le_bytes(len))
    }

    /// Reject a visible hostile length prefix before buffering anything
    /// more behind it.
    fn check_len(&self) -> Result<(), WireError> {
        match self.peek_len() {
            Some(len) if len > MAX_FRAME => Err(WireError::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            ))),
            _ => Ok(()),
        }
    }

    /// Buffer `bytes` as received from the socket. Errors as soon as the
    /// current frame's length prefix is visible and exceeds [`MAX_FRAME`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.check_len()?;
        // Compact before growing: once the consumed prefix dominates the
        // buffer (or everything is consumed), reclaim it in place so a
        // long-lived connection's buffer stays at its high-water mark
        // instead of growing without bound.
        if self.pos == self.pending.len() {
            self.pending.clear();
            self.pos = 0;
        } else if self.pos >= (64 << 10) && self.pos * 2 >= self.pending.len() {
            self.pending.drain(..self.pos);
            self.pos = 0;
        }
        self.pending.extend_from_slice(bytes);
        self.check_len()
    }

    /// The next complete frame payload, or `None` until more bytes arrive.
    /// The returned slice is valid until the next `feed`/`next_frame`
    /// call.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(len) = self.peek_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(WireError::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        let len = len as usize;
        if self.pending.len() - self.pos < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.pending[start..start + len]))
    }

    /// Bytes buffered but not yet returned as a complete frame (a clean
    /// EOF with `residue() > 0` means the peer died mid-frame).
    pub fn residue(&self) -> usize {
        self.pending.len() - self.pos
    }

    /// Blocking read of the next frame payload from `r`, feeding this
    /// decoder until a frame completes. Returns `Ok(None)` on clean EOF at
    /// a frame boundary and an error on EOF mid-frame. Bytes read past the
    /// returned frame stay buffered for the next call, so one decoder must
    /// serve a stream for its whole life. The returned slice is valid
    /// until the next call on this decoder.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<&[u8]>, WireError> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.peek_len() {
                Some(len) if len > MAX_FRAME || self.residue() >= 4 + len as usize => {
                    return self.next_frame();
                }
                _ => {}
            }
            let n = match r.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            };
            if n == 0 {
                return match self.residue() {
                    0 => Ok(None),
                    left => Err(WireError::Protocol(format!(
                        "peer closed mid-frame with {left} bytes buffered"
                    ))),
                };
            }
            self.feed(&chunk[..n])?;
        }
    }
}

/// Per-connection pooled write queue for the event loop: replies are
/// encoded **appended** onto one persistent buffer (each frame's length
/// prefix is reserved up front and patched after the body lands), and
/// [`WriteQueue::flush`] pushes as much backlog as the socket will take in
/// one `writev`-style burst, tracking a head cursor across
/// `EWOULDBLOCK` partial writes so frames are never corrupted, reordered
/// or resent.
///
/// Fully-drained flushes rewind the buffer (`clear` keeps capacity), and a
/// persistent backlog is compacted in place, so the steady-state
/// encode/flush path performs **zero heap allocations** once the buffer
/// has grown to its high-water mark (`tests/write_path_alloc.rs` proves
/// this under a counting allocator).
#[derive(Default)]
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    head: usize,
}

impl WriteQueue {
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// No bytes are waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Bytes encoded but not yet accepted by the socket.
    pub fn backlog(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Reserve a frame's length prefix; returns its offset for
    /// [`WriteQueue::end_frame`].
    fn begin_frame(&mut self) -> usize {
        if self.head == self.buf.len() {
            // Everything flushed: rewind and reuse the capacity.
            self.buf.clear();
            self.head = 0;
        } else if self.head >= (64 << 10) && self.head * 2 >= self.buf.len() {
            // A slow reader left a persistent backlog: compact in place
            // (memmove, no allocation) once the dead prefix dominates.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        at
    }

    /// Patch the length prefix reserved at `at` now that the body landed.
    fn end_frame(&mut self, at: usize) {
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Queue the server half of the handshake.
    pub fn push_hello_ok(&mut self) {
        let at = self.begin_frame();
        put_hello_ok(&mut self.buf);
        self.end_frame(at);
    }

    /// Queue one REPLY frame.
    pub fn push_reply(&mut self, id: u64, reply: &Result<ServeReply, ServeError>) {
        let at = self.begin_frame();
        put_reply(&mut self.buf, id, reply);
        self.end_frame(at);
    }

    /// Queue one STATS_OK frame.
    pub fn push_stats_reply(&mut self, id: u64, snap: &TelemetrySnapshot) {
        let at = self.begin_frame();
        put_stats_reply(&mut self.buf, id, snap);
        self.end_frame(at);
    }

    /// Write backlog through `write` (typically `|b| stream.write(b)`)
    /// until drained or the socket pushes back. Returns `Ok(true)` once
    /// the queue is empty, `Ok(false)` on `EWOULDBLOCK` (re-arm `EPOLLOUT`
    /// and retry on writability). The head cursor means a partial write
    /// resumes mid-frame exactly where the socket stopped.
    pub fn flush(&mut self, mut write: impl FnMut(&[u8]) -> io::Result<usize>) -> io::Result<bool> {
        while self.head < self.buf.len() {
            match write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.head = 0;
        Ok(true)
    }

    /// Drop all queued bytes (dead socket: stop encoding for it).
    pub fn abandon(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

//! `TealClient`: a blocking TCP client with pipelined submits.
//!
//! [`TealClient::submit`] encodes and sends the request immediately and
//! returns a [`Ticket`] — the same handle in-process callers get — without
//! waiting for the reply; callers pipeline as many requests as they like
//! and redeem the tickets in any order. A background reader thread matches
//! REPLY frames to tickets by request id (the server answers out of
//! order), so one slow request never blocks the replies behind it.
//!
//! The client is shareable across threads (`submit` takes `&self`; sends
//! are serialized by a short-held writer lock, replies are dispatched by
//! the reader thread), and the request ids are minted from one atomic —
//! concurrent submitters commute, mirroring the serving core's submit
//! path. A dropped or failed connection fulfills every outstanding ticket
//! with [`ServeError::Internal`] rather than hanging its waiters.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::telemetry::now;
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;
use teal_traffic::TrafficMatrix;

use crate::request::{ResponseSlot, ServeError, ServeReply, SubmitRequest, Ticket};
use crate::telemetry::TelemetrySnapshot;
use crate::wire;

/// One-shot slot a telemetry scrape waits on (the STATS twin of
/// [`ResponseSlot`], carrying a snapshot instead of an allocation).
struct StatsSlot {
    slot: Mutex<Option<Result<TelemetrySnapshot, ServeError>>>,
    ready: Condvar,
}

impl StatsSlot {
    fn new() -> Arc<Self> {
        Arc::new(StatsSlot {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, r: Result<TelemetrySnapshot, ServeError>) {
        let mut slot = self.slot.lock();
        *slot = Some(r);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<TelemetrySnapshot, ServeError> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.ready.wait(slot);
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Result<TelemetrySnapshot, ServeError> {
        let deadline = now() + timeout;
        let mut slot = self.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            let current = now();
            if current >= deadline {
                return Err(ServeError::DeadlineExceeded);
            }
            let (guard, _) = self.ready.wait_timeout(slot, deadline - current);
            slot = guard;
        }
    }
}

/// Client-side shared state between submitters and the reader thread.
struct ClientShared {
    /// In-flight request id → response slot.
    pending: Mutex<HashMap<u64, Arc<ResponseSlot>>>,
    /// In-flight telemetry scrape id → stats slot (ids share the request
    /// id space; the server keys both reply kinds off the same counter).
    stats_pending: Mutex<HashMap<u64, Arc<StatsSlot>>>,
    /// Set once the reader has exited (connection gone): new submits fail
    /// fast instead of queueing onto a dead socket.
    closed: AtomicBool,
    /// Reply/STATS_OK frames whose id matched nothing pending. A nonzero
    /// count means id bookkeeping broke somewhere (client or server) —
    /// previously these were silently dropped, hiding the bug.
    unmatched: AtomicU64,
}

impl ClientShared {
    /// Fail every in-flight request and scrape (connection died or client
    /// dropped).
    fn fail_all(&self, why: &str) {
        let drained: Vec<Arc<ResponseSlot>> = {
            let mut pending = self.pending.lock();
            pending.drain().map(|(_, s)| s).collect()
        };
        for slot in drained {
            slot.fulfill(Err(ServeError::Internal(why.to_string())));
        }
        let drained: Vec<Arc<StatsSlot>> = {
            let mut stats = self.stats_pending.lock();
            stats.drain().map(|(_, s)| s).collect()
        };
        for slot in drained {
            slot.fulfill(Err(ServeError::Internal(why.to_string())));
        }
    }
}

/// Blocking TCP client for a [`crate::TealServer`] (see module docs).
pub struct TealClient {
    /// Sender half plus its reusable encode buffer; the lock is held only
    /// to encode and write one frame.
    writer: Mutex<(TcpStream, Vec<u8>)>,
    /// Reader half (kept for shutdown on drop).
    stream: TcpStream,
    shared: Arc<ClientShared>,
    next_id: AtomicU64,
    reader: Option<thread::JoinHandle<()>>,
}

impl TealClient {
    /// Connect and perform the versioned handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TealClient> {
        let mut stream = TcpStream::connect(addr)?;
        // Pipelined small frames: never let Nagle hold a request back for
        // a delayed ACK.
        stream.set_nodelay(true)?;
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf);
        wire::write_frame(&mut stream, &buf)?;
        // The reader thread inherits this decoder: any bytes that arrived
        // behind HELLO_OK are already buffered in it.
        let mut decoder = wire::FrameDecoder::new();
        match decoder.read_frame(&mut stream) {
            Ok(Some(frame)) => wire::decode_hello_ok(frame)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
            Ok(None) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server closed during handshake (version rejected?)",
                ))
            }
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ))
            }
        };
        let shared = Arc::new(ClientShared {
            pending: Mutex::new(HashMap::new()),
            stats_pending: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            unmatched: AtomicU64::new(0),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            let stream = stream.try_clone()?;
            thread::spawn_named("teal-client-reader", move || {
                reader_loop(stream, decoder, &shared)
            })
        };
        Ok(TealClient {
            writer: Mutex::new((stream.try_clone()?, Vec::new())),
            stream,
            shared,
            next_id: AtomicU64::new(0),
            reader: Some(reader),
        })
    }

    /// Pipeline one request; returns its [`Ticket`] immediately. A send
    /// failure (dead connection) is reported through the ticket, keeping
    /// the submit-then-redeem control flow identical to the in-process
    /// daemon API.
    pub fn submit(&self, req: &SubmitRequest) -> Ticket {
        let slot = ResponseSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        if self.shared.closed.load(Ordering::Acquire) {
            slot.fulfill(Err(ServeError::Internal("connection closed".into())));
            return ticket;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Register before sending: the reply can race back before this
        // thread regains the CPU.
        self.shared.pending.lock().insert(id, Arc::clone(&slot));
        let sent = {
            // Encode into the writer-owned buffer under the same short
            // lock that serializes the send: steady-state submitters reuse
            // one buffer instead of allocating per pipelined request.
            let mut w = self.writer.lock();
            let (stream, buf) = &mut *w;
            wire::encode_request(buf, id, req);
            wire::write_frame(stream, buf)
        };
        // Close the race with the reader's fail_all: if the reader
        // observed EOF and drained `pending` between our closed-check and
        // the insert above, nobody else will ever fulfill this slot — the
        // send may even "succeed" into a half-closed socket. Re-checking
        // `closed` after registering makes the overlap visible here.
        if sent.is_err() || self.shared.closed.load(Ordering::Acquire) {
            if let Some(slot) = self.shared.pending.lock().remove(&id) {
                slot.fulfill(Err(ServeError::Internal(if sent.is_err() {
                    "connection write failed".into()
                } else {
                    "connection closed".into()
                })));
            }
        }
        ticket
    }

    /// Submit a plain request and block for the reply.
    pub fn allocate(
        &self,
        topology: impl Into<String>,
        tm: TrafficMatrix,
    ) -> Result<ServeReply, ServeError> {
        self.submit(&SubmitRequest::new(topology, tm)).wait()
    }

    /// [`TealClient::allocate`] with a bounded wait; the wire twin of
    /// [`Ticket::wait_timeout`].
    pub fn allocate_timeout(
        &self,
        topology: impl Into<String>,
        tm: TrafficMatrix,
        timeout: Duration,
    ) -> Result<ServeReply, ServeError> {
        self.submit(&SubmitRequest::new(topology, tm))
            .wait_timeout(timeout)
    }

    /// Scrape the server's live [`TelemetrySnapshot`] over the connection
    /// (a STATS frame). Blocks until the reply arrives; pipelines with
    /// in-flight requests like any other frame.
    pub fn stats(&self) -> Result<TelemetrySnapshot, ServeError> {
        self.request_stats()?.wait()
    }

    /// [`TealClient::stats`] with a bounded wait.
    pub fn stats_timeout(&self, timeout: Duration) -> Result<TelemetrySnapshot, ServeError> {
        self.request_stats()?.wait_timeout(timeout)
    }

    /// Send one STATS frame following submit's register-before-send
    /// protocol (and its reader-race re-check; see [`TealClient::submit`]).
    fn request_stats(&self) -> Result<Arc<StatsSlot>, ServeError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Internal("connection closed".into()));
        }
        let slot = StatsSlot::new();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats_pending
            .lock()
            .insert(id, Arc::clone(&slot));
        let sent = {
            let mut w = self.writer.lock();
            let (stream, buf) = &mut *w;
            wire::encode_stats_request(buf, id);
            wire::write_frame(stream, buf)
        };
        if sent.is_err() || self.shared.closed.load(Ordering::Acquire) {
            if let Some(slot) = self.shared.stats_pending.lock().remove(&id) {
                slot.fulfill(Err(ServeError::Internal(if sent.is_err() {
                    "connection write failed".into()
                } else {
                    "connection closed".into()
                })));
            }
        }
        Ok(slot)
    }

    /// How many REPLY/STATS_OK frames arrived whose request id matched no
    /// pending submission. Always `0` in a healthy deployment; nonzero
    /// means id bookkeeping broke on one side of the connection.
    pub fn unmatched_replies(&self) -> u64 {
        self.shared.unmatched.load(Ordering::Relaxed)
    }
}

impl Drop for TealClient {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            // A panicked reader already ran its fail_all via unwind or is
            // about to be covered by ours below; don't panic in drop.
            let _ = h.join();
        }
        self.shared
            .fail_all("client dropped with requests in flight");
    }
}

/// Match incoming REPLY/STATS_OK frames to pending tickets and stats
/// slots by id until the connection ends; then fail whatever is left.
fn reader_loop(mut stream: TcpStream, mut decoder: wire::FrameDecoder, shared: &ClientShared) {
    // EOF, a socket error, an oversized length prefix and a hangup
    // mid-frame all end the loop the same way: the connection is dead.
    while let Ok(Some(frame)) = decoder.read_frame(&mut stream) {
        match wire::peek_kind(frame) {
            Ok(wire::Kind::Reply) => {
                let Ok((id, result)) = wire::decode_reply(frame) else {
                    break;
                };
                let slot = shared.pending.lock().remove(&id);
                match slot {
                    Some(slot) => slot.fulfill(result),
                    // An unsolicited reply id: count it instead of
                    // silently dropping the frame (the count is the
                    // debugging breadcrumb for broken id bookkeeping).
                    None => {
                        shared.unmatched.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(wire::Kind::StatsOk) => {
                let Ok((id, snap)) = wire::decode_stats_reply(frame) else {
                    break;
                };
                let slot = shared.stats_pending.lock().remove(&id);
                match slot {
                    Some(slot) => slot.fulfill(Ok(snap)),
                    None => {
                        shared.unmatched.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            _ => break, // protocol violation: treat as a dead connection
        }
    }
    shared.closed.store(true, Ordering::Release);
    shared.fail_all("connection closed with requests in flight");
}

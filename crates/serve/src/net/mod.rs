//! The epoll event-loop front end behind [`crate::TealServer`]: **one
//! thread multiplexing every connection**, so the thread budget stays
//! fixed however many sockets attach (the production posture is
//! thousands of mostly-idle keepalive connections).
//!
//! Structure:
//!
//! * [`sys`] holds the workspace's only raw FFI: hand-rolled
//!   `epoll`/`eventfd`/`fcntl` declarations (the crates registry is
//!   unreachable, so no `libc`) behind owned, typed wrappers.
//! * The loop thread owns a slot-map connection table. Tokens pack
//!   `generation << 32 | index`, and every delivered event and completion
//!   wake re-checks the generation, so a stale event can never touch a
//!   recycled connection slot.
//! * Each connection is a **state machine**: an incremental
//!   [`wire::FrameDecoder`] resumes across partial reads, and a pooled
//!   [`wire::WriteQueue`] encodes replies appended into one persistent
//!   buffer, batching every ready reply into one flush, surviving
//!   `EWOULDBLOCK` mid-frame via a head cursor, and arming `EPOLLOUT`
//!   only while a backlog exists.
//! * Shard dispatchers never touch a socket: fulfilling a ticket fires the
//!   connection's [`Completions`] waker, which queues the connection's
//!   token on the loop's wake list and rings an eventfd doorbell
//!   (deduplicated per connection by an atomic flag). The loop drains the
//!   completion queue with [`Completions::try_pop`], encodes, flushes.
//!
//! Ticket fulfillment is the only cross-thread edge, so the shared state
//! is tiny: the shutdown flag, the doorbell, and the wake list — all
//! behind the checked-sync facade below.
//!
//! Shutdown: stop accepting, stop *reading* (queued requests already in
//! shard queues still get served and their replies flushed), then exit
//! once every connection settles — with a bounded drain grace so a
//! stuffed socket to a vanished client cannot wedge the loop forever.
//!
//! Known tradeoff, inherited from [`ServeDaemon::submit_on`]: a
//! deadline-less request meeting a full shard queue *blocks* the
//! submitter as backpressure. On the loop thread that stalls every
//! connection until space frees; deadline'd traffic is shed without
//! blocking.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Arc, Mutex};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use teal_core::PolicyModel;

use crate::daemon::ServeDaemon;
use crate::request::{Completions, ResponseSlot, Ticket};
use crate::telemetry::{now, TelemetrySnapshot};
use crate::wire;

pub(crate) mod sys;

/// Reserved token for the accept listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reserved token for the completion doorbell.
const TOKEN_DOORBELL: u64 = u64::MAX - 1;
/// Read chunk size per `read` call (also the per-wake fairness unit).
const READ_CHUNK: usize = 64 << 10;
/// Reads one connection may issue per wake before yielding to its peers
/// (level-triggered epoll re-reports anything left unread).
const MAX_READS_PER_WAKE: usize = 8;
/// epoll_wait timeout while serving: pure lost-wakeup insurance.
const WAIT_MS: i32 = 200;
/// How long shutdown waits for unflushed replies to stuffed sockets
/// before force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// State shared between the loop thread and the rest of the process
/// (completion wakers on shard dispatchers, [`EventLoopHandle::shutdown`]).
struct LoopShared {
    shutdown: AtomicBool,
    /// Wakes `epoll_wait` when a completion lands or shutdown begins.
    doorbell: sys::EventFd,
    /// Connection tokens with completions to drain, pushed by wakers,
    /// swapped out wholesale by the loop.
    wake: Mutex<Vec<u64>>,
}

/// One connection's state machine, owned entirely by the loop thread
/// (maps need no locks here — fulfillment only touches the response slot
/// and the completion queue).
struct Connection {
    stream: TcpStream,
    fd: i32,
    token: u64,
    decoder: wire::FrameDecoder,
    writeq: wire::WriteQueue,
    completions: Arc<Completions>,
    /// Waker dedup: set by the first completion after a drain, cleared by
    /// the loop before it drains (so a concurrent fulfillment re-queues).
    wake_queued: Arc<AtomicBool>,
    /// Request id → ticket, inserted before submit so even synchronous
    /// submit failures find a home.
    pending: HashMap<u64, Ticket>,
    /// Scrape id → snapshot taken at STATS receipt, announced on the same
    /// completion queue as replies.
    stats: HashMap<u64, TelemetrySnapshot>,
    handshaken: bool,
    /// No further frames will be decoded (EOF, protocol violation, or
    /// server shutdown). Pending tickets still drain and flush.
    read_closed: bool,
    /// The socket's write half failed: consume completions silently.
    write_dead: bool,
    /// Currently armed epoll interest set.
    interest: u32,
}

/// Slot-map entry: the generation advances on every recycle, invalidating
/// stale tokens.
struct Slot {
    generation: u32,
    conn: Option<Connection>,
}

/// Handle the server front end keeps: flips the shutdown flag, rings the
/// doorbell, joins the loop.
pub(crate) struct EventLoopHandle {
    shared: Arc<LoopShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl EventLoopHandle {
    /// Stop accepting and reading, flush what is owed, join the loop.
    /// Idempotent. The caller shuts the daemon down afterwards — the loop
    /// relies on shard dispatchers still fulfilling queued tickets while
    /// it drains.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.doorbell.ring();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for EventLoopHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bring up the loop over an already-bound listener. Registration errors
/// (epoll/eventfd creation) surface here, before any thread spawns.
pub(crate) fn spawn_event_loop<M: PolicyModel + Send + Sync + 'static>(
    daemon: Arc<ServeDaemon<M>>,
    listener: TcpListener,
) -> io::Result<EventLoopHandle> {
    sys::set_nonblocking(sys::listener_fd(&listener))?;
    let epoll = sys::Epoll::new()?;
    let doorbell = sys::EventFd::new()?;
    epoll.add(sys::listener_fd(&listener), sys::EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(doorbell.fd(), sys::EPOLLIN, TOKEN_DOORBELL)?;
    let shared = Arc::new(LoopShared {
        shutdown: AtomicBool::new(false),
        doorbell,
        wake: Mutex::new(Vec::new()),
    });
    let thread = {
        let shared = Arc::clone(&shared);
        let mut lp = EventLoop {
            daemon,
            shared,
            epoll,
            listener: Some(listener),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            events: vec![sys::EpollEvent::default(); 256],
            scratch: vec![0u8; READ_CHUNK],
            wake_scratch: Vec::new(),
            drain_deadline: None,
        };
        thread::spawn_named("teal-serve-epoll", move || lp.run())
    };
    Ok(EventLoopHandle {
        shared,
        thread: Some(thread),
    })
}

struct EventLoop<M: PolicyModel + Send + Sync + 'static> {
    daemon: Arc<ServeDaemon<M>>,
    shared: Arc<LoopShared>,
    epoll: sys::Epoll,
    /// Dropped when shutdown begins (stops accepting, frees the port).
    listener: Option<TcpListener>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    events: Vec<sys::EpollEvent>,
    /// Read scratch shared by every connection (bytes land in each
    /// connection's decoder, so per-connection scratch would buy nothing).
    scratch: Vec<u8>,
    /// Reusable buffer the wake list is swapped into for draining.
    wake_scratch: Vec<u64>,
    /// Set when shutdown begins: force-close whatever has not flushed by
    /// this point.
    drain_deadline: Option<Instant>,
}

impl<M: PolicyModel + Send + Sync + 'static> EventLoop<M> {
    fn run(&mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.begin_shutdown();
                if self.live == 0 {
                    return;
                }
                if self.drain_deadline.is_some_and(|d| now() >= d) {
                    self.force_close_all();
                    return;
                }
            }
            let timeout = if self.drain_deadline.is_some() {
                50
            } else {
                WAIT_MS
            };
            // Transient wait failure: fall through to the flag checks
            // and completion drain rather than spinning on the error.
            let n = self
                .epoll
                .wait(&mut self.events, timeout)
                .unwrap_or_default();
            for i in 0..n {
                let ev = self.events[i];
                let (token, flags) = (ev.data, ev.events);
                match token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_DOORBELL => self.shared.doorbell.drain(),
                    _ => self.conn_event(token, flags),
                }
            }
            self.drain_wakes();
        }
    }

    /// Accept until the listener runs dry (it is nonblocking).
    fn accept_burst(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (e.g. the peer aborted between
                // queue and accept): try again on the next readiness.
                Err(_) => return,
            }
        }
    }

    /// Install an accepted socket into the slot map and epoll set.
    fn register(&mut self, stream: TcpStream) {
        // Latency service: replies must not sit in Nagle's buffer.
        let _ = stream.set_nodelay(true);
        let fd = sys::stream_fd(&stream);
        if sys::set_nonblocking(fd).is_err() {
            return; // refuse rather than risk blocking the whole loop
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    conn: None,
                });
                self.slots.len() - 1
            }
        };
        let generation = self.slots[idx].generation;
        let token = (u64::from(generation) << 32) | idx as u64;
        let wake_queued = Arc::new(AtomicBool::new(false));
        let completions = {
            let shared = Arc::clone(&self.shared);
            let queued = Arc::clone(&wake_queued);
            Completions::new(Box::new(move || {
                // Dedup: one doorbell ring per drain cycle per connection,
                // however many tickets fulfill in between.
                if !queued.swap(true, Ordering::AcqRel) {
                    shared.wake.lock().push(token);
                    shared.doorbell.ring();
                }
            }))
        };
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        if self.epoll.add(fd, interest, token).is_err() {
            self.free.push(idx);
            return;
        }
        self.slots[idx].conn = Some(Connection {
            stream,
            fd,
            token,
            decoder: wire::FrameDecoder::new(),
            writeq: wire::WriteQueue::new(),
            completions,
            wake_queued,
            pending: HashMap::new(),
            stats: HashMap::new(),
            handshaken: false,
            read_closed: false,
            write_dead: false,
            interest,
        });
        self.live += 1;
    }

    /// Route one readiness event to its connection, generation-checked.
    fn conn_event(&mut self, token: u64, flags: u32) {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        {
            let EventLoop {
                slots,
                daemon,
                epoll,
                scratch,
                ..
            } = self;
            let Some(slot) = slots.get_mut(idx) else {
                return;
            };
            if slot.generation != generation {
                return; // stale event for a recycled slot
            }
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                conn.read_closed = true;
                conn.write_dead = true;
                conn.writeq.abandon();
            } else {
                if flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !conn.read_closed {
                    read_burst(conn, daemon, scratch);
                }
                flush_writes(conn, epoll);
            }
        }
        self.maybe_close(idx);
    }

    /// Swap out the wake list and drain each announced connection's
    /// completions. Loops until the list stays empty, so a wake landing
    /// mid-drain is handled this iteration instead of waiting out the
    /// epoll timeout.
    fn drain_wakes(&mut self) {
        loop {
            let mut wake = std::mem::take(&mut self.wake_scratch);
            std::mem::swap(&mut *self.shared.wake.lock(), &mut wake);
            if wake.is_empty() {
                self.wake_scratch = wake;
                return;
            }
            for &token in &wake {
                self.drain_conn(token);
            }
            wake.clear();
            self.wake_scratch = wake;
        }
    }

    /// Drain one connection's ready completions into its write queue and
    /// flush.
    fn drain_conn(&mut self, token: u64) {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        {
            let EventLoop {
                slots,
                daemon,
                epoll,
                ..
            } = self;
            let Some(slot) = slots.get_mut(idx) else {
                return;
            };
            if slot.generation != generation {
                return;
            }
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            // Clear the dedup flag *before* popping: a fulfillment racing
            // this drain either lands in a pop below or re-queues the
            // token (the waker's swap sees `false`), never neither.
            conn.wake_queued.store(false, Ordering::Release);
            while let Some(id) = conn.completions.try_pop() {
                if let Some(ticket) = conn.pending.remove(&id) {
                    // The queue announced this id, so the slot is already
                    // fulfilled and wait() returns immediately.
                    let reply = ticket.wait();
                    if !conn.write_dead {
                        conn.writeq.push_reply(id, &reply);
                    }
                } else if let Some(snap) = conn.stats.remove(&id) {
                    if !conn.write_dead {
                        conn.writeq.push_stats_reply(id, &snap);
                    }
                } else {
                    // A completion with no home: the id-bookkeeping bug
                    // counter, not a crash.
                    daemon.telemetry().on_unmatched_reply();
                }
            }
            flush_writes(conn, epoll);
        }
        self.maybe_close(idx);
    }

    /// Recycle a connection once nothing more is owed to (or expected
    /// from) it: reader done and every reply flushed, or the socket died
    /// and every completion was consumed.
    fn maybe_close(&mut self, idx: usize) {
        let done = match self.slots.get(idx).and_then(|s| s.conn.as_ref()) {
            Some(c) => {
                let settled = c.pending.is_empty() && c.stats.is_empty();
                (c.write_dead && settled) || (c.read_closed && settled && c.writeq.is_empty())
            }
            None => false,
        };
        if !done {
            return;
        }
        if let Some(conn) = self.slots[idx].conn.take() {
            let _ = self.epoll.del(conn.fd);
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.slots[idx].generation = self.slots[idx].generation.wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
        }
    }

    /// First shutdown pass (idempotent): stop accepting, stop reading,
    /// start the drain-grace clock. Queued requests keep serving — the
    /// daemon shuts down only after this loop exits.
    fn begin_shutdown(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(now() + DRAIN_GRACE);
        if let Some(l) = self.listener.take() {
            let _ = self.epoll.del(sys::listener_fd(&l));
        }
        for idx in 0..self.slots.len() {
            {
                let EventLoop { slots, epoll, .. } = self;
                if let Some(conn) = slots[idx].conn.as_mut() {
                    // Stop reading only: a client caught mid-pipeline
                    // still gets every reply for what it already
                    // submitted, then the close.
                    conn.read_closed = true;
                    flush_writes(conn, epoll);
                }
            }
            self.maybe_close(idx);
        }
    }

    /// Drain grace expired: drop every remaining connection as-is.
    fn force_close_all(&mut self) {
        for idx in 0..self.slots.len() {
            if let Some(conn) = self.slots[idx].conn.take() {
                let _ = self.epoll.del(conn.fd);
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.slots[idx].generation = self.slots[idx].generation.wrapping_add(1);
                self.live -= 1;
            }
        }
    }
}

/// Read until the socket runs dry (or the per-wake fairness cap), feeding
/// the incremental decoder and submitting every completed frame.
fn read_burst<M: PolicyModel + Send + Sync + 'static>(
    conn: &mut Connection,
    daemon: &Arc<ServeDaemon<M>>,
    scratch: &mut [u8],
) {
    for _ in 0..MAX_READS_PER_WAKE {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                if conn.decoder.feed(&scratch[..n]).is_err() {
                    // Hostile length prefix: refuse before buffering more.
                    hangup(conn);
                    return;
                }
                if !process_frames(conn, daemon) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                conn.write_dead = true;
                conn.writeq.abandon();
                return;
            }
        }
    }
}

/// Protocol violation: stop decoding this peer. Replies already owed are
/// still flushed, then the close path runs.
fn hangup(conn: &mut Connection) {
    conn.read_closed = true;
}

/// Decode and dispatch every complete frame currently buffered. Returns
/// `false` once the connection hung up (no more frames will be taken).
fn process_frames<M: PolicyModel + Send + Sync + 'static>(
    conn: &mut Connection,
    daemon: &Arc<ServeDaemon<M>>,
) -> bool {
    loop {
        let frame = match conn.decoder.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(_) => {
                hangup(conn);
                return false;
            }
        };
        if !conn.handshaken {
            // Handshake: HELLO in, HELLO_OK out. Anything else (version
            // mismatches included) closes without a reply — a peer
            // speaking another version gets a hangup, not silently
            // misdecoded frames.
            if wire::decode_hello(frame).is_err() {
                conn.read_closed = true;
                conn.write_dead = true;
                conn.writeq.abandon();
                return false;
            }
            conn.handshaken = true;
            conn.writeq.push_hello_ok();
            continue;
        }
        match wire::peek_kind(frame) {
            Ok(wire::Kind::Request) => {
                let Ok((id, req)) = wire::decode_request(frame) else {
                    hangup(conn);
                    return false;
                };
                // A duplicated id would orphan the first ticket; refuse
                // the connection rather than guess which reply was meant.
                if conn.pending.contains_key(&id) || conn.stats.contains_key(&id) {
                    hangup(conn);
                    return false;
                }
                let slot = ResponseSlot::with_notify(Arc::clone(&conn.completions), id);
                // Register before submitting, so even a synchronously
                // fulfilled error reply finds its ticket.
                conn.pending.insert(id, Ticket::new(Arc::clone(&slot)));
                daemon.submit_on(req, slot);
            }
            Ok(wire::Kind::Stats) => {
                let Ok(id) = wire::decode_stats_request(frame) else {
                    hangup(conn);
                    return false;
                };
                if conn.pending.contains_key(&id) || conn.stats.contains_key(&id) {
                    hangup(conn);
                    return false;
                }
                conn.stats.insert(id, daemon.stats());
                // Announce on the completion queue: the scrape reply
                // interleaves with serve replies in completion order.
                conn.completions.push(id);
            }
            _ => {
                hangup(conn);
                return false;
            }
        }
    }
}

/// Push the write backlog at the socket and keep `EPOLLOUT` armed exactly
/// while a backlog exists.
fn flush_writes(conn: &mut Connection, epoll: &sys::Epoll) {
    if conn.write_dead {
        conn.writeq.abandon();
        return;
    }
    let mut stream = &conn.stream;
    let drained = conn.writeq.flush(|bytes| stream.write(bytes));
    let base = if conn.read_closed {
        0
    } else {
        sys::EPOLLIN | sys::EPOLLRDHUP
    };
    match drained {
        Ok(true) => set_interest(conn, epoll, base),
        Ok(false) => set_interest(conn, epoll, base | sys::EPOLLOUT),
        Err(_) => {
            conn.read_closed = true;
            conn.write_dead = true;
            conn.writeq.abandon();
        }
    }
}

fn set_interest(conn: &mut Connection, epoll: &sys::Epoll, want: u32) {
    if conn.interest != want && epoll.modify(conn.fd, want, conn.token).is_ok() {
        conn.interest = want;
    }
}

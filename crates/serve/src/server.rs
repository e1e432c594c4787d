//! `TealServer`: the TCP front end over the transport-agnostic serving
//! core — `std::net` plus one epoll event-loop thread ([`crate::net`]), no
//! async runtime (the registry is unreachable in this environment).
//!
//! The loop multiplexes every connection: it performs the versioned
//! handshake, decodes pipelined [`crate::wire`] REQUEST frames with a
//! per-connection [`crate::wire::FrameDecoder`], and feeds them straight
//! into [`ServeDaemon::submit_on`] — the same validated,
//! admission-controlled path in-process callers use. Replies drain **out
//! of order, by request id**, the moment each ticket fulfills, so a slow
//! request never convoys the replies queued behind it.
//!
//! Per the scalable-commutativity design rule the connections share no
//! mutable state with each other — each has its own reply map and
//! completion queue, and all cross-connection coordination happens inside
//! the serving core's per-topology shards — so adding connections scales
//! like adding submitter threads, which is exactly what the loopback soak
//! test exercises.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use teal_core::PolicyModel;

use crate::daemon::ServeDaemon;
use crate::net::{spawn_event_loop, EventLoopHandle};

/// The TCP serving front end (see module docs).
pub struct TealServer<M: PolicyModel + Send + Sync + 'static> {
    daemon: Arc<ServeDaemon<M>>,
    addr: SocketAddr,
    front: EventLoopHandle,
}

impl<M: PolicyModel + Send + Sync + 'static> TealServer<M> {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and start the event loop accepting connections that submit into
    /// `daemon`.
    pub fn bind(daemon: Arc<ServeDaemon<M>>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let front = spawn_event_loop(Arc::clone(&daemon), listener)?;
        Ok(TealServer {
            daemon,
            addr,
            front,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving core this front end feeds.
    pub fn daemon(&self) -> &Arc<ServeDaemon<M>> {
        &self.daemon
    }

    /// Stop accepting connections and reading requests, flush every reply
    /// already owed, join the event loop, then shut the serving core down
    /// (the shards keep fulfilling queued tickets until the loop has
    /// drained; see [`ServeDaemon::shutdown`]). Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.front.shutdown();
        self.daemon.shutdown();
    }
}

impl<M: PolicyModel + Send + Sync + 'static> Drop for TealServer<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

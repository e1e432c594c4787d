//! The client's decode path against a rogue server. The "server" here is
//! a hand-rolled socket speaking raw wire frames, so it can misbehave on
//! purpose:
//!
//! * unsolicited REPLY/STATS_OK frames (ids the client never issued) are
//!   **counted** via [`TealClient::unmatched_replies`], not silently
//!   dropped — an id-bookkeeping bug on either end stays visible;
//! * REPLY frames dribbled one byte at a time, or split at seeded points,
//!   still reach their tickets;
//! * frames sent in the same write as HELLO_OK survive the hand-off from
//!   the handshake to the client's reader thread;
//! * an oversized length prefix, or a hangup mid-frame, fails every
//!   pending ticket with [`ServeError::Internal`] instead of hanging it.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;
use teal_lp::Allocation;
use teal_serve::wire::{self, FrameDecoder};
use teal_serve::{
    ServeError, ServeReply, StageTimings, SubmitRequest, TealClient, Telemetry, Ticket,
};
use teal_traffic::TrafficMatrix;

/// Bound on every ticket wait: a client that hangs fails the test instead
/// of wedging it.
const WAIT: Duration = Duration::from_secs(10);

/// Accept one loopback connection and run `script` on it on a background
/// thread. The script drives the handshake itself, so it can misbehave at
/// any point.
fn rogue_server(
    script: impl FnOnce(TcpStream, FrameDecoder) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (sock, _) = listener.accept().expect("accept");
        sock.set_nodelay(true).expect("nodelay");
        script(sock, FrameDecoder::new());
    });
    (addr, server)
}

/// Read and check the client's HELLO.
fn expect_hello(sock: &mut TcpStream, dec: &mut FrameDecoder) {
    let frame = dec.read_frame(sock).expect("hello").expect("hello frame");
    wire::decode_hello(frame).expect("valid hello");
}

/// Append one framed payload to `stream`.
fn frame_into(stream: &mut Vec<u8>, payload: &[u8]) {
    wire::write_frame(stream, payload).expect("frame under cap");
}

/// The framed HELLO_OK bytes.
fn hello_ok() -> Vec<u8> {
    let mut payload = Vec::new();
    wire::encode_hello_ok(&mut payload);
    let mut stream = Vec::new();
    frame_into(&mut stream, &payload);
    stream
}

/// Read `n` REQUEST frames and return their ids, in arrival order.
fn read_request_ids(sock: &mut TcpStream, dec: &mut FrameDecoder, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let frame = dec
                .read_frame(sock)
                .expect("request")
                .expect("request frame");
            wire::decode_request(frame).expect("valid request").0
        })
        .collect()
}

/// Hold the socket open until the client hangs up (its drop path closes
/// the connection from the other side).
fn await_client_close(sock: &mut TcpStream, dec: &mut FrameDecoder) {
    while let Ok(Some(_)) = dec.read_frame(sock) {}
}

/// The reply the rogue server owes request `id`: an allocation whose
/// splits encode the id for even ids, a typed error naming it for odd
/// ones, so a reply delivered to the wrong ticket is caught either way.
fn reply_for(id: u64) -> Result<ServeReply, ServeError> {
    if id.is_multiple_of(2) {
        Ok(ServeReply {
            allocation: Allocation::from_splits(2, vec![id as f64 / 100.0; 6]),
            latency: Duration::from_micros(id),
            stages: StageTimings::default(),
            batch_size: 1,
        })
    } else {
        Err(ServeError::BadRequest(format!("request {id}")))
    }
}

/// Submit `n` requests whose ids the client mints as 0..n.
fn submit_n(client: &TealClient, n: usize) -> Vec<Ticket> {
    (0..n)
        .map(|_| client.submit(&SubmitRequest::new("b4", TrafficMatrix::new(vec![1.0; 3]))))
        .collect()
}

/// Poll (bounded) until the client's reader has counted `n` unmatched
/// frames; it processes them asynchronously.
fn await_unmatched(client: &TealClient, n: u64) {
    let deadline = std::time::Instant::now() + WAIT;
    while client.unmatched_replies() < n {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of {n} unsolicited frames counted after {WAIT:?}",
            client.unmatched_replies()
        );
        std::thread::yield_now();
    }
}

#[test]
fn unsolicited_replies_are_counted_not_dropped() {
    let (addr, server) = rogue_server(|mut sock, mut dec| {
        expect_hello(&mut sock, &mut dec);
        sock.write_all(&hello_ok()).expect("hello_ok");
        // Three unsolicited frames under ids the client never issued
        // (client ids start at 0 and nothing was submitted).
        let mut buf = Vec::new();
        for id in [900u64, 901] {
            wire::encode_reply(&mut buf, id, &Err(ServeError::DeadlineExceeded));
            wire::write_frame(&mut sock, &buf).expect("unsolicited reply");
        }
        wire::encode_stats_reply(&mut buf, 902, &Telemetry::default().snapshot());
        wire::write_frame(&mut sock, &buf).expect("unsolicited stats");
        await_client_close(&mut sock, &mut dec);
    });

    let client = TealClient::connect(addr).expect("connect");
    await_unmatched(&client, 3);
    assert_eq!(client.unmatched_replies(), 3);

    drop(client);
    server.join().expect("rogue server");
}

/// Answer `n` requests with their [`reply_for`] frames, concatenated in
/// reverse arrival order (replies travel out of order) and handed to
/// `write` to put on the socket however it likes.
fn fragmented_replies(n: usize, write: impl FnOnce(&mut TcpStream, &[u8]) + Send + 'static) {
    let (addr, server) = rogue_server(move |mut sock, mut dec| {
        expect_hello(&mut sock, &mut dec);
        sock.write_all(&hello_ok()).expect("hello_ok");
        let mut stream = Vec::new();
        let mut payload = Vec::new();
        for id in read_request_ids(&mut sock, &mut dec, n).into_iter().rev() {
            wire::encode_reply(&mut payload, id, &reply_for(id));
            frame_into(&mut stream, &payload);
        }
        write(&mut sock, &stream);
        await_client_close(&mut sock, &mut dec);
    });

    let client = TealClient::connect(addr).expect("connect");
    for (id, ticket) in submit_n(&client, n).into_iter().enumerate() {
        assert_eq!(
            ticket.wait_timeout(WAIT),
            reply_for(id as u64),
            "request {id} got the wrong reply"
        );
    }
    assert_eq!(client.unmatched_replies(), 0);
    drop(client);
    server.join().expect("rogue server");
}

#[test]
fn replies_written_one_byte_at_a_time_reach_their_tickets() {
    fragmented_replies(6, |sock, stream| {
        for byte in stream {
            sock.write_all(std::slice::from_ref(byte)).expect("byte");
        }
    });
}

#[test]
fn replies_split_at_seeded_points_reach_their_tickets() {
    for seed in 1u64..=4 {
        fragmented_replies(8, move |sock, stream| {
            // xorshift64: deterministic split points per seed, including
            // cuts inside length prefixes.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rest = stream;
            while !rest.is_empty() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let cut = 1 + (state % 23) as usize;
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                sock.write_all(head).expect("fragment");
                // Best effort at one client read per fragment; the
                // decoder must cope however the kernel merges them.
                std::thread::sleep(Duration::from_micros(200));
                rest = tail;
            }
        });
    }
}

#[test]
fn frames_in_the_hello_ok_write_survive_the_handoff() {
    let (addr, server) = rogue_server(|mut sock, mut dec| {
        expect_hello(&mut sock, &mut dec);
        // HELLO_OK and two unsolicited replies in one write: the client's
        // handshake read takes all three frames off the socket at once.
        let mut stream = hello_ok();
        let mut payload = Vec::new();
        for id in [900u64, 901] {
            wire::encode_reply(&mut payload, id, &reply_for(id));
            frame_into(&mut stream, &payload);
        }
        sock.write_all(&stream).expect("hello_ok + replies");
        // The stream stays frame-aligned afterwards: a real request is
        // still answered.
        let ids = read_request_ids(&mut sock, &mut dec, 1);
        wire::encode_reply(&mut payload, ids[0], &reply_for(ids[0]));
        wire::write_frame(&mut sock, &payload).expect("reply");
        await_client_close(&mut sock, &mut dec);
    });

    let client = TealClient::connect(addr).expect("connect");
    await_unmatched(&client, 2);
    let ticket = submit_n(&client, 1).remove(0);
    assert_eq!(ticket.wait_timeout(WAIT), reply_for(0));
    assert_eq!(client.unmatched_replies(), 2);
    drop(client);
    server.join().expect("rogue server");
}

/// After the handshake, read `n` requests, answer the first `answered`,
/// then put `poison` on the wire and either hang up or hold the socket
/// open. Every ticket left pending must fail with `Internal` within
/// [`WAIT`].
fn poisoned_stream(n: usize, answered: usize, poison: Vec<u8>, hang_up: bool) {
    let (addr, server) = rogue_server(move |mut sock, mut dec| {
        expect_hello(&mut sock, &mut dec);
        sock.write_all(&hello_ok()).expect("hello_ok");
        let mut payload = Vec::new();
        for id in read_request_ids(&mut sock, &mut dec, n)
            .into_iter()
            .take(answered)
        {
            wire::encode_reply(&mut payload, id, &reply_for(id));
            wire::write_frame(&mut sock, &payload).expect("reply");
        }
        sock.write_all(&poison).expect("poison");
        if !hang_up {
            await_client_close(&mut sock, &mut dec);
        }
    });

    let client = TealClient::connect(addr).expect("connect");
    for (id, ticket) in submit_n(&client, n).into_iter().enumerate() {
        let got = ticket.wait_timeout(WAIT);
        if id < answered {
            assert_eq!(got, reply_for(id as u64), "request {id}");
        } else {
            assert!(
                matches!(got, Err(ServeError::Internal(_))),
                "request {id}: expected Internal, got {got:?}"
            );
        }
    }
    drop(client);
    server.join().expect("rogue server");
}

#[test]
fn oversized_length_prefix_fails_every_pending_ticket() {
    // The socket stays open: only the prefix itself may end the
    // connection.
    let prefix = (wire::MAX_FRAME + 1).to_le_bytes().to_vec();
    poisoned_stream(3, 0, prefix, false);
}

#[test]
fn hangup_mid_frame_fails_every_pending_ticket() {
    // Request 0 is answered; then half of request 1's reply, then EOF.
    let mut payload = Vec::new();
    wire::encode_reply(&mut payload, 1, &reply_for(1));
    let mut half = Vec::new();
    frame_into(&mut half, &payload);
    half.truncate(half.len() / 2);
    poisoned_stream(3, 1, half, true);
}

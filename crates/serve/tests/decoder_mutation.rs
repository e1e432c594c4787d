//! Seeded mutation test for the decoders that read untrusted bytes:
//! [`wire::decode_request`], [`wire::decode_reply`] and
//! [`wire::FrameDecoder`]. Valid REQUEST and REPLY frames are mutated —
//! random byte overwrites, f64 slots set to NaN/±inf/negative values, and
//! truncations — and every decoder call must return `Ok` or `Err`, never
//! panic. A panic in a decoder would take down the event-loop thread that
//! serves every connection.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use teal_lp::Allocation;
use teal_serve::wire;
use teal_serve::{ServeError, ServeReply, StageTimings, SubmitRequest};
use teal_traffic::TrafficMatrix;

/// Values a hostile peer can put in an f64 slot.
const POISON: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    -f64::MIN_POSITIVE,
    -1e300,
];

/// Bytes before the first split of an OK REPLY payload: kind, id, tag,
/// `k` (u16) and `nd` (u32).
const REPLY_SPLITS_AT: usize = 1 + 8 + 1 + 2 + 4;

/// xorshift64 stream for the mutation choices within one case.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn request_payload(id: u64, nd: usize, shape: u64) -> Vec<u8> {
    let mut req = SubmitRequest::new(
        "b4",
        TrafficMatrix::new((0..nd).map(|d| 1.0 + d as f64).collect()),
    );
    if shape & 1 != 0 {
        req = req.with_deadline(Duration::from_millis(250));
    }
    if shape & 2 != 0 {
        req = req.with_failed_link(0, 1).with_failed_link(3, 2);
    }
    if shape & 4 != 0 {
        req = req.with_tenant("gold");
    }
    let mut buf = Vec::new();
    wire::encode_request(&mut buf, id, &req);
    buf
}

fn reply_payload(id: u64, nd: usize, k: usize, shape: u64) -> Vec<u8> {
    let reply = if shape & 1 == 0 {
        Ok(ServeReply {
            allocation: Allocation::from_splits(
                k,
                (0..nd * k).map(|p| (p % 5) as f64 / 5.0).collect(),
            ),
            latency: Duration::from_micros(1500),
            stages: StageTimings {
                queue_wait: Duration::from_micros(100),
                solve: Duration::from_micros(1300),
                write: Duration::from_micros(100),
            },
            batch_size: 3,
        })
    } else {
        Err(ServeError::BadRequest("mismatched demand count".into()))
    };
    let mut buf = Vec::new();
    wire::encode_reply(&mut buf, id, &reply);
    buf
}

/// Apply one seeded mutation. `f64_slots` is the byte range of the
/// payload's f64 array (demands or splits).
fn mutate(payload: &mut Vec<u8>, f64_slots: std::ops::Range<usize>, xs: &mut Xs) {
    match xs.below(3) {
        0 => {
            for _ in 0..1 + xs.below(4) {
                let at = xs.below(payload.len());
                payload[at] = xs.next() as u8;
            }
        }
        1 => {
            let slots = f64_slots.len() / 8;
            if slots > 0 {
                let at = f64_slots.start + 8 * xs.below(slots);
                let v = POISON[xs.below(POISON.len())];
                payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            let keep = xs.below(payload.len());
            payload.truncate(keep);
        }
    }
}

/// Run one decoder call, turning a panic into a failed property.
fn no_panic<T>(what: &str, payload: &[u8], f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{what} panicked on payload {payload:?}"))
}

/// Both payload decoders, plus the frame decoder over the framed bytes
/// (with the same mutation applied to the frame, length prefix
/// included). Returns `decode_request`'s verdict.
fn decode_everything(payload: &[u8], xs: &mut Xs) -> Result<bool, String> {
    let req_ok = no_panic("decode_request", payload, || {
        wire::decode_request(payload).is_ok()
    })?;
    no_panic("decode_reply", payload, || {
        wire::decode_reply(payload).is_ok()
    })?;

    let mut stream = Vec::new();
    wire::write_frame(&mut stream, payload).expect("frame into memory");
    if xs.below(2) == 0 {
        let at = xs.below(stream.len());
        stream[at] = xs.next() as u8;
    }
    no_panic("FrameDecoder", &stream, || {
        let mut cursor = std::io::Cursor::new(&stream);
        let mut decoder = wire::FrameDecoder::new();
        while let Ok(Some(frame)) = decoder.read_frame(&mut cursor) {
            let _ = wire::decode_request(frame);
            let _ = wire::decode_reply(frame);
        }
    })?;
    Ok(req_ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn mutated_requests_never_panic_a_decoder(
        seed in 1u64..u64::MAX,
        nd in 0usize..24,
        shape in 0u64..8,
    ) {
        let mut xs = Xs(seed);
        let mut payload = request_payload(seed, nd, shape);
        let demands = payload.len() - 8 * nd..payload.len();
        mutate(&mut payload, demands, &mut xs);
        decode_everything(&payload, &mut xs)?;
    }

    #[test]
    fn poisoned_demands_are_rejected(
        seed in 1u64..u64::MAX,
        nd in 1usize..24,
        shape in 0u64..8,
        which in 0usize..6,
    ) {
        let mut xs = Xs(seed);
        let mut payload = request_payload(seed, nd, shape);
        let at = payload.len() - 8 * (1 + xs.below(nd));
        payload[at..at + 8].copy_from_slice(&POISON[which].to_le_bytes());
        let accepted = decode_everything(&payload, &mut xs)?;
        prop_assert!(!accepted, "demand {} decoded as a valid request", POISON[which]);
    }

    #[test]
    fn mutated_replies_never_panic_a_decoder(
        seed in 1u64..u64::MAX,
        nd in 0usize..24,
        k in 1usize..5,
        shape in 0u64..2,
    ) {
        let mut xs = Xs(seed);
        let mut payload = reply_payload(seed, nd, k, shape);
        let splits = if shape & 1 == 0 {
            REPLY_SPLITS_AT..REPLY_SPLITS_AT + 8 * nd * k
        } else {
            0..0
        };
        mutate(&mut payload, splits, &mut xs);
        decode_everything(&payload, &mut xs)?;
    }
}

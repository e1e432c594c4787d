//! Incremental-decoder equivalence: a frame stream split at **any** byte
//! boundary — including inside the 4-byte length prefix — must decode to
//! exactly the frame sequence the one-shot path produces, and a hostile
//! length prefix must be rejected as soon as it is visible, *before* any
//! buffering driven by the attacker-controlled length.
//!
//! This is the correctness spine of the wire codec: the kernel hands the
//! event loop and the client arbitrary read fragments, and `FrameDecoder`
//! is what turns them back into the exact frames the peer wrote.

use proptest::prelude::*;
use teal_serve::wire::{self, FrameDecoder};

/// The vendored proptest shim samples ranges, not `any::<u8>()`; bytes
/// travel as `0u64..256` and get narrowed here.
fn bytes(words: &[Vec<u64>]) -> Vec<Vec<u8>> {
    words
        .iter()
        .map(|w| w.iter().map(|&b| b as u8).collect())
        .collect()
}

/// Serialize payloads the way `write_frame` does: LE length prefix + body.
fn stream_of(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for f in frames {
        wire::write_frame(&mut stream, f).expect("frame under cap");
    }
    stream
}

/// Feed the decoder `chunks` in order, collecting every completed frame.
fn decode_chunked(chunks: &[&[u8]]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for chunk in chunks {
        dec.feed(chunk).expect("well-formed stream");
        while let Some(frame) = dec.next_frame().expect("well-formed stream") {
            out.push(frame.to_vec());
        }
    }
    assert_eq!(dec.residue(), 0, "well-formed stream fully consumed");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every two-way split point (0..=len, so both "empty first feed" and
    /// "everything in one feed") yields the one-shot frame sequence.
    #[test]
    fn any_split_point_decodes_identically(
        words in proptest::collection::vec(
            proptest::collection::vec(0u64..256, 0..40),
            1..6,
        ),
    ) {
        let frames = bytes(&words);
        let stream = stream_of(&frames);
        let reference = decode_chunked(&[&stream]);
        prop_assert_eq!(&reference, &frames);
        for split in 0..=stream.len() {
            let halves = [&stream[..split], &stream[split..]];
            prop_assert_eq!(decode_chunked(&halves), frames.clone());
        }
    }

    /// The worst fragmentation the kernel can produce: one byte per read.
    #[test]
    fn byte_by_byte_feed_decodes_identically(
        words in proptest::collection::vec(
            proptest::collection::vec(0u64..256, 0..32),
            1..5,
        ),
    ) {
        let frames = bytes(&words);
        let stream = stream_of(&frames);
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        prop_assert_eq!(decode_chunked(&bytes), frames);
    }

    /// A hostile length prefix (> MAX_FRAME) errors out of `feed` the
    /// moment all four prefix bytes are visible — wherever the split
    /// lands inside the prefix — and the decoder never buffers more than
    /// the bytes the peer actually sent.
    #[test]
    fn hostile_length_prefix_rejected_before_buffering(
        over in 1u32..1024,
        split in 0usize..5,
        junk in proptest::collection::vec(0u64..256, 0..16),
    ) {
        let bad_len = wire::MAX_FRAME + over;
        let mut stream = bad_len.to_le_bytes().to_vec();
        stream.extend(junk.iter().map(|&b| b as u8));
        let split = split.min(stream.len());

        let mut dec = FrameDecoder::new();
        if split < 4 {
            // Prefix not yet visible: the first feed must accept.
            dec.feed(&stream[..split]).expect("prefix incomplete");
            prop_assert!(dec.feed(&stream[split..]).is_err());
        } else {
            prop_assert!(dec.feed(&stream[..split]).is_err());
        }
        // Bounded before allocation: only actually-received bytes are
        // buffered, never `bad_len` worth of capacity.
        prop_assert!(dec.residue() <= stream.len());
    }
}

/// The specific regression the prefix handling exists for: a split two
/// bytes into the length prefix, with the rest arriving one frame later.
#[test]
fn split_inside_length_prefix_resumes() {
    let frames = vec![b"hello".to_vec(), b"".to_vec(), vec![0xAA; 300]];
    let stream = stream_of(&frames);
    // Split inside frame 0's prefix and inside frame 2's body.
    let chunks = [&stream[..2], &stream[2..15], &stream[15..]];
    assert_eq!(decode_chunked(&chunks), frames);
}

/// A clean EOF mid-frame is observable as nonzero residue.
#[test]
fn residue_reports_partial_frame() {
    let stream = stream_of(&[b"abcdef".to_vec()]);
    let mut dec = FrameDecoder::new();
    dec.feed(&stream[..stream.len() - 2]).expect("under cap");
    assert!(dec.next_frame().expect("under cap").is_none());
    assert_eq!(dec.residue(), stream.len() - 2);
}

//! Golden wire-format fixtures — the reference for both codecs' byte
//! layouts.
//!
//! `tests/golden/{xdr,jdr}_{requests,replies}.hex` hold the flattened
//! bytes of every `rpc::test_vectors` sample (frame `i` carries
//! `seq = i`), followed by the first sample again with a trace context so
//! the trailer is pinned too; `{xdr,jdr}_sack.hex` hold one CLF SACK
//! body. One hex line per frame. The codecs must reproduce every line
//! byte for byte and decode it back to the frame it came from.
//!
//! A new message variant appends a sample to `test_vectors` and a line
//! to each fixture (the failure message prints the line to append);
//! an existing line never changes.

use std::fmt::Debug;

use bytes::Bytes;
use dstampede_obs::{SpanId, TraceContext, TraceId};
use dstampede_wire::rpc::test_vectors::{all_replies, all_requests};
use dstampede_wire::{Codec, JdrCodec, ReplyFrame, RequestFrame, SackInfo, WireError, XdrCodec};

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(line: &str) -> Bytes {
    (0..line.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex fixture"))
        .collect::<Vec<u8>>()
        .into()
}

const TRACE: Option<TraceContext> = Some(TraceContext {
    trace: TraceId(0x0123_4567_89ab_cdef),
    span: SpanId(0xfedc_ba98_7654_3210),
});

fn request_frames() -> Vec<RequestFrame> {
    let mut frames: Vec<_> = all_requests()
        .into_iter()
        .enumerate()
        .map(|(i, req)| RequestFrame::new(i as u64, req))
        .collect();
    let traced = frames[0].clone().with_trace(TRACE);
    frames.push(traced);
    frames
}

fn reply_frames() -> Vec<ReplyFrame> {
    let mut frames: Vec<_> = all_replies()
        .into_iter()
        .enumerate()
        .map(|(i, (reply, notes))| ReplyFrame::new(i as u64, notes, reply))
        .collect();
    let traced = frames[1].clone().with_trace(TRACE);
    frames.push(traced);
    frames
}

fn check<F: PartialEq + Debug>(
    name: &str,
    fixture: &str,
    frames: &[F],
    encode: impl Fn(&F) -> Bytes,
    decode: impl Fn(&Bytes) -> Result<F, WireError>,
) {
    let lines: Vec<&str> = fixture.lines().collect();
    for (i, frame) in frames.iter().enumerate() {
        let hex = to_hex(&encode(frame));
        let want = lines
            .get(i)
            .unwrap_or_else(|| panic!("{name}: no fixture line for frame #{i}; append:\n{hex}"));
        assert_eq!(
            &hex, want,
            "{name}: frame #{i} ({frame:?}) changed on the wire"
        );
        assert_eq!(
            &decode(&from_hex(want)).unwrap_or_else(|e| panic!("{name}: line #{i}: {e}")),
            frame,
            "{name}: line #{i} decodes differently"
        );
    }
    assert_eq!(lines.len(), frames.len(), "{name}: fixture has extra lines");
}

fn check_codec(codec: &dyn Codec, requests: &str, replies: &str, sack: &str) {
    let id = codec.id();
    check(
        &format!("{id} requests"),
        requests,
        &request_frames(),
        |f| codec.encode_request(f).unwrap().to_bytes(),
        |b| codec.decode_request(b),
    );
    check(
        &format!("{id} replies"),
        replies,
        &reply_frames(),
        |f| codec.encode_reply(f).unwrap().to_bytes(),
        |b| codec.decode_reply(b),
    );
    let sack_info = SackInfo {
        ack_next: 7,
        bitmap: Bytes::from_static(&[0b0000_0101, 0x80]),
    };
    check(
        &format!("{id} sack"),
        sack,
        &[sack_info],
        |s| codec.encode_sack(s).unwrap().to_bytes(),
        |b| codec.decode_sack(b),
    );
}

#[test]
fn xdr_frames_match_golden_fixtures() {
    check_codec(
        &XdrCodec::new(),
        include_str!("golden/xdr_requests.hex"),
        include_str!("golden/xdr_replies.hex"),
        include_str!("golden/xdr_sack.hex"),
    );
}

#[test]
fn jdr_frames_match_golden_fixtures() {
    check_codec(
        &JdrCodec::new(),
        include_str!("golden/jdr_requests.hex"),
        include_str!("golden/jdr_replies.hex"),
        include_str!("golden/jdr_sack.hex"),
    );
}

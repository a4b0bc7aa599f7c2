//! Property tests of the zero-copy data plane: a scatter-gather frame
//! must put the same bytes on the wire whether it is flattened or
//! streamed segment by segment, in both directions and for both codecs
//! (the byte layout itself is pinned by `tests/golden.rs`); decoded
//! payload views must alias the receive buffer without copying and stay
//! valid after the buffer handle drops; and the pool's copies-avoided
//! accounting must observe large payloads riding through untouched.

use bytes::Bytes;
use proptest::prelude::*;

use dstampede_core::Timestamp;
use dstampede_wire::pool::{self, ZC_THRESHOLD};
use dstampede_wire::rpc::{Reply, ReplyFrame, Request, RequestFrame};
use dstampede_wire::{
    read_frame_bytes, write_encoded, Codec, EncodedFrame, JdrCodec, WaitSpec, XdrCodec,
};

/// A put request whose payload exercises both sides of the zero-copy
/// threshold.
fn arb_put_frame() -> impl Strategy<Value = RequestFrame> {
    (
        any::<u64>(),
        any::<i64>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..(2 * ZC_THRESHOLD)),
    )
        .prop_map(|(seq, ts, tag, payload)| {
            RequestFrame::new(
                seq,
                Request::ChannelPut {
                    conn: 1,
                    ts: Timestamp::new(ts),
                    tag,
                    payload: Bytes::from(payload),
                    wait: WaitSpec::Forever,
                },
            )
        })
}

/// An item reply whose payload exercises both sides of the threshold.
fn arb_item_frame() -> impl Strategy<Value = ReplyFrame> {
    (
        any::<u64>(),
        any::<i64>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..(2 * ZC_THRESHOLD)),
    )
        .prop_map(|(seq, ts, tag, payload)| {
            ReplyFrame::new(
                seq,
                vec![],
                Reply::Item {
                    ts: Timestamp::new(ts),
                    tag,
                    payload: Bytes::from(payload),
                },
            )
        })
}

/// The flattened frame and the segment-wise stream (vectored write, framed
/// read) carry the same bytes, so a receiver cannot tell which way the
/// sender moved the payload.
fn flat_and_streamed(encoded: &EncodedFrame) -> (Bytes, Bytes) {
    let mut stream = Vec::new();
    write_encoded(&mut stream, encoded).unwrap();
    (
        encoded.to_bytes(),
        read_frame_bytes(&mut &stream[..]).unwrap(),
    )
}

proptest! {
    /// XDR: `EncodedFrame::to_bytes()` and the segment-wise stream are
    /// byte-identical and both decode to the frame.
    #[test]
    fn xdr_flat_and_scatter_interoperate(frame in arb_put_frame()) {
        let codec = XdrCodec::new();
        let (flat, streamed) = flat_and_streamed(&codec.encode_request(&frame).unwrap());
        prop_assert_eq!(&flat[..], &streamed[..]);
        prop_assert_eq!(codec.decode_request(&flat).unwrap(), frame.clone());
        prop_assert_eq!(codec.decode_request(&streamed).unwrap(), frame);
    }

    /// JDR, likewise.
    #[test]
    fn jdr_flat_and_scatter_interoperate(frame in arb_put_frame()) {
        let codec = JdrCodec::new();
        let (flat, streamed) = flat_and_streamed(&codec.encode_request(&frame).unwrap());
        prop_assert_eq!(&flat[..], &streamed[..]);
        prop_assert_eq!(codec.decode_request(&flat).unwrap(), frame.clone());
        prop_assert_eq!(codec.decode_request(&streamed).unwrap(), frame);
    }

    /// Replies interoperate the same way in both codecs.
    #[test]
    fn replies_interoperate_flat_and_scatter(frame in arb_item_frame()) {
        for codec in [&XdrCodec::new() as &dyn Codec, &JdrCodec::new()] {
            let (flat, streamed) = flat_and_streamed(&codec.encode_reply(&frame).unwrap());
            prop_assert_eq!(&flat[..], &streamed[..]);
            prop_assert_eq!(&codec.decode_reply(&flat).unwrap(), &frame);
            prop_assert_eq!(&codec.decode_reply(&streamed).unwrap(), &frame);
        }
    }

    /// Decoded payloads stay valid after the receive buffer handle drops:
    /// the view holds its own reference on the shared allocation, so
    /// recycling the caller's handle cannot invalidate it.
    #[test]
    fn payload_views_outlive_the_receive_buffer(
        payload in proptest::collection::vec(any::<u8>(), ZC_THRESHOLD..4096),
    ) {
        for codec in [&XdrCodec::new() as &dyn Codec, &JdrCodec::new()] {
            let frame = RequestFrame::new(
                9,
                Request::ChannelPut {
                    conn: 1,
                    ts: Timestamp::new(0),
                    tag: 0,
                    payload: Bytes::from(payload.clone()),
                    wait: WaitSpec::NonBlocking,
                },
            );
            let wire = codec.encode_request(&frame).unwrap().to_bytes();
            let decoded = codec.decode_request(&wire).unwrap();
            let Request::ChannelPut { payload: view, .. } = &decoded.req else {
                panic!("wrong variant");
            };
            // Above the threshold the decode is a true view, not a copy.
            prop_assert!(view.shares_allocation_with(&wire));
            let view = view.clone();
            drop(wire);
            drop(decoded);
            prop_assert_eq!(&view[..], &payload[..]);
        }
    }
}

/// Large payloads decoded as views are counted by the pool's
/// copies-avoided accounting (both codecs). Other tests share the global
/// counters, so the assertion is a lower bound on the delta.
#[test]
fn large_payload_decode_bumps_copies_avoided() {
    let payload = vec![0xA5u8; 4 * 1024];
    for codec in [&XdrCodec::new() as &dyn Codec, &JdrCodec::new()] {
        let frame = RequestFrame::new(
            1,
            Request::ChannelPut {
                conn: 1,
                ts: Timestamp::new(0),
                tag: 0,
                payload: Bytes::from(payload.clone()),
                wait: WaitSpec::Forever,
            },
        );
        let wire = codec.encode_request(&frame).unwrap().to_bytes();
        let before = pool::stats();
        let _decoded = codec.decode_request(&wire).unwrap();
        let after = pool::stats();
        assert!(after.copies_avoided > before.copies_avoided);
        assert!(after.bytes_copied_avoided >= before.bytes_copied_avoided + payload.len() as u64);
    }
}

/// Sub-threshold payloads are copied out, so the receive buffer stays
/// reclaimable — the decoded payload must NOT alias the wire bytes.
#[test]
fn small_payloads_do_not_pin_the_receive_buffer() {
    let payload = vec![7u8; ZC_THRESHOLD - 1];
    for codec in [&XdrCodec::new() as &dyn Codec, &JdrCodec::new()] {
        let frame = RequestFrame::new(
            1,
            Request::ChannelPut {
                conn: 1,
                ts: Timestamp::new(0),
                tag: 0,
                payload: Bytes::from(payload.clone()),
                wait: WaitSpec::Forever,
            },
        );
        let wire = codec.encode_request(&frame).unwrap().to_bytes();
        let decoded = codec.decode_request(&wire).unwrap();
        let Request::ChannelPut { payload: out, .. } = &decoded.req else {
            panic!("wrong variant");
        };
        assert!(!out.shares_allocation_with(&wire));
        assert_eq!(&out[..], &payload[..]);
    }
}

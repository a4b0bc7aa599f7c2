//! The XDR codec: flat, bulk-copy marshalling (the C client library).
//!
//! Message bodies are derived from the one declaration in [`crate::rpc`];
//! this module says how each *field type* lies on the wire
//! ([`XdrField`]) and writes the frame prologue and trace trailer.

use bytes::Bytes;

use dstampede_core::{
    AsId, ChanId, ChannelAttrs, GcPolicy, GetSpec, Interest, OverflowPolicy, QueueAttrs, QueueId,
    ResourceId, TagFilter, Timestamp,
};

use dstampede_obs::{SpanId, TraceContext, TraceId};

use crate::codec::{class, Codec, CodecId};
use crate::error::WireError;
use crate::frame::EncodedFrame;
use crate::rpc::{GcNote, Reply, ReplyFrame, Request, RequestFrame, SackInfo, WaitSpec};
use crate::xdr::{XdrReader, XdrWriter};

/// Flat XDR marshalling of RPC frames. Scalars are written in place and
/// payloads are bulk-copied — the C client's cheap cost profile.
#[derive(Debug, Default, Clone, Copy)]
pub struct XdrCodec;

impl XdrCodec {
    /// Creates the codec (stateless).
    #[must_use]
    pub fn new() -> Self {
        XdrCodec
    }
}

/// How a message field's type is laid out in XDR. The message table in
/// [`crate::rpc`] writes and reads every field through this.
pub(crate) trait XdrField: Sized {
    fn put(&self, w: &mut XdrWriter);
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError>;
}

impl XdrField for u32 {
    fn put(&self, w: &mut XdrWriter) {
        w.put_u32(*self);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl XdrField for u64 {
    fn put(&self, w: &mut XdrWriter) {
        w.put_u64(*self);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl XdrField for bool {
    fn put(&self, w: &mut XdrWriter) {
        w.put_bool(*self);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl XdrField for String {
    fn put(&self, w: &mut XdrWriter) {
        w.put_string(self);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        r.get_string()
    }
}

impl XdrField for Bytes {
    fn put(&self, w: &mut XdrWriter) {
        w.put_payload(self);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        r.get_payload()
    }
}

impl XdrField for Timestamp {
    fn put(&self, w: &mut XdrWriter) {
        w.put_i64(self.value());
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        Ok(Timestamp::new(r.get_i64()?))
    }
}

impl XdrField for AsId {
    fn put(&self, w: &mut XdrWriter) {
        w.put_u32(u32::from(self.0));
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        let id = r.get_u32()?;
        u16::try_from(id)
            .map(AsId)
            .map_err(|_| WireError::BadValue(format!("address space id {id}")))
    }
}

impl<T: XdrField> XdrField for Option<T> {
    fn put(&self, w: &mut XdrWriter) {
        w.put_option(self.as_ref(), |w, v| v.put(w));
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        r.get_option(T::get)
    }
}

impl<T: XdrField> XdrField for Vec<T> {
    fn put(&self, w: &mut XdrWriter) {
        w.put_u32(self.len() as u32);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        let n = r.get_u32()?;
        // Every element occupies at least one XDR word, so a count above
        // the words left is forged; refusing it bounds the work (and the
        // vector) by the frame size.
        if n as usize > r.remaining() / 4 {
            return Err(WireError::BadValue(format!("element count {n}")));
        }
        let mut out = Vec::with_capacity((n as usize).min(1024));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl XdrField for TraceContext {
    fn put(&self, w: &mut XdrWriter) {
        w.put_u64(self.trace.0);
        w.put_u64(self.span.0);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        Ok(TraceContext {
            trace: TraceId(r.get_u64()?),
            span: SpanId(r.get_u64()?),
        })
    }
}

impl XdrField for ChanId {
    fn put(&self, w: &mut XdrWriter) {
        self.owner.put(w);
        w.put_u32(self.index);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        Ok(ChanId {
            owner: AsId::get(r)?,
            index: r.get_u32()?,
        })
    }
}

impl XdrField for QueueId {
    fn put(&self, w: &mut XdrWriter) {
        self.owner.put(w);
        w.put_u32(self.index);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        Ok(QueueId {
            owner: AsId::get(r)?,
            index: r.get_u32()?,
        })
    }
}

impl XdrField for ResourceId {
    fn put(&self, w: &mut XdrWriter) {
        match self {
            ResourceId::Channel(c) => {
                w.put_u32(class::RES_CHANNEL);
                c.put(w);
            }
            ResourceId::Queue(q) => {
                w.put_u32(class::RES_QUEUE);
                q.put(w);
            }
        }
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        match r.get_u32()? {
            class::RES_CHANNEL => Ok(ResourceId::Channel(ChanId::get(r)?)),
            class::RES_QUEUE => Ok(ResourceId::Queue(QueueId::get(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl XdrField for ChannelAttrs {
    fn put(&self, w: &mut XdrWriter) {
        self.capacity().put(w);
        w.put_u32(self.overflow().code());
        w.put_u32(self.gc().code());
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        let capacity = Option::<u32>::get(r)?;
        let overflow = OverflowPolicy::from_code(r.get_u32()?);
        let gc = GcPolicy::from_code(r.get_u32()?);
        let mut b = ChannelAttrs::builder().overflow(overflow).gc(gc);
        if let Some(c) = capacity {
            b = b.capacity(c);
        }
        Ok(b.build())
    }
}

impl XdrField for QueueAttrs {
    fn put(&self, w: &mut XdrWriter) {
        self.capacity().put(w);
        w.put_u32(self.overflow().code());
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        let capacity = Option::<u32>::get(r)?;
        let overflow = OverflowPolicy::from_code(r.get_u32()?);
        let mut b = QueueAttrs::builder().overflow(overflow);
        if let Some(c) = capacity {
            b = b.capacity(c);
        }
        Ok(b.build())
    }
}

impl XdrField for Interest {
    fn put(&self, w: &mut XdrWriter) {
        match self {
            Interest::FromEarliest => w.put_u32(class::INTEREST_EARLIEST),
            Interest::FromLatest => w.put_u32(class::INTEREST_LATEST),
            Interest::FromTs(ts) => {
                w.put_u32(class::INTEREST_FROM_TS);
                ts.put(w);
            }
        }
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        match r.get_u32()? {
            class::INTEREST_EARLIEST => Ok(Interest::FromEarliest),
            class::INTEREST_LATEST => Ok(Interest::FromLatest),
            class::INTEREST_FROM_TS => Ok(Interest::FromTs(Timestamp::get(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl XdrField for TagFilter {
    fn put(&self, w: &mut XdrWriter) {
        match self {
            TagFilter::Any => w.put_u32(class::FILTER_ANY),
            TagFilter::Only(tags) => {
                w.put_u32(class::FILTER_ONLY);
                tags.put(w);
            }
            TagFilter::Stripe { modulus, remainder } => {
                w.put_u32(class::FILTER_STRIPE);
                w.put_u32(*modulus);
                w.put_u32(*remainder);
            }
        }
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        match r.get_u32()? {
            class::FILTER_ANY => Ok(TagFilter::Any),
            class::FILTER_ONLY => Ok(TagFilter::Only(Vec::get(r)?)),
            class::FILTER_STRIPE => Ok(TagFilter::Stripe {
                modulus: r.get_u32()?,
                remainder: r.get_u32()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl XdrField for GetSpec {
    fn put(&self, w: &mut XdrWriter) {
        match self {
            GetSpec::Exact(ts) => {
                w.put_u32(class::SPEC_EXACT);
                ts.put(w);
            }
            GetSpec::Latest => w.put_u32(class::SPEC_LATEST),
            GetSpec::Earliest => w.put_u32(class::SPEC_EARLIEST),
            GetSpec::After(ts) => {
                w.put_u32(class::SPEC_AFTER);
                ts.put(w);
            }
        }
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        match r.get_u32()? {
            class::SPEC_EXACT => Ok(GetSpec::Exact(Timestamp::get(r)?)),
            class::SPEC_LATEST => Ok(GetSpec::Latest),
            class::SPEC_EARLIEST => Ok(GetSpec::Earliest),
            class::SPEC_AFTER => Ok(GetSpec::After(Timestamp::get(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl XdrField for WaitSpec {
    fn put(&self, w: &mut XdrWriter) {
        match self {
            WaitSpec::NonBlocking => w.put_u32(class::WAIT_NON_BLOCKING),
            WaitSpec::Forever => w.put_u32(class::WAIT_FOREVER),
            WaitSpec::TimeoutMs(ms) => {
                w.put_u32(class::WAIT_TIMEOUT);
                w.put_u32(*ms);
            }
        }
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        match r.get_u32()? {
            class::WAIT_NON_BLOCKING => Ok(WaitSpec::NonBlocking),
            class::WAIT_FOREVER => Ok(WaitSpec::Forever),
            class::WAIT_TIMEOUT => Ok(WaitSpec::TimeoutMs(r.get_u32()?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The request wrapped by [`Request::WithId`]. A second level of wrapping
/// is refused before descending, so a forged frame cannot recurse.
impl XdrField for Box<Request> {
    fn put(&self, w: &mut XdrWriter) {
        self.put_xdr(w);
    }
    fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
        if r.clone().get_u32()? == class::WITH_ID {
            return Err(WireError::BadValue("nested WithId request".to_owned()));
        }
        Ok(Box::new(Request::get_xdr(r)?))
    }
}

/// Appends the optional trace-context trailer: a magic tag followed by the
/// trace and span ids. Nothing is written when the frame carries no context,
/// so traced and untraced frames share one layout.
fn put_trace_trailer(w: &mut XdrWriter, trace: Option<TraceContext>) {
    if let Some(ctx) = trace {
        w.put_u32(class::TRACE_CTX);
        ctx.put(w);
    }
}

/// Parses the optional trace-context trailer and requires the frame to end
/// there. Remaining bytes that do not start with the magic tag are trailing
/// garbage.
fn get_trace_trailer(r: &mut XdrReader<'_>) -> Result<Option<TraceContext>, WireError> {
    let rem = r.remaining();
    if rem == 0 {
        return Ok(None);
    }
    if r.get_u32()? != class::TRACE_CTX {
        return Err(WireError::TrailingBytes(rem));
    }
    let ctx = TraceContext::get(r)?;
    r.finish()?;
    Ok(Some(ctx))
}

impl Codec for XdrCodec {
    fn id(&self) -> CodecId {
        CodecId::Xdr
    }

    fn encode_request(&self, frame: &RequestFrame) -> Result<EncodedFrame, WireError> {
        frame.req.check_nesting()?;
        let mut w = XdrWriter::scatter(64);
        w.put_u64(frame.seq);
        frame.req.put_xdr(&mut w);
        put_trace_trailer(&mut w, frame.trace);
        Ok(w.into_frame())
    }

    fn decode_request(&self, bytes: &Bytes) -> Result<RequestFrame, WireError> {
        let mut r = XdrReader::with_backing(bytes);
        Ok(RequestFrame {
            seq: r.get_u64()?,
            req: Request::get_xdr(&mut r)?,
            trace: get_trace_trailer(&mut r)?,
        })
    }

    fn encode_reply(&self, frame: &ReplyFrame) -> Result<EncodedFrame, WireError> {
        let mut w = XdrWriter::scatter(64);
        w.put_u64(frame.seq);
        frame.gc_notes.put(&mut w);
        frame.reply.put_xdr(&mut w);
        put_trace_trailer(&mut w, frame.trace);
        Ok(w.into_frame())
    }

    fn decode_reply(&self, bytes: &Bytes) -> Result<ReplyFrame, WireError> {
        let mut r = XdrReader::with_backing(bytes);
        Ok(ReplyFrame {
            seq: r.get_u64()?,
            gc_notes: Vec::<GcNote>::get(&mut r)?,
            reply: Reply::get_xdr(&mut r)?,
            trace: get_trace_trailer(&mut r)?,
        })
    }

    fn encode_sack(&self, sack: &SackInfo) -> Result<EncodedFrame, WireError> {
        SackInfo::check_bitmap_len(sack.bitmap.len())?;
        // Layout mirrors a request frame's prologue (u64, then a u32
        // body tag) so a SACK misdirected at a request decoder
        // deterministically dies on `BadTag(CLF_SACK)` instead of
        // misreading the tag bytes as part of a sequence number.
        let mut w = XdrWriter::scatter(32);
        w.put_u64(sack.ack_next);
        w.put_u32(class::CLF_SACK);
        w.put_payload(&sack.bitmap);
        Ok(w.into_frame())
    }

    fn decode_sack(&self, bytes: &Bytes) -> Result<SackInfo, WireError> {
        let mut r = XdrReader::with_backing(bytes);
        let ack_next = r.get_u64()?;
        match r.get_u32()? {
            class::CLF_SACK => {}
            t => return Err(WireError::BadTag(t)),
        }
        let bitmap = r.get_payload()?;
        SackInfo::check_bitmap_len(bitmap.len())?;
        r.finish()?;
        Ok(SackInfo { ack_next, bitmap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::test_vectors::{all_replies, all_requests};

    #[test]
    fn every_request_round_trips() {
        let codec = XdrCodec::new();
        for (i, req) in all_requests().into_iter().enumerate() {
            let frame = RequestFrame::new(i as u64, req);
            let bytes = codec.encode_request(&frame).unwrap().to_bytes();
            let back = codec.decode_request(&bytes).unwrap();
            assert_eq!(back, frame, "request #{i}");
        }
    }

    #[test]
    fn every_reply_round_trips() {
        let codec = XdrCodec::new();
        for (i, (reply, notes)) in all_replies().into_iter().enumerate() {
            let frame = ReplyFrame::new(i as u64, notes, reply);
            let bytes = codec.encode_reply(&frame).unwrap().to_bytes();
            let back = codec.decode_reply(&bytes).unwrap();
            assert_eq!(back, frame, "reply #{i}");
        }
    }

    #[test]
    fn unknown_request_tag_rejected() {
        let mut w = XdrWriter::new();
        w.put_u64(1);
        w.put_u32(999);
        let bytes = Bytes::from(w.into_bytes());
        assert_eq!(
            XdrCodec::new().decode_request(&bytes).unwrap_err(),
            WireError::BadTag(999)
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let codec = XdrCodec::new();
        let frame = RequestFrame::new(1, Request::Detach);
        let mut bytes = codec.encode_request(&frame).unwrap().to_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            codec.decode_request(&Bytes::from(bytes)).unwrap_err(),
            WireError::TrailingBytes(4)
        );
    }

    #[test]
    fn trace_context_round_trips() {
        let codec = XdrCodec::new();
        let ctx = TraceContext {
            trace: TraceId(0xdead_beef_cafe_f00d),
            span: SpanId(0x0123_4567_89ab_cdef),
        };
        let frame = RequestFrame::new(7, Request::Ping { nonce: 9 }).with_trace(Some(ctx));
        let bytes = codec.encode_request(&frame).unwrap().to_bytes();
        let back = codec.decode_request(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.trace, Some(ctx));

        let reply = ReplyFrame::new(7, vec![], Reply::Pong { nonce: 9 }).with_trace(Some(ctx));
        let bytes = codec.encode_reply(&reply).unwrap().to_bytes();
        let back = codec.decode_reply(&bytes).unwrap();
        assert_eq!(back.trace, Some(ctx));
    }

    #[test]
    fn context_free_frames_unchanged_on_wire() {
        // A frame without context must encode to exactly the pre-tracing
        // byte layout: no trailer bytes at all.
        let codec = XdrCodec::new();
        let plain = codec
            .encode_request(&RequestFrame::new(1, Request::Detach))
            .unwrap()
            .to_bytes();
        let traced = codec
            .encode_request(
                &RequestFrame::new(1, Request::Detach).with_trace(Some(TraceContext {
                    trace: TraceId(1),
                    span: SpanId(2),
                })),
            )
            .unwrap()
            .to_bytes();
        assert_eq!(traced.len(), plain.len() + 4 + 8 + 8);
        assert_eq!(&traced[..plain.len()], &plain[..]);
    }

    #[test]
    fn truncated_trace_trailer_rejected() {
        let codec = XdrCodec::new();
        let frame = RequestFrame::new(1, Request::Detach).with_trace(Some(TraceContext {
            trace: TraceId(1),
            span: SpanId(2),
        }));
        let bytes = codec.encode_request(&frame).unwrap().to_bytes();
        assert_eq!(
            codec
                .decode_request(&bytes.slice(..bytes.len() - 4))
                .unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn truncated_reply_rejected() {
        let codec = XdrCodec::new();
        let frame = ReplyFrame::new(1, vec![], Reply::Pong { nonce: 3 });
        let bytes = codec.encode_reply(&frame).unwrap().to_bytes();
        assert_eq!(
            codec
                .decode_reply(&bytes.slice(..bytes.len() - 2))
                .unwrap_err(),
            WireError::Truncated
        );
    }
}

//! The JDR codec: boxed object-tree marshalling (the Java client library).
//!
//! Every frame is first lifted into a [`JdrValue`] object tree — one heap
//! allocation per field, byte arrays copied element-wise — and then
//! streamed byte-at-a-time through a virtual sink. Decoding reverses the
//! two stages. This is deliberately the expensive path; see
//! [`crate::jdr`] for the rationale.
//!
//! Message bodies are derived from the one declaration in [`crate::rpc`];
//! this module says which tree node each *field type* becomes
//! ([`JdrField`]) and builds the frame envelope.

use bytes::Bytes;

use dstampede_core::{
    AsId, ChanId, ChannelAttrs, GcPolicy, GetSpec, Interest, OverflowPolicy, QueueAttrs, QueueId,
    ResourceId, TagFilter, Timestamp,
};

use dstampede_obs::{SpanId, TraceContext, TraceId};

use crate::codec::{class, Codec, CodecId};
use crate::error::WireError;
use crate::frame::EncodedFrame;
use crate::jdr::{self, JdrValue};
use crate::rpc::{GcNote, Reply, ReplyFrame, Request, RequestFrame, SackInfo, WaitSpec};

/// Object-tree JDR marshalling of RPC frames (the Java client's cost
/// profile).
#[derive(Debug, Default, Clone, Copy)]
pub struct JdrCodec;

impl JdrCodec {
    /// Creates the codec (stateless).
    #[must_use]
    pub fn new() -> Self {
        JdrCodec
    }
}

/// Which tree node a message field's type becomes in JDR. The message
/// table in [`crate::rpc`] lifts and lowers every field through this.
pub(crate) trait JdrField: Sized {
    fn to_value(&self) -> JdrValue;
    fn from_value(v: &JdrValue) -> Result<Self, WireError>;
}

/// The next positional field of an object, or [`WireError::Truncated`].
pub(crate) fn next_field<'a>(
    fields: &mut std::slice::Iter<'a, Box<JdrValue>>,
) -> Result<&'a JdrValue, WireError> {
    fields.next().map(AsRef::as_ref).ok_or(WireError::Truncated)
}

/// The fields of an object of exactly class `want`.
fn fields_of(v: &JdrValue, want: u32) -> Result<std::slice::Iter<'_, Box<JdrValue>>, WireError> {
    let (cls, fields) = v.as_object()?;
    if cls != want {
        return Err(WireError::BadTag(cls));
    }
    Ok(fields.iter())
}

impl JdrField for u32 {
    fn to_value(&self) -> JdrValue {
        JdrValue::Int(*self as i32)
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        v.as_u32()
    }
}

impl JdrField for u64 {
    fn to_value(&self) -> JdrValue {
        JdrValue::Long(*self as i64)
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        v.as_u64()
    }
}

impl JdrField for bool {
    fn to_value(&self) -> JdrValue {
        JdrValue::Bool(*self)
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        v.as_bool()
    }
}

impl JdrField for String {
    fn to_value(&self) -> JdrValue {
        JdrValue::str(self)
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        Ok(v.as_str()?.to_owned())
    }
}

impl JdrField for Bytes {
    fn to_value(&self) -> JdrValue {
        JdrValue::payload(self.clone())
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        Ok(v.as_payload()?.clone())
    }
}

impl JdrField for Timestamp {
    fn to_value(&self) -> JdrValue {
        JdrValue::Long(self.value())
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        Ok(Timestamp::new(v.as_i64()?))
    }
}

/// Address-space ids travel as a Java `short` widened to `int`.
impl JdrField for AsId {
    fn to_value(&self) -> JdrValue {
        JdrValue::Int(i32::from(self.0 as i16))
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        Ok(AsId(v.as_i32()? as u16))
    }
}

impl<T: JdrField> JdrField for Option<T> {
    fn to_value(&self) -> JdrValue {
        self.as_ref().map_or(JdrValue::Null, T::to_value)
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        v.as_option().map(T::from_value).transpose()
    }
}

impl<T: JdrField> JdrField for Vec<T> {
    fn to_value(&self) -> JdrValue {
        JdrValue::List(self.iter().map(|v| Box::new(v.to_value())).collect())
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        v.as_list()?.iter().map(|v| T::from_value(v)).collect()
    }
}

impl JdrField for TraceContext {
    fn to_value(&self) -> JdrValue {
        JdrValue::object(
            class::TRACE_CTX,
            vec![self.trace.0.to_value(), self.span.0.to_value()],
        )
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let mut f = fields_of(v, class::TRACE_CTX)?;
        Ok(TraceContext {
            trace: TraceId(u64::from_value(next_field(&mut f)?)?),
            span: SpanId(u64::from_value(next_field(&mut f)?)?),
        })
    }
}

impl JdrField for ChanId {
    fn to_value(&self) -> JdrValue {
        JdrValue::object(
            class::RES_CHANNEL,
            vec![self.owner.to_value(), self.index.to_value()],
        )
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let mut f = fields_of(v, class::RES_CHANNEL)?;
        Ok(ChanId {
            owner: AsId::from_value(next_field(&mut f)?)?,
            index: u32::from_value(next_field(&mut f)?)?,
        })
    }
}

impl JdrField for QueueId {
    fn to_value(&self) -> JdrValue {
        JdrValue::object(
            class::RES_QUEUE,
            vec![self.owner.to_value(), self.index.to_value()],
        )
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let mut f = fields_of(v, class::RES_QUEUE)?;
        Ok(QueueId {
            owner: AsId::from_value(next_field(&mut f)?)?,
            index: u32::from_value(next_field(&mut f)?)?,
        })
    }
}

impl JdrField for ResourceId {
    fn to_value(&self) -> JdrValue {
        match self {
            ResourceId::Channel(c) => c.to_value(),
            ResourceId::Queue(q) => q.to_value(),
        }
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        match v.as_object()?.0 {
            class::RES_CHANNEL => Ok(ResourceId::Channel(ChanId::from_value(v)?)),
            class::RES_QUEUE => Ok(ResourceId::Queue(QueueId::from_value(v)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl JdrField for ChannelAttrs {
    fn to_value(&self) -> JdrValue {
        JdrValue::object(
            0,
            vec![
                self.capacity().to_value(),
                self.overflow().code().to_value(),
                self.gc().code().to_value(),
            ],
        )
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let mut f = v.as_object()?.1.iter();
        let capacity = Option::<u32>::from_value(next_field(&mut f)?)?;
        let overflow = OverflowPolicy::from_code(u32::from_value(next_field(&mut f)?)?);
        let gc = GcPolicy::from_code(u32::from_value(next_field(&mut f)?)?);
        let mut b = ChannelAttrs::builder().overflow(overflow).gc(gc);
        if let Some(c) = capacity {
            b = b.capacity(c);
        }
        Ok(b.build())
    }
}

impl JdrField for QueueAttrs {
    fn to_value(&self) -> JdrValue {
        JdrValue::object(
            0,
            vec![
                self.capacity().to_value(),
                self.overflow().code().to_value(),
            ],
        )
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let mut f = v.as_object()?.1.iter();
        let capacity = Option::<u32>::from_value(next_field(&mut f)?)?;
        let overflow = OverflowPolicy::from_code(u32::from_value(next_field(&mut f)?)?);
        let mut b = QueueAttrs::builder().overflow(overflow);
        if let Some(c) = capacity {
            b = b.capacity(c);
        }
        Ok(b.build())
    }
}

impl JdrField for Interest {
    fn to_value(&self) -> JdrValue {
        match self {
            Interest::FromEarliest => JdrValue::object(class::INTEREST_EARLIEST, vec![]),
            Interest::FromLatest => JdrValue::object(class::INTEREST_LATEST, vec![]),
            Interest::FromTs(ts) => JdrValue::object(class::INTEREST_FROM_TS, vec![ts.to_value()]),
        }
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let (cls, f) = v.as_object()?;
        let mut f = f.iter();
        match cls {
            class::INTEREST_EARLIEST => Ok(Interest::FromEarliest),
            class::INTEREST_LATEST => Ok(Interest::FromLatest),
            class::INTEREST_FROM_TS => Ok(Interest::FromTs(Timestamp::from_value(next_field(
                &mut f,
            )?)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl JdrField for TagFilter {
    fn to_value(&self) -> JdrValue {
        match self {
            TagFilter::Any => JdrValue::object(class::FILTER_ANY, vec![]),
            TagFilter::Only(tags) => JdrValue::object(class::FILTER_ONLY, vec![tags.to_value()]),
            TagFilter::Stripe { modulus, remainder } => JdrValue::object(
                class::FILTER_STRIPE,
                vec![modulus.to_value(), remainder.to_value()],
            ),
        }
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let (cls, f) = v.as_object()?;
        let mut f = f.iter();
        match cls {
            class::FILTER_ANY => Ok(TagFilter::Any),
            class::FILTER_ONLY => Ok(TagFilter::Only(Vec::from_value(next_field(&mut f)?)?)),
            class::FILTER_STRIPE => Ok(TagFilter::Stripe {
                modulus: u32::from_value(next_field(&mut f)?)?,
                remainder: u32::from_value(next_field(&mut f)?)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl JdrField for GetSpec {
    fn to_value(&self) -> JdrValue {
        match self {
            GetSpec::Exact(ts) => JdrValue::object(class::SPEC_EXACT, vec![ts.to_value()]),
            GetSpec::Latest => JdrValue::object(class::SPEC_LATEST, vec![]),
            GetSpec::Earliest => JdrValue::object(class::SPEC_EARLIEST, vec![]),
            GetSpec::After(ts) => JdrValue::object(class::SPEC_AFTER, vec![ts.to_value()]),
        }
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let (cls, f) = v.as_object()?;
        let mut f = f.iter();
        match cls {
            class::SPEC_EXACT => Ok(GetSpec::Exact(Timestamp::from_value(next_field(&mut f)?)?)),
            class::SPEC_LATEST => Ok(GetSpec::Latest),
            class::SPEC_EARLIEST => Ok(GetSpec::Earliest),
            class::SPEC_AFTER => Ok(GetSpec::After(Timestamp::from_value(next_field(&mut f)?)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl JdrField for WaitSpec {
    fn to_value(&self) -> JdrValue {
        match self {
            WaitSpec::NonBlocking => JdrValue::object(class::WAIT_NON_BLOCKING, vec![]),
            WaitSpec::Forever => JdrValue::object(class::WAIT_FOREVER, vec![]),
            WaitSpec::TimeoutMs(ms) => JdrValue::object(class::WAIT_TIMEOUT, vec![ms.to_value()]),
        }
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        let (cls, f) = v.as_object()?;
        let mut f = f.iter();
        match cls {
            class::WAIT_NON_BLOCKING => Ok(WaitSpec::NonBlocking),
            class::WAIT_FOREVER => Ok(WaitSpec::Forever),
            class::WAIT_TIMEOUT => Ok(WaitSpec::TimeoutMs(u32::from_value(next_field(&mut f)?)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The request wrapped by [`Request::WithId`]; a second level of
/// wrapping is refused before descending.
impl JdrField for Box<Request> {
    fn to_value(&self) -> JdrValue {
        self.to_jdr()
    }
    fn from_value(v: &JdrValue) -> Result<Self, WireError> {
        if v.as_object()?.0 == class::WITH_ID {
            return Err(WireError::BadValue("nested WithId request".to_owned()));
        }
        Ok(Box::new(Request::from_jdr(v)?))
    }
}

/// Class of the frame envelope object: `[seq, (gc notes,) body, trace]`.
const ENVELOPE: u32 = u32::MAX;

/// Reads the envelope's trailing trace field; absent and `Null` both mean
/// no context.
fn envelope_trace(
    fields: &mut std::slice::Iter<'_, Box<JdrValue>>,
) -> Result<Option<TraceContext>, WireError> {
    fields.next().map_or(Ok(None), |v| Option::from_value(v))
}

impl Codec for JdrCodec {
    fn id(&self) -> CodecId {
        CodecId::Jdr
    }

    fn encode_request(&self, frame: &RequestFrame) -> Result<EncodedFrame, WireError> {
        frame.req.check_nesting()?;
        Ok(jdr::encode_frame(&JdrValue::object(
            ENVELOPE,
            vec![
                frame.seq.to_value(),
                frame.req.to_jdr(),
                frame.trace.to_value(),
            ],
        )))
    }

    fn decode_request(&self, bytes: &Bytes) -> Result<RequestFrame, WireError> {
        let v = jdr::decode_bytes(bytes)?;
        let mut env = fields_of(&v, ENVELOPE)?;
        Ok(RequestFrame {
            seq: u64::from_value(next_field(&mut env)?)?,
            req: Request::from_jdr(next_field(&mut env)?)?,
            trace: envelope_trace(&mut env)?,
        })
    }

    fn encode_reply(&self, frame: &ReplyFrame) -> Result<EncodedFrame, WireError> {
        Ok(jdr::encode_frame(&JdrValue::object(
            ENVELOPE,
            vec![
                frame.seq.to_value(),
                frame.gc_notes.to_value(),
                frame.reply.to_jdr(),
                frame.trace.to_value(),
            ],
        )))
    }

    fn decode_reply(&self, bytes: &Bytes) -> Result<ReplyFrame, WireError> {
        let v = jdr::decode_bytes(bytes)?;
        let mut env = fields_of(&v, ENVELOPE)?;
        Ok(ReplyFrame {
            seq: u64::from_value(next_field(&mut env)?)?,
            gc_notes: Vec::<GcNote>::from_value(next_field(&mut env)?)?,
            reply: Reply::from_jdr(next_field(&mut env)?)?,
            trace: envelope_trace(&mut env)?,
        })
    }

    fn encode_sack(&self, sack: &SackInfo) -> Result<EncodedFrame, WireError> {
        SackInfo::check_bitmap_len(sack.bitmap.len())?;
        Ok(jdr::encode_frame(&JdrValue::object(
            class::CLF_SACK,
            vec![sack.ack_next.to_value(), sack.bitmap.to_value()],
        )))
    }

    fn decode_sack(&self, bytes: &Bytes) -> Result<SackInfo, WireError> {
        let v = jdr::decode_bytes(bytes)?;
        let mut f = fields_of(&v, class::CLF_SACK)?;
        let ack_next = u64::from_value(next_field(&mut f)?)?;
        let bitmap = Bytes::from_value(next_field(&mut f)?)?;
        SackInfo::check_bitmap_len(bitmap.len())?;
        Ok(SackInfo { ack_next, bitmap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jdr::encode as jdr_encode;
    use crate::rpc::test_vectors::{all_replies, all_requests};

    #[test]
    fn every_request_round_trips() {
        let codec = JdrCodec::new();
        for (i, req) in all_requests().into_iter().enumerate() {
            let frame = RequestFrame::new(i as u64, req);
            let bytes = codec.encode_request(&frame).unwrap().to_bytes();
            let back = codec.decode_request(&bytes).unwrap();
            assert_eq!(back, frame, "request #{i}");
        }
    }

    #[test]
    fn every_reply_round_trips() {
        let codec = JdrCodec::new();
        for (i, (reply, notes)) in all_replies().into_iter().enumerate() {
            let frame = ReplyFrame::new(i as u64, notes, reply);
            let bytes = codec.encode_reply(&frame).unwrap().to_bytes();
            let back = codec.decode_reply(&bytes).unwrap();
            assert_eq!(back, frame, "reply #{i}");
        }
    }

    #[test]
    fn jdr_and_xdr_are_different_wire_formats() {
        let frame = RequestFrame::new(1, Request::Ping { nonce: 2 });
        let jdr = JdrCodec::new().encode_request(&frame).unwrap().to_bytes();
        let xdr = crate::codec_xdr::XdrCodec::new()
            .encode_request(&frame)
            .unwrap()
            .to_bytes();
        assert_ne!(jdr, xdr);
        // Cross-decoding must fail or mis-parse, never panic.
        let _ = JdrCodec::new().decode_request(&xdr);
    }

    #[test]
    fn bad_envelope_rejected() {
        let v = JdrValue::object(3, vec![]);
        let bytes = Bytes::from(jdr_encode(&v));
        assert!(JdrCodec::new().decode_request(&bytes).is_err());
        assert!(JdrCodec::new().decode_reply(&bytes).is_err());
    }

    #[test]
    fn trace_context_round_trips() {
        let codec = JdrCodec::new();
        let ctx = TraceContext {
            trace: TraceId(u64::MAX - 3),
            span: SpanId(42),
        };
        let frame = RequestFrame::new(5, Request::Ping { nonce: 1 }).with_trace(Some(ctx));
        let back = codec
            .decode_request(&codec.encode_request(&frame).unwrap().to_bytes())
            .unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.trace, Some(ctx));

        let reply = ReplyFrame::new(5, vec![], Reply::Pong { nonce: 1 }).with_trace(Some(ctx));
        let back = codec
            .decode_reply(&codec.encode_reply(&reply).unwrap().to_bytes())
            .unwrap();
        assert_eq!(back.trace, Some(ctx));
    }

    #[test]
    fn envelope_without_trace_field_decodes_as_none() {
        // A two-field request envelope is what pre-tracing encoders emit.
        let v = JdrValue::object(
            u32::MAX,
            vec![JdrValue::Long(9), JdrValue::object(class::DETACH, vec![])],
        );
        let back = JdrCodec::new()
            .decode_request(&Bytes::from(jdr_encode(&v)))
            .unwrap();
        assert_eq!(back, RequestFrame::new(9, Request::Detach));
        assert_eq!(back.trace, None);
    }

    #[test]
    fn missing_field_rejected() {
        // Envelope with a PING object that has no fields.
        let v = JdrValue::object(
            u32::MAX,
            vec![JdrValue::Long(1), JdrValue::object(class::PING, vec![])],
        );
        let bytes = Bytes::from(jdr_encode(&v));
        assert_eq!(
            JdrCodec::new().decode_request(&bytes).unwrap_err(),
            WireError::Truncated
        );
    }
}

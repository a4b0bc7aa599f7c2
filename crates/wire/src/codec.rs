//! The [`Codec`] abstraction: pluggable marshalling for RPC frames.
//!
//! A session negotiates its codec at connect time (one identification byte)
//! and then every frame on that session uses it. Two codecs exist, chosen
//! to reproduce the paper's C-vs-Java client asymmetry:
//!
//! * [`CodecId::Xdr`] → [`crate::codec_xdr::XdrCodec`] — flat, bulk-copy
//!   marshalling (the C client library).
//! * [`CodecId::Jdr`] → [`crate::codec_jdr::JdrCodec`] — boxed object-tree,
//!   element-wise marshalling (the Java client library).
//!
//! Both derive their message bodies from the single declaration in
//! [`crate::rpc`]. There is one protocol per build: every address space
//! of a cluster and every client library come from this workspace, so a
//! mismatch surfaces as a decode error (a total decoder rejects the
//! frame) or as the executor's *unhandled request* error reply — never
//! as a negotiated downgrade.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use crate::error::WireError;
use crate::frame::EncodedFrame;
use crate::rpc::{ReplyFrame, RequestFrame, SackInfo};

/// Identifies a codec on the wire (the session's first byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecId {
    /// XDR, the C client library's format.
    Xdr,
    /// JDR, the Java client library's format.
    Jdr,
}

impl CodecId {
    /// The wire identification byte.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            CodecId::Xdr => 0,
            CodecId::Jdr => 1,
        }
    }

    /// Parses the identification byte.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] for unknown bytes.
    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(CodecId::Xdr),
            1 => Ok(CodecId::Jdr),
            other => Err(WireError::BadTag(u32::from(other))),
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecId::Xdr => write!(f, "xdr"),
            CodecId::Jdr => write!(f, "jdr"),
        }
    }
}

/// Marshals RPC frames to and from bytes.
///
/// Implementations must be deterministic: `decode(encode(f)) == f`.
///
/// Encoding emits an [`EncodedFrame`] — header bytes staged in pooled
/// buffers plus item payloads as borrowed [`Bytes`] segments, so
/// payloads are never memcpy'd at encode time. Decoding takes the
/// refcounted receive buffer and yields payloads as slice views into
/// it. The flattened segment bytes are the wire format, pinned byte for
/// byte by the fixtures under `tests/golden/`.
pub trait Codec: Send + Sync + fmt::Debug {
    /// Which codec this is.
    fn id(&self) -> CodecId;

    /// Encodes a request frame as scatter-gather segments.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unrepresentable values.
    fn encode_request(&self, frame: &RequestFrame) -> Result<EncodedFrame, WireError>;

    /// Decodes a request frame, requiring full consumption of the input.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input.
    fn decode_request(&self, bytes: &Bytes) -> Result<RequestFrame, WireError>;

    /// Encodes a reply frame as scatter-gather segments.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unrepresentable values.
    fn encode_reply(&self, frame: &ReplyFrame) -> Result<EncodedFrame, WireError>;

    /// Decodes a reply frame, requiring full consumption of the input.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input.
    fn decode_reply(&self, bytes: &Bytes) -> Result<ReplyFrame, WireError>;

    /// Encodes a CLF selective-acknowledgment body (the payload of a
    /// CLF `SACK` datagram, see `dstampede-clf`). The frame carries its
    /// own tag (`CLF_SACK`), disjoint from every request and reply tag,
    /// so a request or reply decoder handed one rejects it cleanly
    /// instead of misparsing.
    ///
    /// # Errors
    ///
    /// [`WireError`] on unrepresentable values.
    fn encode_sack(&self, sack: &SackInfo) -> Result<EncodedFrame, WireError>;

    /// Decodes a CLF selective-acknowledgment body, requiring full
    /// consumption of the input.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] when the input is not a SACK body,
    /// [`WireError::BadValue`] for bitmaps above
    /// [`crate::rpc::MAX_SACK_BITMAP`], other [`WireError`]s on
    /// malformed input.
    fn decode_sack(&self, bytes: &Bytes) -> Result<SackInfo, WireError>;
}

/// Returns the codec registered for an id.
#[must_use]
pub fn codec_for(id: CodecId) -> Arc<dyn Codec> {
    match id {
        CodecId::Xdr => Arc::new(crate::codec_xdr::XdrCodec::new()),
        CodecId::Jdr => Arc::new(crate::codec_jdr::JdrCodec::new()),
    }
}

/// Message discriminants shared by every codec implementation.
pub(crate) mod class {
    // Requests.
    pub const ATTACH: u32 = 1;
    pub const DETACH: u32 = 2;
    pub const PING: u32 = 3;
    pub const CHANNEL_CREATE: u32 = 4;
    pub const QUEUE_CREATE: u32 = 5;
    pub const CONNECT_CHANNEL_IN: u32 = 6;
    pub const CONNECT_CHANNEL_OUT: u32 = 7;
    pub const CONNECT_QUEUE_IN: u32 = 8;
    pub const CONNECT_QUEUE_OUT: u32 = 9;
    pub const DISCONNECT: u32 = 10;
    pub const CHANNEL_PUT: u32 = 11;
    pub const CHANNEL_GET: u32 = 12;
    pub const CHANNEL_CONSUME: u32 = 13;
    pub const CHANNEL_SET_VT: u32 = 14;
    pub const QUEUE_PUT: u32 = 15;
    pub const QUEUE_GET: u32 = 16;
    pub const QUEUE_CONSUME: u32 = 17;
    pub const QUEUE_REQUEUE: u32 = 18;
    pub const NS_REGISTER: u32 = 19;
    pub const NS_LOOKUP: u32 = 20;
    pub const NS_UNREGISTER: u32 = 21;
    pub const NS_LIST: u32 = 22;
    pub const INSTALL_GARBAGE_HOOK: u32 = 23;
    pub const GC_REPORT: u32 = 24;
    pub const STATS_PULL: u32 = 25;
    pub const HEARTBEAT: u32 = 26;
    pub const WITH_ID: u32 = 27;
    pub const TRACE_PULL: u32 = 28;
    pub const PUT_BATCH: u32 = 29;
    pub const GET_BATCH: u32 = 30;
    pub const HISTORY_PULL: u32 = 31;
    pub const HEALTH_PULL: u32 = 32;
    pub const REPLICA_OPEN_CHANNEL: u32 = 33;
    pub const REPLICA_OPEN_QUEUE: u32 = 34;
    pub const REPLICATE_PUT: u32 = 35;
    /// CLF selective-acknowledgment body (not an RPC request; the tag
    /// lives in the request space so it can never collide with one).
    pub const CLF_SACK: u32 = 36;

    // Replies.
    pub const R_OK: u32 = 1;
    pub const R_ATTACHED: u32 = 2;
    pub const R_CREATED: u32 = 3;
    pub const R_CONNECTED: u32 = 4;
    pub const R_ITEM: u32 = 5;
    pub const R_QUEUE_ITEM: u32 = 6;
    pub const R_NS_FOUND: u32 = 7;
    pub const R_NS_ENTRIES: u32 = 8;
    pub const R_PONG: u32 = 9;
    pub const R_ERROR: u32 = 10;
    pub const R_STATS_REPORT: u32 = 11;
    pub const R_TRACE_REPORT: u32 = 12;
    pub const R_BATCH_RESULTS: u32 = 13;
    pub const R_BATCH_ITEMS: u32 = 14;
    pub const R_HISTORY_REPORT: u32 = 15;
    pub const R_HEALTH_REPORT: u32 = 16;

    /// Magic tag guarding the optional XDR trace-context trailer.
    /// ASCII `tctx`; deliberately non-zero so trailing zero padding is
    /// still rejected as garbage.
    pub const TRACE_CTX: u32 = 0x7463_7478;

    // Sub-encodings.
    pub const RES_CHANNEL: u32 = 0;
    pub const RES_QUEUE: u32 = 1;
    pub const INTEREST_EARLIEST: u32 = 0;
    pub const INTEREST_LATEST: u32 = 1;
    pub const INTEREST_FROM_TS: u32 = 2;
    pub const SPEC_EXACT: u32 = 0;
    pub const SPEC_LATEST: u32 = 1;
    pub const SPEC_EARLIEST: u32 = 2;
    pub const SPEC_AFTER: u32 = 3;
    pub const WAIT_NON_BLOCKING: u32 = 0;
    pub const WAIT_FOREVER: u32 = 1;
    pub const WAIT_TIMEOUT: u32 = 2;
    pub const FILTER_ANY: u32 = 0;
    pub const FILTER_ONLY: u32 = 1;
    pub const FILTER_STRIPE: u32 = 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_byte_round_trip() {
        for id in [CodecId::Xdr, CodecId::Jdr] {
            assert_eq!(CodecId::from_byte(id.byte()).unwrap(), id);
        }
        assert!(CodecId::from_byte(9).is_err());
    }

    #[test]
    fn codec_for_returns_matching_impl() {
        assert_eq!(codec_for(CodecId::Xdr).id(), CodecId::Xdr);
        assert_eq!(codec_for(CodecId::Jdr).id(), CodecId::Jdr);
    }

    #[test]
    fn display_names() {
        assert_eq!(CodecId::Xdr.to_string(), "xdr");
        assert_eq!(CodecId::Jdr.to_string(), "jdr");
    }
}

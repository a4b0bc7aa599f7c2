//! RPC message vocabulary between end devices and the cluster.
//!
//! The D-Stampede API is "exported to the distributed end points in a
//! manner analogous to exporting a procedure call using an RPC interface"
//! (paper §3.2.1). Each API call becomes a [`Request`]; the surrogate
//! thread executes it on the cluster and answers with a [`Reply`]. Garbage
//! collection notifications for the end device ride piggy-back on replies
//! as [`GcNote`]s, delivered "at an opportune time (for e.g. when the next
//! D-Stampede API call comes from the end device)" (§3.2.4).
//!
//! This module is the single description of every message: each variant
//! is declared once, with its wire tag and its fields **in wire order**,
//! and both codecs' body marshalling is derived from that declaration
//! (the `messages!` and `records!` macros below). What a codec writes
//! by hand is only how each *field type* is represented — `XdrField` in
//! [`crate::codec_xdr`], `JdrField` in [`crate::codec_jdr`] — plus the
//! frame prologue and trace trailer.

use bytes::Bytes;

use dstampede_core::{
    AsId, ChanId, ChannelAttrs, GetSpec, Interest, QueueAttrs, QueueId, ResourceId, StmError,
    TagFilter, Timestamp,
};
use dstampede_obs::TraceContext;

use crate::codec::class;
use crate::codec_jdr::{next_field, JdrField};
use crate::codec_xdr::XdrField;
use crate::error::WireError;
use crate::jdr::JdrValue;
use crate::xdr::{XdrReader, XdrWriter};

/// Declares a message enum and derives its body marshalling for both
/// codecs. Each variant names its `class::*` tag; fields are written and
/// read in declaration order. XDR: the tag word, then each field through
/// `XdrField`. JDR: an object whose class is the tag and whose fields go
/// through `JdrField` (surplus fields are ignored, missing ones are
/// [`WireError::Truncated`]).
macro_rules! messages {
    (
        $(#[$emeta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:ident $({
                    $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$emeta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field : $fty ),* })?
            ),*
        }

        impl $name {
            pub(crate) fn put_xdr(&self, w: &mut XdrWriter) {
                match self {
                    $( Self::$variant { $($($field),*)? } => {
                        w.put_u32(class::$tag);
                        $($( XdrField::put($field, w); )*)?
                    } )*
                }
            }

            pub(crate) fn get_xdr(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
                match r.get_u32()? {
                    $( class::$tag => Ok(Self::$variant {
                        $($( $field: XdrField::get(r)? ),*)?
                    }), )*
                    t => Err(WireError::BadTag(t)),
                }
            }

            pub(crate) fn to_jdr(&self) -> JdrValue {
                match self {
                    $( Self::$variant { $($($field),*)? } => JdrValue::object(
                        class::$tag,
                        vec![ $($( JdrField::to_value($field) ),*)? ],
                    ), )*
                }
            }

            pub(crate) fn from_jdr(v: &JdrValue) -> Result<Self, WireError> {
                let (cls, fields) = v.as_object()?;
                let mut fields = fields.iter();
                match cls {
                    $( class::$tag => Ok(Self::$variant {
                        $($( $field: JdrField::from_value(next_field(&mut fields)?)? ),*)?
                    }), )*
                    t => Err(WireError::BadTag(t)),
                }
            }
        }
    };
}

/// Declares a plain record that travels inside messages and derives its
/// field representation for both codecs: XDR writes the fields back to
/// back in declaration order, JDR wraps them in a class-0 object.
macro_rules! records {
    ($(
        $(#[$smeta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty ),* $(,)?
        }
    )*) => {$(
        $(#[$smeta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field : $fty ),*
        }

        impl XdrField for $name {
            fn put(&self, w: &mut XdrWriter) {
                $( self.$field.put(w); )*
            }

            fn get(r: &mut XdrReader<'_>) -> Result<Self, WireError> {
                Ok($name { $( $field: XdrField::get(r)? ),* })
            }
        }

        impl JdrField for $name {
            fn to_value(&self) -> JdrValue {
                JdrValue::object(0, vec![ $( self.$field.to_value() ),* ])
            }

            fn from_value(v: &JdrValue) -> Result<Self, WireError> {
                let (_, fields) = v.as_object()?;
                let mut fields = fields.iter();
                Ok($name { $( $field: JdrField::from_value(next_field(&mut fields)?)? ),* })
            }
        }
    )*};
}

/// How long an operation may block on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitSpec {
    /// Fail with `Absent`/`Full` instead of blocking.
    NonBlocking,
    /// Block until the condition is met (the surrogate thread waits).
    Forever,
    /// Block up to the given number of milliseconds.
    TimeoutMs(u32),
}

records! {
    /// One entry of a [`Request::PutBatch`].
    ///
    /// Each item carries its own optional trace context so causal tracing
    /// survives batching: a batch is one frame on the wire but N logical items.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchPutItem {
        /// Item timestamp.
        pub ts: Timestamp,
        /// Item user tag.
        pub tag: u32,
        /// Per-item causal trace context.
        pub trace: Option<TraceContext>,
        /// Item payload.
        pub payload: Bytes,
    }

    /// One entry of a [`Reply::BatchItems`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchGot {
        /// `0` for a delivered item, else the [`StmError::code`] of the
        /// per-spec failure (the remaining fields are then zero/empty).
        pub code: u32,
        /// Item timestamp.
        pub ts: Timestamp,
        /// Item user tag.
        pub tag: u32,
        /// Settlement ticket for queue items; `0` for channel items.
        pub ticket: u64,
        /// Per-item causal trace context.
        pub trace: Option<TraceContext>,
        /// Item payload.
        pub payload: Bytes,
    }
}

messages! {
    /// A client-to-cluster API call.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum Request {
        /// Join the computation; the listener spawns a surrogate.
        Attach = ATTACH {
            /// Human-readable client name (for diagnostics and the name server).
            client_name: String,
        },
        /// Leave cleanly; the surrogate tears down.
        Detach = DETACH,
        /// Liveness/latency probe.
        Ping = PING {
            /// Echoed back in the reply.
            nonce: u64,
        },
        /// Create a channel on the cluster (in the surrogate's address space).
        ChannelCreate = CHANNEL_CREATE {
            /// Optional name-server registration name.
            name: Option<String>,
            /// Channel attributes.
            attrs: ChannelAttrs,
        },
        /// Create a queue on the cluster.
        QueueCreate = QUEUE_CREATE {
            /// Optional name-server registration name.
            name: Option<String>,
            /// Queue attributes.
            attrs: QueueAttrs,
        },
        /// Open an input connection to a channel.
        ConnectChannelIn = CONNECT_CHANNEL_IN {
            /// Target channel.
            chan: ChanId,
            /// Where the connection starts paying attention.
            interest: Interest,
            /// Which item tags it attends to (the selective-attention
            /// filtering extension).
            filter: TagFilter,
        },
        /// Open an output connection to a channel.
        ConnectChannelOut = CONNECT_CHANNEL_OUT {
            /// Target channel.
            chan: ChanId,
        },
        /// Open an input connection to a queue.
        ConnectQueueIn = CONNECT_QUEUE_IN {
            /// Target queue.
            queue: QueueId,
        },
        /// Open an output connection to a queue.
        ConnectQueueOut = CONNECT_QUEUE_OUT {
            /// Target queue.
            queue: QueueId,
        },
        /// Close a connection previously opened in this session.
        Disconnect = DISCONNECT {
            /// Session-local connection handle.
            conn: u64,
        },
        /// Put an item into a channel.
        ChannelPut = CHANNEL_PUT {
            /// Session-local connection handle (output mode).
            conn: u64,
            /// Item timestamp.
            ts: Timestamp,
            /// Item user tag.
            tag: u32,
            /// Blocking discipline when the channel is full.
            wait: WaitSpec,
            /// Item payload.
            payload: Bytes,
        },
        /// Get an item from a channel.
        ChannelGet = CHANNEL_GET {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// Which item.
            spec: GetSpec,
            /// Blocking discipline while absent.
            wait: WaitSpec,
        },
        /// Mark items consumed up to and including a timestamp.
        ChannelConsume = CHANNEL_CONSUME {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// Consume through this timestamp.
            upto: Timestamp,
        },
        /// Advance the connection's virtual-time promise.
        ChannelSetVt = CHANNEL_SET_VT {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// New virtual-time floor.
            vt: Timestamp,
        },
        /// Put an item into a queue.
        QueuePut = QUEUE_PUT {
            /// Session-local connection handle (output mode).
            conn: u64,
            /// Item timestamp.
            ts: Timestamp,
            /// Item user tag.
            tag: u32,
            /// Blocking discipline when the queue is full.
            wait: WaitSpec,
            /// Item payload.
            payload: Bytes,
        },
        /// Get the next item from a queue.
        QueueGet = QUEUE_GET {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// Blocking discipline while empty.
            wait: WaitSpec,
        },
        /// Settle a queue ticket as consumed.
        QueueConsume = QUEUE_CONSUME {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// Ticket returned by the corresponding get.
            ticket: u64,
        },
        /// Put an unfinished queue item back.
        QueueRequeue = QUEUE_REQUEUE {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// Ticket returned by the corresponding get.
            ticket: u64,
        },
        /// Register a resource with the name server.
        NsRegister = NS_REGISTER {
            /// Registration name (unique).
            name: String,
            /// The resource being registered.
            resource: ResourceId,
            /// Free-form metadata ("intended use in the application").
            meta: String,
        },
        /// Look a name up in the name server.
        NsLookup = NS_LOOKUP {
            /// Registration name.
            name: String,
            /// Blocking discipline while unregistered.
            wait: WaitSpec,
        },
        /// Remove a name-server registration.
        NsUnregister = NS_UNREGISTER {
            /// Registration name.
            name: String,
        },
        /// Enumerate all name-server registrations.
        NsList = NS_LIST,
        /// Ask the cluster to queue garbage notifications for a resource so the
        /// client can run its local garbage handler (§3.2.4).
        InstallGarbageHook = INSTALL_GARBAGE_HOOK {
            /// Resource to watch.
            resource: ResourceId,
        },
        /// Distributed-GC epoch report: an address space's minimum virtual
        /// time, sent to the aggregator in address space 0.
        GcReport = GC_REPORT {
            /// The reporting address space.
            from: AsId,
            /// Minimum virtual-time floor across its threads.
            min_vt: Timestamp,
        },
        /// Pull a telemetry snapshot (see the `dstampede-obs` crate).
        StatsPull = STATS_PULL {
            /// `false`: only the receiving address space's metrics.
            /// `true`: the receiver fans out to its known peers and merges
            /// their snapshots into a cluster-wide one.
            cluster: bool,
        },
        /// Pull the causal-trace span dump (see `dstampede-obs::trace`).
        TracePull = TRACE_PULL {
            /// `false`: only the receiving address space's spans.
            /// `true`: the receiver fans out to its known peers and merges
            /// their dumps into a cluster-wide one.
            cluster: bool,
        },
        /// Pull the flight recorder's metric history (see
        /// `dstampede-obs::history`).
        HistoryPull = HISTORY_PULL {
            /// `false`: only the receiving address space's recorded
            /// history. `true`: the receiver fans out to its known peers
            /// and merges their dumps into a cluster-wide one.
            cluster: bool,
        },
        /// Pull the derived health states (see `dstampede-obs::health`).
        HealthPull = HEALTH_PULL {
            /// `false`: only the receiving address space's health view.
            /// `true`: the receiver fans out to its known peers and merges
            /// their reports into a cluster-wide one.
            cluster: bool,
        },
        /// Explicit lease renewal between address spaces (and from long-idle
        /// end devices). Carries no payload beyond the sender's incarnation;
        /// any traffic renews the lease, heartbeats exist for idle links.
        Heartbeat = HEARTBEAT {
            /// The sender's start incarnation, so a restarted peer is
            /// distinguishable from a recovered one.
            incarnation: u64,
        },
        /// Put a batch of items through one connection (channel or queue
        /// output mode) in a single frame. Answered with
        /// [`Reply::BatchResults`], one code per item in order. Entries are
        /// independent — there is no transactional atomicity.
        PutBatch = PUT_BATCH {
            /// Session-local connection handle (output mode).
            conn: u64,
            /// Blocking discipline applied per item when full.
            wait: WaitSpec,
            /// The items, in put order.
            items: Vec<BatchPutItem>,
        },
        /// Get a batch of items through one connection in a single frame,
        /// answered with [`Reply::BatchItems`]. Channel connections resolve
        /// `specs` (one result per spec, non-blocking); queue connections
        /// ignore `specs` and dequeue up to `max` items non-blocking.
        GetBatch = GET_BATCH {
            /// Session-local connection handle (input mode).
            conn: u64,
            /// Maximum items to dequeue (queue connections).
            max: u32,
            /// Per-item get specs (channel connections).
            specs: Vec<GetSpec>,
        },
        /// A non-idempotent request tagged with a retry-stable id. The
        /// executor remembers `(origin, req_id)` and answers a replayed id
        /// with the original reply instead of re-executing, making the inner
        /// request safe to retry across transport timeouts.
        WithId = WITH_ID {
            /// Retry-stable request id, unique per origin.
            req_id: u64,
            /// The wrapped request.
            req: Box<Request>,
        },
        /// Primary → follower: open (or reopen) a channel replica so
        /// subsequent [`Request::ReplicatePut`] frames have a home. Carries
        /// the primary's channel identity and creation attributes so the
        /// follower can rebuild the container byte-for-byte on promotion.
        /// Idempotent in effect: reopening an existing replica is a no-op.
        ReplicaOpenChannel = REPLICA_OPEN_CHANNEL {
            /// The primary-owned channel being replicated.
            chan: ChanId,
            /// Registered name, if any (adopted in the nameserver on failover).
            name: Option<String>,
            /// Creation-time attributes, replayed on promotion.
            attrs: ChannelAttrs,
        },
        /// Primary → follower: open (or reopen) a queue replica. See
        /// [`Request::ReplicaOpenChannel`].
        ReplicaOpenQueue = REPLICA_OPEN_QUEUE {
            /// The primary-owned queue being replicated.
            queue: QueueId,
            /// Registered name, if any (adopted in the nameserver on failover).
            name: Option<String>,
            /// Creation-time attributes, replayed on promotion.
            attrs: QueueAttrs,
        },
        /// Primary → follower: append accepted puts to a replica. Rides the
        /// PR 4 batch item encoding; answered with [`Reply::Ok`] once the
        /// items are durable in the replica map. Appends are idempotent per
        /// `(resource, ts)` — a replayed frame overwrites with equal bytes.
        ReplicatePut = REPLICATE_PUT {
            /// The replicated resource (channel or queue).
            resource: ResourceId,
            /// The primary's reclamation floor: the follower prunes replica
            /// items at or below it, so replicas track GC instead of growing
            /// without bound. `Timestamp::MIN` for queues (no floor notion).
            floor: Timestamp,
            /// The accepted items, in primary accept order.
            items: Vec<BatchPutItem>,
        },
    }
}

records! {
    /// One name-server registration.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NsEntry {
        /// Registration name.
        pub name: String,
        /// The registered resource.
        pub resource: ResourceId,
        /// Free-form metadata.
        pub meta: String,
    }

    /// A garbage-collection notification queued for an end device.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct GcNote {
        /// The container the item lived in.
        pub resource: ResourceId,
        /// The reclaimed item's timestamp.
        pub ts: Timestamp,
        /// The reclaimed item's user tag.
        pub tag: u32,
        /// The reclaimed payload's length.
        pub len: u32,
    }
}

messages! {
    /// A cluster-to-client answer.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum Reply {
        /// Generic success.
        Ok = R_OK,
        /// Successful attach.
        Attached = R_ATTACHED {
            /// Session id assigned by the listener.
            session: u64,
            /// Address space hosting the surrogate.
            as_id: AsId,
        },
        /// Successful create.
        Created = R_CREATED {
            /// Id of the new container.
            resource: ResourceId,
        },
        /// Successful connect.
        Connected = R_CONNECTED {
            /// Session-local connection handle for subsequent calls.
            conn: u64,
        },
        /// A channel item.
        Item = R_ITEM {
            /// Item timestamp.
            ts: Timestamp,
            /// Item user tag.
            tag: u32,
            /// Item payload.
            payload: Bytes,
        },
        /// A queue item plus its settlement ticket.
        QueueItem = R_QUEUE_ITEM {
            /// Item timestamp.
            ts: Timestamp,
            /// Item user tag.
            tag: u32,
            /// Ticket for consume/requeue.
            ticket: u64,
            /// Item payload.
            payload: Bytes,
        },
        /// Successful name-server lookup.
        NsFound = R_NS_FOUND {
            /// The registered resource.
            resource: ResourceId,
            /// Its metadata.
            meta: String,
        },
        /// Name-server enumeration.
        NsEntries = R_NS_ENTRIES {
            /// All current registrations.
            entries: Vec<NsEntry>,
        },
        /// Answer to [`Request::Ping`].
        Pong = R_PONG {
            /// The request's nonce.
            nonce: u64,
        },
        /// Answer to [`Request::StatsPull`]: an encoded `dstampede-obs`
        /// snapshot (its own versioned format, opaque to this layer).
        StatsReport = R_STATS_REPORT {
            /// `Snapshot::encode()` bytes; decode with `Snapshot::decode`.
            snapshot: Bytes,
        },
        /// Answer to [`Request::TracePull`]: an encoded `dstampede-obs`
        /// trace dump (its own versioned format, opaque to this layer).
        TraceReport = R_TRACE_REPORT {
            /// `TraceDump::encode()` bytes; decode with `TraceDump::decode`.
            dump: Bytes,
        },
        /// Answer to [`Request::HistoryPull`]: an encoded `dstampede-obs`
        /// history dump (its own versioned format, opaque to this layer).
        HistoryReport = R_HISTORY_REPORT {
            /// `HistoryDump::encode()` bytes; decode with
            /// `HistoryDump::decode`.
            dump: Bytes,
        },
        /// Answer to [`Request::HealthPull`]: an encoded `dstampede-obs`
        /// health report (its own versioned format, opaque to this layer).
        HealthReport = R_HEALTH_REPORT {
            /// `HealthReport::encode()` bytes; decode with
            /// `HealthReport::decode`.
            report: Bytes,
        },
        /// Answer to [`Request::PutBatch`]: one [`StmError::code`] per item in
        /// request order, `0` meaning success.
        BatchResults = R_BATCH_RESULTS {
            /// Per-item outcome codes.
            codes: Vec<u32>,
        },
        /// Answer to [`Request::GetBatch`].
        BatchItems = R_BATCH_ITEMS {
            /// Delivered items and per-spec failures, in order.
            items: Vec<BatchGot>,
        },
        /// The operation failed.
        Error = R_ERROR {
            /// [`StmError::code`] of the failure.
            code: u32,
            /// Human-readable detail.
            detail: String,
        },
    }
}

impl Request {
    /// Rejects a [`Request::WithId`] wrapping another one — the one shape
    /// the wire cannot carry (decoders refuse a nested id at depth one).
    pub(crate) fn check_nesting(&self) -> Result<(), WireError> {
        match self {
            Request::WithId { req, .. } if matches!(**req, Request::WithId { .. }) => {
                Err(WireError::BadValue("nested WithId request".to_owned()))
            }
            _ => Ok(()),
        }
    }
}

impl Reply {
    /// Wraps an [`StmError`] for the wire.
    #[must_use]
    pub fn from_error(e: &StmError) -> Reply {
        Reply::Error {
            code: e.code(),
            detail: e.detail().to_owned(),
        }
    }

    /// Converts an error reply back into an [`StmError`], or returns the
    /// reply unchanged.
    ///
    /// # Errors
    ///
    /// The transported [`StmError`] when `self` is [`Reply::Error`].
    pub fn into_result(self) -> Result<Reply, StmError> {
        match self {
            Reply::Error { code, detail } => Err(StmError::from_code(code, &detail)),
            other => Ok(other),
        }
    }
}

/// Upper bound on a [`SackInfo`] bitmap accepted by the decoders —
/// 8 KiB of bitmap covers a 65,536-packet window, far beyond any
/// configured CLF send window.
pub const MAX_SACK_BITMAP: usize = 8192;

/// A CLF selective-acknowledgment frame body (DESIGN.md §4.10).
///
/// The receiver's view of its reorder window: `ack_next` is the
/// cumulative frontier (every packet with `seq < ack_next` has been
/// received), and the bitmap marks packets received out of order above
/// it. Packet `ack_next` itself is by definition missing, so bit `i`
/// of the bitmap (byte `i / 8`, LSB first within a byte) refers to
/// packet `ack_next + 1 + i`.
///
/// This is a standalone frame body — it rides inside CLF datagrams,
/// not inside the RPC envelope — but it is encoded by the session
/// codecs so both XDR and JDR peers can produce and consume it, and so
/// the cross-codec property suites cover it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SackInfo {
    /// Next in-order sequence number the receiver expects.
    pub ack_next: u64,
    /// Out-of-order receipt bitmap; trailing zero bytes carry no
    /// information and may be trimmed by the encoder.
    pub bitmap: Bytes,
}

impl SackInfo {
    /// Bounds a bitmap length on both the encode and the decode side.
    pub(crate) fn check_bitmap_len(len: usize) -> Result<(), WireError> {
        if len > MAX_SACK_BITMAP {
            return Err(WireError::BadValue(format!(
                "sack bitmap of {len} bytes exceeds {MAX_SACK_BITMAP}"
            )));
        }
        Ok(())
    }

    /// Whether bit `i` (packet `ack_next + 1 + i`) is set.
    #[must_use]
    pub fn is_set(&self, i: usize) -> bool {
        self.bitmap
            .get(i / 8)
            .is_some_and(|byte| byte & (1 << (i % 8)) != 0)
    }

    /// The sequence numbers the bitmap reports as received out of order.
    /// Bits that would name a sequence past `u64::MAX` (only reachable
    /// in a forged frame — real windows never get near wraparound) are
    /// ignored rather than wrapped.
    #[must_use]
    pub fn sacked_seqs(&self) -> Vec<u64> {
        (0..self.bitmap.len() * 8)
            .filter(|&i| self.is_set(i))
            .filter_map(|i| self.ack_next.checked_add(1 + i as u64))
            .collect()
    }
}

/// A request with its sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-assigned sequence number, echoed in the reply.
    pub seq: u64,
    /// The call.
    pub req: Request,
    /// Optional causal trace context; an absent field decodes as `None`.
    pub trace: Option<TraceContext>,
}

impl RequestFrame {
    /// A frame with no trace context.
    #[must_use]
    pub fn new(seq: u64, req: Request) -> Self {
        RequestFrame {
            seq,
            req,
            trace: None,
        }
    }

    /// Attaches (or clears) a trace context, builder-style.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Self {
        self.trace = trace;
        self
    }
}

/// A reply with its sequence number and piggy-backed GC notes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyFrame {
    /// Sequence number of the request being answered.
    pub seq: u64,
    /// Garbage notifications for the end device (possibly empty).
    pub gc_notes: Vec<GcNote>,
    /// The answer.
    pub reply: Reply,
    /// Optional causal trace context (e.g. the context carried by a
    /// returned item). Absent field decodes as `None`.
    pub trace: Option<TraceContext>,
}

impl ReplyFrame {
    /// A frame with no trace context.
    #[must_use]
    pub fn new(seq: u64, gc_notes: Vec<GcNote>, reply: Reply) -> Self {
        ReplyFrame {
            seq,
            gc_notes,
            reply,
            trace: None,
        }
    }

    /// Attaches (or clears) a trace context, builder-style.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Self {
        self.trace = trace;
        self
    }
}

/// Exhaustive message samples used by codec round-trip tests (one per
/// variant, with edge-case field values). Not part of the public API.
#[doc(hidden)]
pub mod test_vectors {
    use super::*;
    use dstampede_core::{ChanId, ChannelAttrs, GcPolicy, OverflowPolicy, QueueAttrs};

    fn chan(owner: u16, index: u32) -> ChanId {
        ChanId {
            owner: AsId(owner),
            index,
        }
    }

    fn queue(owner: u16, index: u32) -> QueueId {
        QueueId {
            owner: AsId(owner),
            index,
        }
    }

    /// One sample of every request variant.
    #[must_use]
    pub fn all_requests() -> Vec<Request> {
        vec![
            Request::Attach {
                client_name: "camera-0".into(),
            },
            Request::Attach {
                client_name: String::new(),
            },
            Request::Detach,
            Request::Ping { nonce: u64::MAX },
            Request::ChannelCreate {
                name: Some("video".into()),
                attrs: ChannelAttrs::builder()
                    .capacity(16)
                    .overflow(OverflowPolicy::DropOldest)
                    .gc(GcPolicy::Transparent)
                    .build(),
            },
            Request::ChannelCreate {
                name: None,
                attrs: ChannelAttrs::default(),
            },
            Request::QueueCreate {
                name: Some("work".into()),
                attrs: QueueAttrs::builder()
                    .capacity(4)
                    .overflow(OverflowPolicy::Reject)
                    .build(),
            },
            Request::QueueCreate {
                name: None,
                attrs: QueueAttrs::default(),
            },
            Request::ConnectChannelIn {
                chan: chan(1, 2),
                interest: Interest::FromEarliest,
                filter: TagFilter::Any,
            },
            Request::ConnectChannelIn {
                chan: chan(0, 1),
                interest: Interest::FromLatest,
                filter: TagFilter::Only(vec![0, 7, u32::MAX]),
            },
            Request::ConnectChannelIn {
                chan: chan(65535, u32::MAX),
                interest: Interest::FromTs(Timestamp::new(-9)),
                filter: TagFilter::Stripe {
                    modulus: 4,
                    remainder: 3,
                },
            },
            Request::ConnectChannelOut { chan: chan(3, 4) },
            Request::ConnectQueueIn { queue: queue(1, 1) },
            Request::ConnectQueueOut { queue: queue(2, 7) },
            Request::Disconnect { conn: 42 },
            Request::ChannelPut {
                conn: 7,
                ts: Timestamp::new(i64::MIN),
                tag: 3,
                payload: Bytes::from_static(b"frame data"),
                wait: WaitSpec::Forever,
            },
            Request::ChannelPut {
                conn: 7,
                ts: Timestamp::new(0),
                tag: 0,
                payload: Bytes::new(),
                wait: WaitSpec::NonBlocking,
            },
            Request::ChannelGet {
                conn: 8,
                spec: GetSpec::Exact(Timestamp::new(55)),
                wait: WaitSpec::TimeoutMs(1500),
            },
            Request::ChannelGet {
                conn: 8,
                spec: GetSpec::Latest,
                wait: WaitSpec::NonBlocking,
            },
            Request::ChannelGet {
                conn: 8,
                spec: GetSpec::Earliest,
                wait: WaitSpec::Forever,
            },
            Request::ChannelGet {
                conn: 8,
                spec: GetSpec::After(Timestamp::new(-1)),
                wait: WaitSpec::Forever,
            },
            Request::ChannelConsume {
                conn: 9,
                upto: Timestamp::new(100),
            },
            Request::ChannelSetVt {
                conn: 9,
                vt: Timestamp::new(i64::MAX),
            },
            Request::QueuePut {
                conn: 10,
                ts: Timestamp::new(5),
                tag: 2,
                payload: Bytes::from_static(&[0xff, 0x00, 0x80]),
                wait: WaitSpec::TimeoutMs(0),
            },
            Request::QueueGet {
                conn: 11,
                wait: WaitSpec::Forever,
            },
            Request::QueueConsume {
                conn: 11,
                ticket: 77,
            },
            Request::QueueRequeue {
                conn: 11,
                ticket: 78,
            },
            Request::NsRegister {
                name: "mixer-out".into(),
                resource: ResourceId::Channel(chan(0, 9)),
                meta: "composite video".into(),
            },
            Request::NsLookup {
                name: "mixer-out".into(),
                wait: WaitSpec::TimeoutMs(3000),
            },
            Request::NsUnregister {
                name: "mixer-out".into(),
            },
            Request::NsList,
            Request::InstallGarbageHook {
                resource: ResourceId::Queue(queue(1, 3)),
            },
            Request::GcReport {
                from: AsId(3),
                min_vt: Timestamp::new(4096),
            },
            Request::StatsPull { cluster: false },
            Request::StatsPull { cluster: true },
            Request::TracePull { cluster: false },
            Request::TracePull { cluster: true },
            Request::HistoryPull { cluster: false },
            Request::HistoryPull { cluster: true },
            Request::HealthPull { cluster: false },
            Request::HealthPull { cluster: true },
            Request::Heartbeat { incarnation: 0 },
            Request::Heartbeat {
                incarnation: u64::MAX,
            },
            Request::WithId {
                req_id: 1,
                req: Box::new(Request::QueuePut {
                    conn: 10,
                    ts: Timestamp::new(5),
                    tag: 2,
                    payload: Bytes::from_static(&[9, 8]),
                    wait: WaitSpec::NonBlocking,
                }),
            },
            Request::WithId {
                req_id: u64::MAX,
                req: Box::new(Request::ConnectQueueIn { queue: queue(2, 2) }),
            },
            Request::PutBatch {
                conn: 12,
                items: vec![
                    BatchPutItem {
                        ts: Timestamp::new(1),
                        tag: 0,
                        payload: Bytes::from_static(b"first"),
                        trace: None,
                    },
                    BatchPutItem {
                        ts: Timestamp::new(-2),
                        tag: u32::MAX,
                        payload: Bytes::new(),
                        trace: Some(dstampede_obs::TraceContext {
                            trace: dstampede_obs::TraceId(7),
                            span: dstampede_obs::SpanId(8),
                        }),
                    },
                ],
                wait: WaitSpec::NonBlocking,
            },
            Request::PutBatch {
                conn: 13,
                items: vec![],
                wait: WaitSpec::Forever,
            },
            Request::GetBatch {
                conn: 14,
                specs: vec![
                    GetSpec::Exact(Timestamp::new(3)),
                    GetSpec::Latest,
                    GetSpec::Earliest,
                    GetSpec::After(Timestamp::new(i64::MIN)),
                ],
                max: 0,
            },
            Request::GetBatch {
                conn: 15,
                specs: vec![],
                max: 32,
            },
            Request::ReplicaOpenChannel {
                chan: chan(2, 7),
                name: Some("video-frames".into()),
                attrs: ChannelAttrs::default(),
            },
            Request::ReplicaOpenChannel {
                chan: chan(3, 0),
                name: None,
                attrs: ChannelAttrs::default(),
            },
            Request::ReplicaOpenQueue {
                queue: queue(2, 9),
                name: Some("work".into()),
                attrs: QueueAttrs::default(),
            },
            Request::ReplicaOpenQueue {
                queue: queue(1, 1),
                name: None,
                attrs: QueueAttrs::default(),
            },
            Request::ReplicatePut {
                resource: ResourceId::Channel(chan(2, 7)),
                floor: Timestamp::new(10),
                items: vec![
                    BatchPutItem {
                        ts: Timestamp::new(11),
                        tag: 3,
                        payload: Bytes::from_static(b"replica"),
                        trace: None,
                    },
                    BatchPutItem {
                        ts: Timestamp::new(12),
                        tag: 0,
                        payload: Bytes::new(),
                        trace: Some(dstampede_obs::TraceContext {
                            trace: dstampede_obs::TraceId(21),
                            span: dstampede_obs::SpanId(22),
                        }),
                    },
                ],
            },
            Request::ReplicatePut {
                resource: ResourceId::Queue(queue(2, 9)),
                floor: Timestamp::new(i64::MIN),
                items: vec![],
            },
        ]
    }

    /// One sample of every reply variant, paired with GC-note piggybacks.
    #[must_use]
    pub fn all_replies() -> Vec<(Reply, Vec<GcNote>)> {
        let note = GcNote {
            resource: ResourceId::Channel(chan(1, 2)),
            ts: Timestamp::new(4),
            tag: 1,
            len: 4096,
        };
        let note2 = GcNote {
            resource: ResourceId::Queue(queue(2, 3)),
            ts: Timestamp::new(-4),
            tag: 0,
            len: 0,
        };
        vec![
            (Reply::Ok, vec![]),
            (Reply::Ok, vec![note, note2]),
            (
                Reply::Attached {
                    session: 12,
                    as_id: AsId(3),
                },
                vec![],
            ),
            (
                Reply::Created {
                    resource: ResourceId::Channel(chan(9, 1)),
                },
                vec![note],
            ),
            (Reply::Connected { conn: 5 }, vec![]),
            (
                Reply::Item {
                    ts: Timestamp::new(30),
                    tag: 7,
                    payload: Bytes::from_static(b"pixels"),
                },
                vec![],
            ),
            (
                Reply::Item {
                    ts: Timestamp::new(0),
                    tag: 0,
                    payload: Bytes::new(),
                },
                vec![note],
            ),
            (
                Reply::QueueItem {
                    ts: Timestamp::new(31),
                    tag: 2,
                    payload: Bytes::from_static(&[1, 2, 3, 4, 5]),
                    ticket: 99,
                },
                vec![],
            ),
            (
                Reply::NsFound {
                    resource: ResourceId::Queue(queue(0, 8)),
                    meta: "tracker input".into(),
                },
                vec![],
            ),
            (Reply::NsEntries { entries: vec![] }, vec![]),
            (
                Reply::NsEntries {
                    entries: vec![
                        NsEntry {
                            name: "a".into(),
                            resource: ResourceId::Channel(chan(1, 1)),
                            meta: String::new(),
                        },
                        NsEntry {
                            name: "b".into(),
                            resource: ResourceId::Queue(queue(1, 2)),
                            meta: "m".into(),
                        },
                    ],
                },
                vec![],
            ),
            (Reply::Pong { nonce: 0 }, vec![]),
            (
                Reply::StatsReport {
                    snapshot: Bytes::from_static(b"obs1\nS as-0\n"),
                },
                vec![],
            ),
            (
                Reply::StatsReport {
                    snapshot: Bytes::new(),
                },
                vec![note],
            ),
            (
                Reply::TraceReport {
                    dump: Bytes::from_static(b"trc1 0\n"),
                },
                vec![],
            ),
            (Reply::TraceReport { dump: Bytes::new() }, vec![note2]),
            (
                Reply::HistoryReport {
                    dump: Bytes::from_static(b"hst1\nR as-0 stm puts - v 0 1 5:1\n"),
                },
                vec![],
            ),
            (Reply::HistoryReport { dump: Bytes::new() }, vec![note]),
            (
                Reply::HealthReport {
                    report: Bytes::from_static(b"hlt1\nE as-0 peer:as-1 healthy 0 3 ok\n"),
                },
                vec![],
            ),
            (
                Reply::HealthReport {
                    report: Bytes::new(),
                },
                vec![note2],
            ),
            (
                Reply::Error {
                    code: StmError::Full.code(),
                    detail: String::new(),
                },
                vec![],
            ),
            (
                Reply::Error {
                    code: 14,
                    detail: "bad tag".into(),
                },
                vec![note],
            ),
            (Reply::BatchResults { codes: vec![] }, vec![]),
            (
                Reply::BatchResults {
                    codes: vec![0, StmError::Full.code(), 0, StmError::TsExists.code()],
                },
                vec![note],
            ),
            (Reply::BatchItems { items: vec![] }, vec![]),
            (
                Reply::BatchItems {
                    items: vec![
                        BatchGot {
                            code: 0,
                            ts: Timestamp::new(5),
                            tag: 2,
                            payload: Bytes::from_static(b"chunk"),
                            ticket: 0,
                            trace: Some(dstampede_obs::TraceContext {
                                trace: dstampede_obs::TraceId(1),
                                span: dstampede_obs::SpanId(2),
                            }),
                        },
                        BatchGot {
                            code: StmError::Absent.code(),
                            ts: Timestamp::new(0),
                            tag: 0,
                            payload: Bytes::new(),
                            ticket: 0,
                            trace: None,
                        },
                        BatchGot {
                            code: 0,
                            ts: Timestamp::new(-1),
                            tag: 9,
                            payload: Bytes::from_static(&[0xde, 0xad]),
                            ticket: u64::MAX,
                            trace: None,
                        },
                    ],
                },
                vec![note2],
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_error_round_trip() {
        let e = StmError::Full;
        let reply = Reply::from_error(&e);
        assert_eq!(reply.into_result().unwrap_err(), e);
        assert_eq!(Reply::Ok.into_result().unwrap(), Reply::Ok);
    }

    #[test]
    fn reply_error_preserves_protocol_detail() {
        let e = StmError::Protocol("weird".into());
        let reply = Reply::from_error(&e);
        assert_eq!(reply.into_result().unwrap_err(), e);
    }

    #[test]
    fn frames_are_plain_data() {
        let f = RequestFrame::new(3, Request::Ping { nonce: 9 });
        assert_eq!(f.clone(), f);
        assert_eq!(f.trace, None);
        let r = ReplyFrame::new(3, vec![], Reply::Pong { nonce: 9 });
        assert_eq!(r.clone(), r);
        assert_eq!(r.trace, None);
    }

    #[test]
    fn with_trace_attaches_context() {
        use dstampede_obs::{SpanId, TraceId};
        let ctx = TraceContext {
            trace: TraceId(7),
            span: SpanId(8),
        };
        let f = RequestFrame::new(1, Request::Detach).with_trace(Some(ctx));
        assert_eq!(f.trace, Some(ctx));
        let r = ReplyFrame::new(1, vec![], Reply::Ok).with_trace(Some(ctx));
        assert_eq!(r.trace, Some(ctx));
    }
}

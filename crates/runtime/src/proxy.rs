//! Location-transparent channel and queue references.
//!
//! "Channels and queues are system-wide unique names ... regardless of the
//! physical location of the threads, channels, and queues" (paper §3.1).
//! A [`ChannelRef`]/[`QueueRef`] presents the same connection API whether
//! the container lives in this address space (direct shared-memory access)
//! or a remote one (RPC to the owner over CLF). Operations are always
//! routed to the *owner*, which keeps all connection state — including the
//! garbage-collection bookkeeping — local to the container.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use dstampede_core::{
    ChanId, Channel, GetSpec, Interest, Item, QTicket, Queue, QueueId, StmError, StmResult,
    StreamItem, TagFilter, Timestamp, VirtualTime,
};
use dstampede_obs::trace;
use dstampede_wire::{BatchPutItem, Reply, Request, WaitSpec};

use crate::addrspace::AddressSpace;

/// Converts a [`WaitSpec`] into the matching blocking discipline.
pub(crate) fn wait_to_timeout(wait: WaitSpec) -> Option<Option<Duration>> {
    // None => non-blocking; Some(None) => forever; Some(Some(d)) => timeout.
    match wait {
        WaitSpec::NonBlocking => None,
        WaitSpec::Forever => Some(None),
        WaitSpec::TimeoutMs(ms) => Some(Some(Duration::from_millis(u64::from(ms)))),
    }
}

/// A reference to a channel anywhere in the computation.
pub struct ChannelRef {
    id: ChanId,
    inner: ChanRefInner,
}

enum ChanRefInner {
    Local(Arc<Channel>),
    Remote(Arc<AddressSpace>),
}

impl ChannelRef {
    pub(crate) fn local(chan: Arc<Channel>) -> Self {
        ChannelRef {
            id: chan.id(),
            inner: ChanRefInner::Local(chan),
        }
    }

    pub(crate) fn remote(id: ChanId, space: Arc<AddressSpace>) -> Self {
        ChannelRef {
            id,
            inner: ChanRefInner::Remote(space),
        }
    }

    /// The channel's system-wide id.
    #[must_use]
    pub fn id(&self) -> ChanId {
        self.id
    }

    /// Whether this reference resolves within the current address space.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.inner, ChanRefInner::Local(_))
    }

    /// Opens an input connection.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] if the owner no longer has the channel;
    /// [`StmError::Disconnected`] if the owner is unreachable.
    pub fn connect_input(&self, interest: Interest) -> StmResult<ChanInput> {
        self.connect_input_filtered(interest, TagFilter::Any)
    }

    /// Opens an input connection attending only to item tags that pass
    /// `filter` (the selective-attention filtering extension).
    ///
    /// # Errors
    ///
    /// As [`ChannelRef::connect_input`].
    pub fn connect_input_filtered(
        &self,
        interest: Interest,
        filter: TagFilter,
    ) -> StmResult<ChanInput> {
        match &self.inner {
            ChanRefInner::Local(chan) => Ok(ChanInput {
                id: self.id,
                inner: ConnInner::Local(chan.connect_input_filtered(interest, filter)),
            }),
            ChanRefInner::Remote(space) => {
                let reply = match space.call(
                    self.id.owner,
                    Request::ConnectChannelIn {
                        chan: self.id,
                        interest,
                        filter: filter.clone(),
                    },
                ) {
                    Ok(reply) => reply,
                    Err(StmError::Disconnected) => {
                        // Owner dead: re-resolve through the failover
                        // pointer and connect to the promoted copy.
                        let chan = promoted_channel(space, self.id)?;
                        return space
                            .open_channel(chan)?
                            .connect_input_filtered(interest, filter);
                    }
                    Err(e) => return Err(e),
                };
                match reply {
                    Reply::Connected { conn } => Ok(ChanInput {
                        id: self.id,
                        inner: ConnInner::Remote(RemoteConn::new(
                            Arc::clone(space),
                            self.id.owner,
                            conn,
                        )),
                    }),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Opens an output connection.
    ///
    /// # Errors
    ///
    /// As [`ChannelRef::connect_input`].
    pub fn connect_output(&self) -> StmResult<ChanOutput> {
        match &self.inner {
            ChanRefInner::Local(chan) => Ok(ChanOutput {
                id: self.id,
                inner: ConnInner::Local(chan.connect_output()),
            }),
            ChanRefInner::Remote(space) => {
                let reply =
                    match space.call(self.id.owner, Request::ConnectChannelOut { chan: self.id }) {
                        Ok(reply) => reply,
                        Err(StmError::Disconnected) => {
                            let chan = promoted_channel(space, self.id)?;
                            return space.open_channel(chan)?.connect_output();
                        }
                        Err(e) => return Err(e),
                    };
                match reply {
                    Reply::Connected { conn } => Ok(ChanOutput {
                        id: self.id,
                        inner: ConnInner::Remote(RemoteConn::new(
                            Arc::clone(space),
                            self.id.owner,
                            conn,
                        )),
                    }),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }
}

impl fmt::Debug for ChannelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelRef")
            .field("id", &self.id)
            .field("local", &self.is_local())
            .finish()
    }
}

fn unexpected(reply: &Reply) -> StmError {
    StmError::Protocol(format!("unexpected reply {reply:?}"))
}

/// Follows the failover pointer for a channel whose owner is dead.
/// [`StmError::Disconnected`] when no replica was promoted — the items
/// genuinely died with the primary.
fn promoted_channel(space: &Arc<AddressSpace>, id: ChanId) -> StmResult<ChanId> {
    match space.resolve_failover(dstampede_core::ResourceId::Channel(id)) {
        Some(dstampede_core::ResourceId::Channel(new)) => Ok(new),
        _ => Err(StmError::Disconnected),
    }
}

/// Queue counterpart of [`promoted_channel`].
fn promoted_queue(space: &Arc<AddressSpace>, id: QueueId) -> StmResult<QueueId> {
    match space.resolve_failover(dstampede_core::ResourceId::Queue(id)) {
        Some(dstampede_core::ResourceId::Queue(new)) => Ok(new),
        _ => Err(StmError::Disconnected),
    }
}

/// Owner-side handle for a connection opened remotely; disconnects (fire
/// and forget) on drop.
struct RemoteConn {
    space: Arc<AddressSpace>,
    owner: dstampede_core::AsId,
    handle: u64,
}

impl RemoteConn {
    fn new(space: Arc<AddressSpace>, owner: dstampede_core::AsId, handle: u64) -> Self {
        RemoteConn {
            space,
            owner,
            handle,
        }
    }

    fn call(&self, req: Request) -> StmResult<Reply> {
        let started = std::time::Instant::now();
        let result = self.space.call(self.owner, req);
        self.space
            .metrics()
            .histogram("rpc", "remote_op_us")
            .record_duration(started.elapsed());
        result
    }
}

impl RemoteConn {
    /// Encodes batch-put entries, stamping each with its item's context
    /// (falling back to the ambient one, then a fresh trace) so every item
    /// in the frame keeps an independent causal identity.
    fn batch_items(&self, entries: Vec<(Timestamp, Item)>) -> Vec<BatchPutItem> {
        entries
            .into_iter()
            .map(|(ts, item)| BatchPutItem {
                ts,
                tag: item.tag(),
                payload: item.payload_bytes(),
                trace: item
                    .trace_context()
                    .or_else(trace::current)
                    .or_else(|| self.space.metrics().tracer().begin_trace(ts.value())),
            })
            .collect()
    }
}

impl Drop for RemoteConn {
    fn drop(&mut self) {
        self.space
            .cast(self.owner, Request::Disconnect { conn: self.handle });
    }
}

/// Maps a batch-results code vector back to per-item outcomes.
fn codes_to_results(codes: Vec<u32>, expected: usize) -> StmResult<Vec<StmResult<()>>> {
    if codes.len() != expected {
        return Err(StmError::Protocol(format!(
            "batch reply has {} codes for {expected} items",
            codes.len()
        )));
    }
    Ok(codes
        .into_iter()
        .map(|c| {
            if c == 0 {
                Ok(())
            } else {
                Err(StmError::from_code(c, "batch put"))
            }
        })
        .collect())
}

enum ConnInner<L> {
    Local(L),
    Remote(RemoteConn),
}

/// An input connection to a channel anywhere in the computation.
pub struct ChanInput {
    id: ChanId,
    inner: ConnInner<dstampede_core::InputConn>,
}

impl ChanInput {
    /// The channel's id.
    #[must_use]
    pub fn channel_id(&self) -> ChanId {
        self.id
    }

    /// Whether the container lives in this address space.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.inner, ConnInner::Local(_))
    }

    /// Parks a reactor task waker on the local channel's item-arrival set,
    /// or reports `false` when the channel lives on a remote address space
    /// (no local wakeup source — the caller must offload).
    pub fn register_local_waker(&self, waker: &std::task::Waker) -> bool {
        match &self.inner {
            ConnInner::Local(conn) => {
                conn.register_waker(waker);
                true
            }
            ConnInner::Remote(_) => false,
        }
    }

    /// Gets an item under the given blocking discipline.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::InputConn::get`] and friends, plus
    /// [`StmError::Disconnected`] when the owner is unreachable.
    pub fn get(&self, spec: GetSpec, wait: WaitSpec) -> StmResult<(Timestamp, Item)> {
        match &self.inner {
            ConnInner::Local(conn) => match wait_to_timeout(wait) {
                None => conn.try_get(spec),
                Some(None) => conn.get(spec),
                Some(Some(d)) => conn.get_timeout(spec, d),
            },
            ConnInner::Remote(rc) => {
                // Scope the ambient cell: the reply frame's context (the
                // gotten item's trace, restored by the RPC layer) is read
                // back and re-attached to the reconstructed item.
                let guard = trace::scope(trace::current());
                let reply = rc.call(Request::ChannelGet {
                    conn: rc.handle,
                    spec,
                    wait,
                })?;
                let ctx = trace::current();
                drop(guard);
                match reply {
                    Reply::Item { ts, tag, payload } => {
                        Ok((ts, Item::new(payload).with_tag(tag).with_trace(ctx)))
                    }
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Blocking get.
    ///
    /// # Errors
    ///
    /// As [`ChanInput::get`].
    pub fn get_blocking(&self, spec: GetSpec) -> StmResult<(Timestamp, Item)> {
        self.get(spec, WaitSpec::Forever)
    }

    /// Typed get via [`StreamItem`].
    ///
    /// # Errors
    ///
    /// As [`ChanInput::get`], plus decoding errors from `T`.
    pub fn get_typed<T: StreamItem>(
        &self,
        spec: GetSpec,
        wait: WaitSpec,
    ) -> StmResult<(Timestamp, T)> {
        let (ts, item) = self.get(spec, wait)?;
        Ok((ts, item.decode::<T>()?))
    }

    /// Resolves several get specs in one round trip (one RPC frame for a
    /// remote channel). Each spec resolves independently and
    /// non-blocking; the outer error is transport-level only.
    ///
    /// # Errors
    ///
    /// [`StmError::Disconnected`] when the owner is unreachable; per-spec
    /// failures come back in the inner results.
    pub fn get_many(&self, specs: &[GetSpec]) -> StmResult<Vec<StmResult<(Timestamp, Item)>>> {
        match &self.inner {
            ConnInner::Local(conn) => Ok(conn.get_many(specs)),
            ConnInner::Remote(rc) => {
                let reply = rc.call(Request::GetBatch {
                    conn: rc.handle,
                    specs: specs.to_vec(),
                    max: specs.len() as u32,
                })?;
                match reply {
                    Reply::BatchItems { items } => {
                        if items.len() != specs.len() {
                            return Err(StmError::Protocol(format!(
                                "batch reply has {} items for {} specs",
                                items.len(),
                                specs.len()
                            )));
                        }
                        Ok(items
                            .into_iter()
                            .map(|got| {
                                if got.code == 0 {
                                    Ok((
                                        got.ts,
                                        Item::new(got.payload)
                                            .with_tag(got.tag)
                                            .with_trace(got.trace),
                                    ))
                                } else {
                                    Err(StmError::from_code(got.code, "batch get"))
                                }
                            })
                            .collect())
                    }
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Declares items through `upto` consumed.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::InputConn::consume_until`].
    pub fn consume_until(&self, upto: Timestamp) -> StmResult<()> {
        match &self.inner {
            ConnInner::Local(conn) => conn.consume_until(upto),
            ConnInner::Remote(rc) => {
                match rc.call(Request::ChannelConsume {
                    conn: rc.handle,
                    upto,
                })? {
                    Reply::Ok => Ok(()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Disconnects explicitly (recovery path): the connection's virtual
    /// time advances to infinity and its consume claims drop, even while
    /// other threads still hold clones of it. Idempotent; later operations
    /// fail with [`StmError::NoSuchConnection`].
    pub fn disconnect(&self) {
        match &self.inner {
            ConnInner::Local(conn) => conn.disconnect(),
            ConnInner::Remote(rc) => rc
                .space
                .cast(rc.owner, Request::Disconnect { conn: rc.handle }),
        }
    }

    /// Advances the connection's virtual-time promise.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::InputConn::set_vt`].
    pub fn set_vt(&self, vt: VirtualTime) -> StmResult<()> {
        match &self.inner {
            ConnInner::Local(conn) => conn.set_vt(vt),
            ConnInner::Remote(rc) => {
                match rc.call(Request::ChannelSetVt {
                    conn: rc.handle,
                    vt: vt.floor(),
                })? {
                    Reply::Ok => Ok(()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }
}

impl fmt::Debug for ChanInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChanInput").field("id", &self.id).finish()
    }
}

/// An output connection to a channel anywhere in the computation.
pub struct ChanOutput {
    id: ChanId,
    inner: ConnInner<dstampede_core::OutputConn>,
}

impl ChanOutput {
    /// The channel's id.
    #[must_use]
    pub fn channel_id(&self) -> ChanId {
        self.id
    }

    /// Whether the container lives in this address space.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.inner, ConnInner::Local(_))
    }

    /// Parks a reactor task waker on the local channel's space-available
    /// set; `false` for remote connections.
    pub fn register_local_waker(&self, waker: &std::task::Waker) -> bool {
        match &self.inner {
            ConnInner::Local(conn) => {
                conn.register_waker(waker);
                true
            }
            ConnInner::Remote(_) => false,
        }
    }

    /// Whether a full local channel actually blocks puts
    /// ([`dstampede_core::OverflowPolicy::Block`]); `None` for remote
    /// connections. Reactor shims must not park on a container whose
    /// full-condition is terminal (`Reject`/`DropOldest` report or evict
    /// instead of blocking).
    #[must_use]
    pub fn local_blocks_when_full(&self) -> Option<bool> {
        match &self.inner {
            ConnInner::Local(conn) => Some(matches!(
                conn.channel().attrs().overflow(),
                dstampede_core::OverflowPolicy::Block
            )),
            ConnInner::Remote(_) => None,
        }
    }

    /// Puts an item under the given blocking discipline.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::OutputConn::put`] and friends, plus
    /// [`StmError::Disconnected`] when the owner is unreachable.
    pub fn put(&self, ts: Timestamp, item: Item, wait: WaitSpec) -> StmResult<()> {
        match &self.inner {
            ConnInner::Local(conn) => match wait_to_timeout(wait) {
                None => conn.try_put(ts, item),
                Some(None) => conn.put(ts, item),
                Some(Some(d)) => conn.put_timeout(ts, item, d),
            },
            ConnInner::Remote(rc) => {
                // Begin (or continue) the trace on the putting side so the
                // wire hop's Rpc span joins it; the context crosses to the
                // owner on the request frame and rides into the item there.
                let ctx = item
                    .trace_context()
                    .or_else(trace::current)
                    .or_else(|| rc.space.metrics().tracer().begin_trace(ts.value()));
                let _guard = trace::scope(ctx);
                let reply = rc.call(Request::ChannelPut {
                    conn: rc.handle,
                    ts,
                    tag: item.tag(),
                    payload: item.payload_bytes(),
                    wait,
                })?;
                match reply {
                    Reply::Ok => Ok(()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Blocking put.
    ///
    /// # Errors
    ///
    /// As [`ChanOutput::put`].
    pub fn put_blocking(&self, ts: Timestamp, item: Item) -> StmResult<()> {
        self.put(ts, item, WaitSpec::Forever)
    }

    /// Puts several items in one round trip (one RPC frame for a remote
    /// channel). Items apply independently — there is no transactional
    /// atomicity across the batch; per-item outcomes come back in order.
    ///
    /// # Errors
    ///
    /// [`StmError::Disconnected`] when the owner is unreachable; per-item
    /// failures come back in the inner results.
    pub fn put_many(
        &self,
        entries: Vec<(Timestamp, Item)>,
        wait: WaitSpec,
    ) -> StmResult<Vec<StmResult<()>>> {
        match &self.inner {
            ConnInner::Local(conn) => Ok(match wait_to_timeout(wait) {
                None => conn.try_put_many(entries),
                Some(None) => conn.put_many(entries),
                Some(Some(d)) => entries
                    .into_iter()
                    .map(|(ts, item)| conn.put_timeout(ts, item, d))
                    .collect(),
            }),
            ConnInner::Remote(rc) => {
                let n = entries.len();
                let items = rc.batch_items(entries);
                match rc.call(Request::PutBatch {
                    conn: rc.handle,
                    items,
                    wait,
                })? {
                    Reply::BatchResults { codes } => codes_to_results(codes, n),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Disconnects explicitly (recovery path). Idempotent.
    pub fn disconnect(&self) {
        match &self.inner {
            ConnInner::Local(conn) => conn.disconnect(),
            ConnInner::Remote(rc) => rc
                .space
                .cast(rc.owner, Request::Disconnect { conn: rc.handle }),
        }
    }

    /// Typed put via [`StreamItem`].
    ///
    /// # Errors
    ///
    /// As [`ChanOutput::put`].
    pub fn put_typed<T: StreamItem>(
        &self,
        ts: Timestamp,
        value: &T,
        wait: WaitSpec,
    ) -> StmResult<()> {
        self.put(ts, value.to_item(), wait)
    }
}

impl fmt::Debug for ChanOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChanOutput").field("id", &self.id).finish()
    }
}

/// A reference to a queue anywhere in the computation.
pub struct QueueRef {
    id: QueueId,
    inner: QueueRefInner,
}

enum QueueRefInner {
    Local(Arc<Queue>),
    Remote(Arc<AddressSpace>),
}

impl QueueRef {
    pub(crate) fn local(queue: Arc<Queue>) -> Self {
        QueueRef {
            id: queue.id(),
            inner: QueueRefInner::Local(queue),
        }
    }

    pub(crate) fn remote(id: QueueId, space: Arc<AddressSpace>) -> Self {
        QueueRef {
            id,
            inner: QueueRefInner::Remote(space),
        }
    }

    /// The queue's system-wide id.
    #[must_use]
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// Whether this reference resolves within the current address space.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.inner, QueueRefInner::Local(_))
    }

    /// Opens an input (getter) connection.
    ///
    /// # Errors
    ///
    /// As [`ChannelRef::connect_input`].
    pub fn connect_input(&self) -> StmResult<QueueInput> {
        match &self.inner {
            QueueRefInner::Local(q) => Ok(QueueInput {
                id: self.id,
                inner: ConnInner::Local(q.connect_input()),
            }),
            QueueRefInner::Remote(space) => {
                let reply =
                    match space.call(self.id.owner, Request::ConnectQueueIn { queue: self.id }) {
                        Ok(reply) => reply,
                        Err(StmError::Disconnected) => {
                            let queue = promoted_queue(space, self.id)?;
                            return space.open_queue(queue)?.connect_input();
                        }
                        Err(e) => return Err(e),
                    };
                match reply {
                    Reply::Connected { conn } => Ok(QueueInput {
                        id: self.id,
                        inner: ConnInner::Remote(RemoteConn::new(
                            Arc::clone(space),
                            self.id.owner,
                            conn,
                        )),
                    }),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Opens an output (putter) connection.
    ///
    /// # Errors
    ///
    /// As [`ChannelRef::connect_input`].
    pub fn connect_output(&self) -> StmResult<QueueOutput> {
        match &self.inner {
            QueueRefInner::Local(q) => Ok(QueueOutput {
                id: self.id,
                inner: ConnInner::Local(q.connect_output()),
            }),
            QueueRefInner::Remote(space) => {
                let reply =
                    match space.call(self.id.owner, Request::ConnectQueueOut { queue: self.id }) {
                        Ok(reply) => reply,
                        Err(StmError::Disconnected) => {
                            let queue = promoted_queue(space, self.id)?;
                            return space.open_queue(queue)?.connect_output();
                        }
                        Err(e) => return Err(e),
                    };
                match reply {
                    Reply::Connected { conn } => Ok(QueueOutput {
                        id: self.id,
                        inner: ConnInner::Remote(RemoteConn::new(
                            Arc::clone(space),
                            self.id.owner,
                            conn,
                        )),
                    }),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }
}

impl fmt::Debug for QueueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueRef")
            .field("id", &self.id)
            .field("local", &self.is_local())
            .finish()
    }
}

/// An input connection to a queue anywhere in the computation.
pub struct QueueInput {
    id: QueueId,
    inner: ConnInner<dstampede_core::QueueInputConn>,
}

impl QueueInput {
    /// The queue's id.
    #[must_use]
    pub fn queue_id(&self) -> QueueId {
        self.id
    }

    /// Whether the container lives in this address space.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.inner, ConnInner::Local(_))
    }

    /// Parks a reactor task waker on the local queue's item-arrival set;
    /// `false` for remote connections.
    pub fn register_local_waker(&self, waker: &std::task::Waker) -> bool {
        match &self.inner {
            ConnInner::Local(conn) => {
                conn.register_waker(waker);
                true
            }
            ConnInner::Remote(_) => false,
        }
    }

    /// Gets the next item under the given blocking discipline. The returned
    /// ticket settles with [`QueueInput::consume`] or
    /// [`QueueInput::requeue`].
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::QueueInputConn::get`] and friends.
    pub fn get(&self, wait: WaitSpec) -> StmResult<(Timestamp, Item, u64)> {
        match &self.inner {
            ConnInner::Local(conn) => {
                let (ts, item, ticket) = match wait_to_timeout(wait) {
                    None => conn.try_get(),
                    Some(None) => conn.get(),
                    Some(Some(d)) => conn.get_timeout(d),
                }?;
                Ok((ts, item, ticket.0))
            }
            ConnInner::Remote(rc) => {
                let guard = trace::scope(trace::current());
                let reply = rc.call(Request::QueueGet {
                    conn: rc.handle,
                    wait,
                })?;
                let ctx = trace::current();
                drop(guard);
                match reply {
                    Reply::QueueItem {
                        ts,
                        tag,
                        payload,
                        ticket,
                    } => Ok((ts, Item::new(payload).with_tag(tag).with_trace(ctx), ticket)),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Dequeues up to `max` items in one round trip (one RPC frame for a
    /// remote queue), non-blocking. An empty queue yields an empty vector,
    /// not an error; every returned ticket settles individually.
    ///
    /// # Errors
    ///
    /// As [`QueueInput::get`], transport-level failures only.
    pub fn dequeue_many(&self, max: usize) -> StmResult<Vec<(Timestamp, Item, u64)>> {
        match &self.inner {
            ConnInner::Local(conn) => match conn.try_dequeue_many(max) {
                Ok(batch) => Ok(batch
                    .into_iter()
                    .map(|(ts, item, ticket)| (ts, item, ticket.0))
                    .collect()),
                Err(StmError::Absent) => Ok(Vec::new()),
                Err(e) => Err(e),
            },
            ConnInner::Remote(rc) => {
                let reply = rc.call(Request::GetBatch {
                    conn: rc.handle,
                    specs: Vec::new(),
                    max: u32::try_from(max).unwrap_or(u32::MAX),
                })?;
                match reply {
                    Reply::BatchItems { items } => Ok(items
                        .into_iter()
                        .take_while(|got| got.code == 0)
                        .map(|got| {
                            (
                                got.ts,
                                Item::new(got.payload)
                                    .with_tag(got.tag)
                                    .with_trace(got.trace),
                                got.ticket,
                            )
                        })
                        .collect()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Settles a ticket as consumed.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::QueueInputConn::consume`].
    pub fn consume(&self, ticket: u64) -> StmResult<()> {
        match &self.inner {
            ConnInner::Local(conn) => conn.consume(QTicket(ticket)),
            ConnInner::Remote(rc) => {
                match rc.call(Request::QueueConsume {
                    conn: rc.handle,
                    ticket,
                })? {
                    Reply::Ok => Ok(()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Disconnects explicitly (recovery path): in-flight tickets return
    /// to the head of the queue for surviving getters, and blocked `get`s
    /// on this connection wake with [`StmError::NoSuchConnection`].
    /// Idempotent.
    pub fn disconnect(&self) {
        match &self.inner {
            ConnInner::Local(conn) => conn.disconnect(),
            ConnInner::Remote(rc) => rc
                .space
                .cast(rc.owner, Request::Disconnect { conn: rc.handle }),
        }
    }

    /// Puts an unfinished item back at the head of the queue.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::QueueInputConn::requeue`].
    pub fn requeue(&self, ticket: u64) -> StmResult<()> {
        match &self.inner {
            ConnInner::Local(conn) => conn.requeue(QTicket(ticket)),
            ConnInner::Remote(rc) => {
                match rc.call(Request::QueueRequeue {
                    conn: rc.handle,
                    ticket,
                })? {
                    Reply::Ok => Ok(()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }
}

impl fmt::Debug for QueueInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueInput").field("id", &self.id).finish()
    }
}

/// An output connection to a queue anywhere in the computation.
pub struct QueueOutput {
    id: QueueId,
    inner: ConnInner<dstampede_core::QueueOutputConn>,
}

impl QueueOutput {
    /// The queue's id.
    #[must_use]
    pub fn queue_id(&self) -> QueueId {
        self.id
    }

    /// Whether the container lives in this address space.
    #[must_use]
    pub fn is_local(&self) -> bool {
        matches!(self.inner, ConnInner::Local(_))
    }

    /// Parks a reactor task waker on the local queue's space-available
    /// set; `false` for remote connections.
    pub fn register_local_waker(&self, waker: &std::task::Waker) -> bool {
        match &self.inner {
            ConnInner::Local(conn) => {
                conn.register_waker(waker);
                true
            }
            ConnInner::Remote(_) => false,
        }
    }

    /// Whether a full local queue actually blocks puts; `None` for remote
    /// connections. See [`ChanOutput::local_blocks_when_full`].
    #[must_use]
    pub fn local_blocks_when_full(&self) -> Option<bool> {
        match &self.inner {
            ConnInner::Local(conn) => Some(matches!(
                conn.queue().attrs().overflow(),
                dstampede_core::OverflowPolicy::Block
            )),
            ConnInner::Remote(_) => None,
        }
    }

    /// Puts an item under the given blocking discipline.
    ///
    /// # Errors
    ///
    /// As [`dstampede_core::QueueOutputConn::put`] and friends.
    pub fn put(&self, ts: Timestamp, item: Item, wait: WaitSpec) -> StmResult<()> {
        match &self.inner {
            ConnInner::Local(conn) => match wait_to_timeout(wait) {
                None => conn.try_put(ts, item),
                Some(None) => conn.put(ts, item),
                Some(Some(d)) => conn.put_timeout(ts, item, d),
            },
            ConnInner::Remote(rc) => {
                let ctx = item
                    .trace_context()
                    .or_else(trace::current)
                    .or_else(|| rc.space.metrics().tracer().begin_trace(ts.value()));
                let _guard = trace::scope(ctx);
                match rc.call(Request::QueuePut {
                    conn: rc.handle,
                    ts,
                    tag: item.tag(),
                    payload: item.payload_bytes(),
                    wait,
                })? {
                    Reply::Ok => Ok(()),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Puts several items in one round trip (one RPC frame for a remote
    /// queue). Items enqueue contiguously in order; per-item outcomes come
    /// back in order, with no transactional atomicity across the batch.
    ///
    /// # Errors
    ///
    /// As [`ChanOutput::put_many`].
    pub fn put_many(
        &self,
        entries: Vec<(Timestamp, Item)>,
        wait: WaitSpec,
    ) -> StmResult<Vec<StmResult<()>>> {
        match &self.inner {
            ConnInner::Local(conn) => Ok(match wait_to_timeout(wait) {
                None => conn.try_put_many(entries),
                Some(None) => conn.put_many(entries),
                Some(Some(d)) => entries
                    .into_iter()
                    .map(|(ts, item)| conn.put_timeout(ts, item, d))
                    .collect(),
            }),
            ConnInner::Remote(rc) => {
                let n = entries.len();
                let items = rc.batch_items(entries);
                match rc.call(Request::PutBatch {
                    conn: rc.handle,
                    items,
                    wait,
                })? {
                    Reply::BatchResults { codes } => codes_to_results(codes, n),
                    other => Err(unexpected(&other)),
                }
            }
        }
    }

    /// Disconnects explicitly (recovery path). Idempotent.
    pub fn disconnect(&self) {
        match &self.inner {
            ConnInner::Local(conn) => conn.disconnect(),
            ConnInner::Remote(rc) => rc
                .space
                .cast(rc.owner, Request::Disconnect { conn: rc.handle }),
        }
    }
}

impl fmt::Debug for QueueOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueOutput").field("id", &self.id).finish()
    }
}

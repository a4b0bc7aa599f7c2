//! The five workloads and one round of any of them: a fresh cluster, the
//! closed loop of put → get → validate → consume, and the teardown, with
//! every failure counted instead of unwound.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dstampede::clf::UdpConfig;
use dstampede::client::{ClientChanIn, ClientChanOut};
use dstampede::core::{
    AsId, ChanId, ChannelAttrs, GetSpec, Interest, Item, OverflowPolicy, StmError, Timestamp,
};
use dstampede::runtime::placement::{creation_key, place};
use dstampede::runtime::ClusterTransport;
use dstampede::wire::WaitSpec;
use dstampede::{Cluster, EndDevice};

use crate::host::{self, Clock, ProcSample};
use crate::trace::{Span, SpanKind, Spans};

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: the layer this workload stresses and what it bypasses.
    pub why: &'static str,
    /// Payload bytes per item.
    pub size: usize,
    /// Items per put/get call (1 = `put`/`get`, more = `put_many`/`get_many`).
    pub batch: usize,
    /// Address space the producer device attaches to.
    pub producer_as: u16,
    /// Address space the consumer device attaches to; it creates the
    /// channel, which is placed there too.
    pub consumer_as: u16,
    /// Channel capacity; `None` is unbounded. Bounded channels block.
    pub capacity: Option<u32>,
    /// Producer and consumer on their own threads, the producer running as
    /// far ahead as flow control allows; otherwise one thread, depth 1.
    pub pipelined: bool,
}

impl Workload {
    /// Payload bytes one RPC of this workload carries.
    pub fn rpc_bytes(&self) -> usize {
        self.size * self.batch
    }

    pub fn remote(&self) -> bool {
        self.producer_as != self.consumer_as
    }

    pub fn threads(&self) -> usize {
        if self.pipelined {
            2
        } else {
            1
        }
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "trip_64",
        why: "every layer exactly once with byte cost ~0: prices the fixed per-message path (session RPC, thread hand-offs, waiter wake-ups, CLF small-message latency)",
        size: 64,
        batch: 1,
        producer_as: 0,
        consumer_as: 1,
        capacity: None,
        pipelined: false,
    },
    Workload {
        name: "trip_60k",
        why: "same path at 60000 B adds only per-byte cost (codec copies, CLF fragmentation/window/sendmmsg, socket buffers); a small-message optimisation must not move it",
        size: 60_000,
        batch: 1,
        producer_as: 0,
        consumer_as: 1,
        capacity: None,
        pipelined: false,
    },
    Workload {
        name: "batch_64",
        why: "put_many/get_many of 32 amortise the per-message cost 32x, so per-item cost (wire codec per item, core put/get/consume, GC) does most of the work",
        size: 64,
        batch: 32,
        producer_as: 0,
        consumer_as: 1,
        capacity: None,
        pipelined: false,
    },
    Workload {
        name: "local_64",
        why: "both devices and the channel on one address space: bypasses CLF and the proxy hop, so any CLF change predicts no move here; two sessions share one STM",
        size: 64,
        batch: 1,
        producer_as: 0,
        consumer_as: 0,
        capacity: None,
        pipelined: false,
    },
    Workload {
        name: "stream_74k",
        why: "pipelined 75776 B frames through a capacity-4 blocking channel: throughput is the slowest stage, and blocked-producer/consumer wake-ups and prompt GC of large items show only here",
        size: 75_776,
        batch: 1,
        producer_as: 0,
        consumer_as: 1,
        capacity: Some(4),
        pipelined: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Bytes of every payload that carry the item's sequence number, the
/// producer's stamp and the end-of-stream mark.
const HEADER: usize = 24;
/// How far a payload's window into the pattern may slide.
const WINDOW: usize = 4096;
/// Bytes of each payload the consumer compares against the pattern.
const SAMPLED: u64 = 8;

/// The seeded payload generator: one pseudo-random pattern per run, and
/// for each sequence number a window into it. The producer copies the
/// window; the consumer re-derives it and compares length, header and
/// sampled bytes, so a payload delivered under the wrong timestamp, cut
/// short or corrupted is caught.
#[derive(Debug)]
pub struct Payloads {
    pattern: Vec<u8>,
    size: usize,
}

/// What the consumer reads back from a valid payload.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub put_ns: u64,
    pub last: bool,
}

impl Payloads {
    pub fn new(seed: u64, size: usize) -> Payloads {
        assert!(size > HEADER, "payloads carry a {HEADER}-byte header");
        let mut state = seed;
        let mut pattern = Vec::with_capacity(size + WINDOW + 8);
        while pattern.len() < size + WINDOW {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            pattern.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        Payloads { pattern, size }
    }

    fn offset(seq: u64) -> usize {
        (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize % WINDOW
    }

    /// The payload for `seq`, its stamp still zero.
    pub fn build(&self, seq: u64, last: bool) -> Vec<u8> {
        let off = Self::offset(seq);
        let mut buf = Vec::with_capacity(self.size);
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&[u8::from(last), 0, 0, 0, 0, 0, 0, 0]);
        buf.extend_from_slice(&self.pattern[off + HEADER..off + self.size]);
        buf
    }

    pub fn stamp(buf: &mut [u8], now_ns: u64) {
        buf[8..16].copy_from_slice(&now_ns.to_le_bytes());
    }

    /// `None` when `got` is not the payload generated for `seq`.
    pub fn check(&self, seq: u64, got: &[u8]) -> Option<Stamp> {
        if got.len() != self.size || got[0..8] != seq.to_le_bytes() || got[16] > 1 {
            return None;
        }
        let off = Self::offset(seq);
        let body = (self.size - HEADER) as u64;
        let sampled_ok = (0..SAMPLED)
            .map(|k| {
                HEADER + (seq.wrapping_add(k).wrapping_mul(0x2545_f491_4f6c_dd1d) % body) as usize
            })
            .chain([self.size - 1])
            .all(|i| got[i] == self.pattern[off + i]);
        sampled_ok.then(|| Stamp {
            put_ns: u64::from_le_bytes(got[8..16].try_into().unwrap_or([0; 8])),
            last: got[16] == 1,
        })
    }
}

/// Reasons a tally keeps.
const NOTES_KEPT: usize = 8;

/// Operations attempted and failed, with the first few reasons kept.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < NOTES_KEPT {
            self.notes.push(what());
        }
    }

    /// Counts one library call; `None` (and one failure) when it erred.
    fn call<T>(&mut self, what: &str, r: Result<T, StmError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one check of an output.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = NOTES_KEPT.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// How long a round runs and what it records besides the end-to-end
/// figures.
#[derive(Debug, Clone, Copy)]
pub struct RoundCfg {
    pub warmup: Duration,
    pub measure: Duration,
    /// Record a span around every client call.
    pub traced: bool,
    /// Sample the process's scheduler counters at both ends of the
    /// measured window (the main thread reads `/proc` while workers run).
    pub sample_proc: bool,
}

/// Length of one throughput slice; a round's rate is the median slice.
pub const SLICE: Duration = Duration::from_millis(250);

/// Deltas of the cluster's own counters over a round's whole loop
/// (warm-up included), as `EndDevice::stats(true)` reports them.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsDelta {
    pub items: u64,
    pub clf_msgs: u64,
    pub clf_datagrams: u64,
    pub clf_retransmits: u64,
    pub surrogate_rpcs: u64,
    pub remote_ops: u64,
    pub gc_reclaimed: u64,
    pub repl_acked: u64,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub teardown_s: f64,
    /// Put-to-get time of every item got inside the measured window.
    pub lat_us: Vec<f64>,
    /// Items per second of each full slice of the measured window.
    pub slice_rates: Vec<f64>,
    /// Items put, got, validated and consumed inside the measured window.
    pub items: u64,
    pub tally: Tally,
    pub proc: Option<(ProcSample, ProcSample)>,
    pub obs: ObsDelta,
    pub spans: Vec<Span>,
}

/// Per-thread result of a loop.
#[derive(Debug, Default)]
struct LoopOut {
    tally: Tally,
    lat_us: Vec<f64>,
    /// Completion time (ns on the run clock) of every consumed batch and
    /// the items in it.
    done: Vec<(u64, u32)>,
    put: u64,
    got: u64,
    consumed: u64,
    spans: Spans,
}

/// The round's time line on the run clock.
#[derive(Debug, Clone, Copy)]
struct Window {
    measure_ns: u64,
    end_ns: u64,
}

struct Session<'a> {
    w: &'a Workload,
    gen: &'a Payloads,
    clock: Clock,
    out: &'a ClientChanOut,
    inp: &'a ClientChanIn,
    win: Window,
}

fn ts_of(seq: u64) -> Timestamp {
    Timestamp::new(seq as i64)
}

/// One put → get → consume cycle of `w.batch` items starting at `seq`,
/// all on the calling thread. Returns the put-to-get time when the whole
/// cycle succeeded.
fn cycle(s: &Session<'_>, seq: u64, o: &mut LoopOut) -> Option<u64> {
    let n = s.w.batch as u64;
    let mut bufs: Vec<Vec<u8>> = (seq..seq + n).map(|q| s.gen.build(q, false)).collect();
    let root = o.spans.open(SpanKind::Item, seq, s.clock.now_ns());

    let t_put = s.clock.now_ns();
    for b in &mut bufs {
        Payloads::stamp(b, t_put);
    }
    let put_ok = if n == 1 {
        let item = Item::from_vec(bufs.pop().unwrap_or_default());
        let r = o.spans.around(SpanKind::Put, seq, &s.clock, || {
            s.out.put(ts_of(seq), item, WaitSpec::Forever)
        });
        o.tally.call("put", r).is_some()
    } else {
        let entries: Vec<(Timestamp, Item)> = bufs
            .drain(..)
            .zip(seq..)
            .map(|(b, q)| (ts_of(q), Item::from_vec(b)))
            .collect();
        let r = o.spans.around(SpanKind::Put, seq, &s.clock, || {
            s.out.put_many(entries, WaitSpec::Forever)
        });
        match o.tally.call("put_many", r) {
            Some(results) => {
                let bad = results.iter().filter(|r| r.is_err()).count();
                o.tally
                    .check(bad == 0, || format!("put_many: {bad} items refused"));
                bad == 0
            }
            None => false,
        }
    };
    if !put_ok {
        o.spans.close(root, s.clock.now_ns());
        return None;
    }
    o.put += n;

    let got: Vec<Result<(Timestamp, Item), StmError>> = if n == 1 {
        let r = o.spans.around(SpanKind::Get, seq, &s.clock, || {
            s.inp.get(GetSpec::Exact(ts_of(seq)), WaitSpec::Forever)
        });
        vec![r]
    } else {
        let specs: Vec<GetSpec> = (seq..seq + n).map(|q| GetSpec::Exact(ts_of(q))).collect();
        let r = o
            .spans
            .around(SpanKind::Get, seq, &s.clock, || s.inp.get_many(&specs));
        match r {
            Ok(items) => items,
            Err(e) => vec![Err(e)],
        }
    };
    let t_got = s.clock.now_ns();

    let mut valid = 0u64;
    for (r, q) in got.into_iter().zip(seq..) {
        if let Some((ts, item)) = o.tally.call("get", r) {
            let stamp = s.gen.check(q, item.payload());
            let ok = ts == ts_of(q) && stamp.is_some_and(|st| st.put_ns == t_put);
            o.tally
                .check(ok, || format!("item {q}: payload or timestamp mismatch"));
            valid += u64::from(ok);
        }
    }
    o.got += valid;

    let last = seq + n - 1;
    let r = o.spans.around(SpanKind::Consume, seq, &s.clock, || {
        s.inp.consume_until(ts_of(last))
    });
    let consumed = o.tally.call("consume_until", r).is_some();
    let t_done = s.clock.now_ns();
    o.spans.close(root, t_done);
    if !consumed || valid != n {
        return None;
    }
    o.consumed += n;
    o.done.push((t_done, n as u32));
    Some(t_got - t_put)
}

/// Depth-1 closed loop: the next cycle starts when the previous returned.
fn closed_loop(s: &Session<'_>, first_seq: u64, traced: bool) -> LoopOut {
    let mut o = LoopOut {
        spans: Spans::new(traced),
        ..LoopOut::default()
    };
    let mut seq = first_seq;
    loop {
        let now = s.clock.now_ns();
        if now >= s.win.end_ns {
            break;
        }
        let lat = cycle(s, seq, &mut o);
        seq += s.w.batch as u64;
        if let (Some(ns), true) = (lat, now >= s.win.measure_ns) {
            let us = ns as f64 / 1000.0;
            o.lat_us.extend(std::iter::repeat_n(us, s.w.batch));
        }
    }
    o
}

/// Pipelined producer: puts until the window ends, then one item marked
/// last so the consumer knows where the stream stops.
fn produce(s: &Session<'_>, first_seq: u64, traced: bool) -> LoopOut {
    let mut o = LoopOut {
        spans: Spans::new(traced),
        ..LoopOut::default()
    };
    let mut seq = first_seq;
    loop {
        let last = s.clock.now_ns() >= s.win.end_ns;
        let mut buf = s.gen.build(seq, last);
        Payloads::stamp(&mut buf, s.clock.now_ns());
        let item = Item::from_vec(buf);
        let r = o.spans.around(SpanKind::Put, seq, &s.clock, || {
            s.out.put(ts_of(seq), item, WaitSpec::Forever)
        });
        if o.tally.call("put", r).is_none() {
            break; // a broken stream cannot be resumed; the consumer's wait is bounded by the watchdog
        }
        o.put += 1;
        if last {
            break;
        }
        seq += 1;
    }
    o
}

/// Pipelined consumer: steps through the stream with `After(last seen)`.
fn consume(s: &Session<'_>, after_seq: u64, traced: bool) -> LoopOut {
    let mut o = LoopOut {
        spans: Spans::new(traced),
        ..LoopOut::default()
    };
    let mut prev = after_seq;
    loop {
        let r = o.spans.around(SpanKind::Get, prev + 1, &s.clock, || {
            s.inp.get(GetSpec::After(ts_of(prev)), WaitSpec::Forever)
        });
        let t_got = s.clock.now_ns();
        let Some((ts, item)) = o.tally.call("get", r) else {
            break;
        };
        let seq = prev + 1;
        let stamp = s
            .gen
            .check(seq, item.payload())
            .filter(|_| ts == ts_of(seq));
        o.tally.check(stamp.is_some(), || {
            format!("item {seq}: payload or timestamp mismatch")
        });
        let Some(stamp) = stamp else {
            break; // out of step with the producer: stop rather than guess
        };
        o.got += 1;
        drop(item);
        let r = o
            .spans
            .around(SpanKind::Consume, seq, &s.clock, || s.inp.consume_until(ts));
        if o.tally.call("consume_until", r).is_none() {
            break;
        }
        let t_done = s.clock.now_ns();
        o.spans
            .push(SpanKind::Item, seq, stamp.put_ns, t_done.max(stamp.put_ns));
        o.consumed += 1;
        o.done.push((t_done, 1));
        if stamp.put_ns >= s.win.measure_ns && t_got < s.win.end_ns {
            o.lat_us
                .push((t_got.saturating_sub(stamp.put_ns)) as f64 / 1000.0);
        }
        if stamp.last {
            break;
        }
        prev = seq;
    }
    o
}

/// A channel name that the default (hashed) placement puts on `target`.
/// Named resources key on the name alone, so this pins the channel
/// without touching the placement knob.
fn name_placed_on(target: AsId, members: &[AsId]) -> String {
    (0u32..)
        .map(|k| format!("benchmark-{k}"))
        .find(|name| place(creation_key(Some(name), AsId(0), 0), members) == Some(target))
        .unwrap_or_default()
}

/// The cluster's own counters, and the items its channels hold, through
/// the public stats API (one cluster-wide pull).
fn cluster_counters(dev: &EndDevice, tally: &mut Tally) -> Option<([u64; 7], i64)> {
    let snap = tally.call("stats", dev.stats(true))?;
    let counter = |sub: &str, name: &str| snap.counter_value(sub, name).unwrap_or(0);
    let hist = |sub: &str, name: &str| snap.histogram(sub, name);
    let counters = [
        counter("clf", "msgs_sent"),
        hist("clf", "batch_tx_datagrams").map_or(0, |h| h.sum),
        counter("clf", "retransmits"),
        hist("rpc", "surrogate_latency_us").map_or(0, |h| h.count),
        hist("rpc", "remote_op_us").map_or(0, |h| h.count),
        counter("gc", "reclaimed_items"),
        counter("repl", "acked"),
    ];
    Some((
        counters,
        snap.gauge_value("stm", "channel_items").unwrap_or(0),
    ))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A cluster built as every round builds it.
///
/// The benchmark sets exactly two knobs — two address spaces and the UDP
/// CLF backend — and measures the library's defaults otherwise, so a later
/// change that flips a default is measured by it.
fn build_cluster() -> Result<Cluster, String> {
    Cluster::builder()
        .address_spaces(2)
        .transport(ClusterTransport::Udp(UdpConfig::default()))
        .build()
        .map_err(|e| format!("cluster build: {e}"))
}

/// Two attached devices and their connections to one channel.
struct Rig {
    producer: EndDevice,
    consumer: EndDevice,
    chan: ChanId,
    out: ClientChanOut,
    inp: ClientChanIn,
}

/// Set-up after the cluster is built: two attaches, channel create, both
/// connects and one completed item. Returns the rig and the seconds since
/// `t_setup`, which the caller took just before building the cluster.
fn set_up(
    w: &Workload,
    gen: &Payloads,
    clock: Clock,
    t_setup: Instant,
    cluster: &Cluster,
    tally: &mut Tally,
) -> Result<(Rig, f64), String> {
    let err = |what: &str, e: StmError| format!("{what}: {e}");
    let listener = |i: u16| cluster.listener_addr(i).map_err(|e| err("listener", e));
    let producer = EndDevice::attach_c(listener(w.producer_as)?, "bench-producer")
        .map_err(|e| err("attach producer", e))?;
    let consumer = EndDevice::attach_c(listener(w.consumer_as)?, "bench-consumer")
        .map_err(|e| err("attach consumer", e))?;

    let members: Vec<AsId> = (0..cluster.len() as u16).map(AsId).collect();
    let home = AsId(w.consumer_as);
    let attrs = match w.capacity {
        Some(n) => ChannelAttrs::builder()
            .capacity(n)
            .overflow(OverflowPolicy::Block)
            .build(),
        None => ChannelAttrs::default(),
    };
    let chan: ChanId = consumer
        .create_channel(Some(&name_placed_on(home, &members)), attrs)
        .map_err(|e| err("create channel", e))?;
    if chan.owner != home {
        return Err(format!(
            "channel placed on {:?}, wanted {home:?}",
            chan.owner
        ));
    }
    let out = producer
        .connect_channel_out(chan)
        .map_err(|e| err("connect out", e))?;
    let inp = consumer
        .connect_channel_in(chan, Interest::FromEarliest)
        .map_err(|e| err("connect in", e))?;

    let first_item = Session {
        w: &Workload { batch: 1, ..*w },
        gen,
        clock,
        out: &out,
        inp: &inp,
        win: Window {
            measure_ns: 0,
            end_ns: 0,
        },
    };
    let mut first = LoopOut::default();
    let first_ok = cycle(&first_item, 0, &mut first).is_some();
    let setup_s = secs(t_setup.elapsed());
    tally.merge(first.tally);
    if !first_ok {
        return Err(format!("first item failed: {:?}", tally.notes));
    }
    let rig = Rig {
        producer,
        consumer,
        chan,
        out,
        inp,
    };
    Ok((rig, setup_s))
}

/// Disconnects, detaches and `Cluster::shutdown`; the seconds they took.
fn tear_down(rig: Rig, cluster: &Cluster, tally: &mut Tally) -> f64 {
    let t_down = Instant::now();
    drop(rig.out);
    drop(rig.inp);
    tally.call("detach producer", rig.producer.detach());
    tally.call("detach consumer", rig.consumer.detach());
    cluster.shutdown();
    secs(t_down.elapsed())
}

/// One set-up and teardown of a cluster that carries a single item.
#[derive(Debug, Default)]
pub struct IdleCycle {
    pub setup_s: f64,
    pub teardown_s: f64,
    pub tally: Tally,
}

/// Sets a cluster up as a round does and tears it down at once.
///
/// This is where `teardown_s` is measured. `Cluster::shutdown` joins, one
/// after the other, two flight-recorder threads that sleep in 1 s ticks.
/// After a loaded round the second recorder has drifted ahead of the first
/// in some rounds and not in others, so a loaded teardown takes T or T + 1 s
/// by a coin toss that differs per workload (observed 33 % to 100 % long).
/// A cluster that has only just been set up has not drifted: its teardown
/// repeats within a few milliseconds, and a change to the shutdown path
/// still moves it.
///
/// # Errors
///
/// As [`run_round`].
pub fn idle_cycle(w: &Workload, gen: &Payloads) -> Result<IdleCycle, String> {
    let clock = Clock::start();
    let t_setup = Instant::now();
    let cluster = build_cluster()?;
    let mut cycle = IdleCycle::default();
    match set_up(w, gen, clock, t_setup, &cluster, &mut cycle.tally) {
        Ok((rig, setup_s)) => {
            cycle.setup_s = setup_s;
            cycle.teardown_s = tear_down(rig, &cluster, &mut cycle.tally);
            Ok(cycle)
        }
        Err(e) => {
            cluster.shutdown();
            Err(e)
        }
    }
}

/// Runs one round of `w` on a fresh cluster.
///
/// # Errors
///
/// When the cluster, the sessions or the channel cannot be set up at all;
/// failures after that are counted in the round's tally.
pub fn run_round(w: &Workload, gen: &Payloads, cfg: &RoundCfg) -> Result<Round, String> {
    let clock = Clock::start();
    let t_setup = Instant::now();
    let cluster = build_cluster()?;
    let mut round = Round::default();
    match set_up(w, gen, clock, t_setup, &cluster, &mut round.tally) {
        Ok((rig, setup_s)) => {
            round.setup_s = setup_s;
            drive(w, gen, cfg, clock, &cluster, &rig, &mut round);
            round.teardown_s = tear_down(rig, &cluster, &mut round.tally);
            Ok(round)
        }
        Err(e) => {
            cluster.shutdown();
            Err(e)
        }
    }
}

/// The loop of one round and the checks at its end.
fn drive(
    w: &Workload,
    gen: &Payloads,
    cfg: &RoundCfg,
    clock: Clock,
    cluster: &Cluster,
    rig: &Rig,
    round: &mut Round,
) {
    let before = cluster_counters(&rig.consumer, &mut round.tally);

    let start = clock.now_ns();
    let win = Window {
        measure_ns: start + cfg.warmup.as_nanos() as u64,
        end_ns: start + (cfg.warmup + cfg.measure).as_nanos() as u64,
    };
    let session = Session {
        w,
        gen,
        clock,
        out: &rig.out,
        inp: &rig.inp,
        win,
    };
    type Loop = fn(&Session<'_>, bool) -> LoopOut;
    let loops: &[Loop] = if w.pipelined {
        &[
            |s, traced| produce(s, 1, traced),
            |s, traced| consume(s, 0, traced),
        ]
    } else {
        &[|s, traced| closed_loop(s, 1, traced)]
    };
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut outs: Vec<LoopOut> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = loops
            .iter()
            .map(|run| {
                let (s, tx) = (&session, done_tx.clone());
                scope.spawn(move || {
                    host::pin_to_load();
                    let o = run(s, cfg.traced);
                    let _ = tx.send(());
                    o
                })
            })
            .collect();
        drop(done_tx);

        if cfg.sample_proc {
            std::thread::sleep(Duration::from_nanos(
                win.measure_ns.saturating_sub(clock.now_ns()),
            ));
            let a = ProcSample::take();
            std::thread::sleep(Duration::from_nanos(
                win.end_ns.saturating_sub(clock.now_ns()),
            ));
            round.proc = Some((a, ProcSample::take()));
        }
        // Watchdog: every wait in the loops is `Forever`, as a device's
        // would be. If a worker is still blocked well after the window,
        // shutting the cluster down fails its call, which is then counted.
        let deadline = cfg.warmup + cfg.measure + Duration::from_secs(10);
        for _ in 0..workers.len() {
            let left = deadline.saturating_sub(Duration::from_nanos(clock.now_ns() - start));
            if done_rx.recv_timeout(left).is_err() {
                round.tally.attempted += 1;
                round
                    .tally
                    .fail(|| "watchdog: a worker was still blocked 10 s after the window".into());
                cluster.shutdown();
                break;
            }
        }
        for h in workers {
            match h.join() {
                Ok(o) => outs.push(o),
                Err(_) => {
                    round.tally.attempted += 1;
                    round.tally.fail(|| "a worker thread panicked".into());
                }
            }
        }
    });

    let (mut put, mut got, mut consumed) = (1u64, 1u64, 1u64); // the set-up item
    let mut done: Vec<(u64, u32)> = Vec::new();
    let mut spans = Spans::new(cfg.traced);
    for o in outs {
        put += o.put;
        got += o.got;
        consumed += o.consumed;
        round.tally.merge(o.tally);
        round.lat_us.extend(o.lat_us);
        done.extend(o.done);
        spans.absorb(o.spans);
    }
    round.spans = spans.into_vec();

    // Throughput: items whose consume returned inside each full slice.
    let slices = (cfg.measure.as_nanos() / SLICE.as_nanos()).max(1) as usize;
    let slice_ns = (win.end_ns - win.measure_ns) / slices as u64;
    let mut per_slice = vec![0u64; slices];
    for (t, n) in done {
        if t >= win.measure_ns && t < win.end_ns {
            let i = (((t - win.measure_ns) / slice_ns) as usize).min(slices - 1);
            per_slice[i] += u64::from(n);
        }
    }
    round.items = per_slice.iter().sum();
    round.slice_rates = per_slice
        .iter()
        .map(|&n| n as f64 / (slice_ns as f64 / 1e9))
        .collect();

    // Correctness at round end: nothing lost between the three calls, the
    // channel's own counts agree, and garbage collection really reclaimed.
    round.tally.check(put == got && got == consumed, || {
        format!("items put {put}, got {got}, consumed {consumed}")
    });
    if let Ok(c) = cluster
        .space(w.consumer_as)
        .and_then(|s| s.registry().channel(rig.chan))
    {
        let st = c.stats();
        round.tally.check(st.puts == put && st.gets == got, || {
            format!(
                "channel counted {} puts / {} gets, bench {put} / {got}",
                st.puts, st.gets
            )
        });
    }
    let after = cluster_counters(&rig.consumer, &mut round.tally);
    if let Some((_, live)) = after {
        let cap = i64::from(w.capacity.unwrap_or(0));
        round.tally.check(live <= cap, || {
            format!("{live} items still live after the last consume (capacity {cap})")
        });
    }
    if let (Some((b, _)), Some((a, _))) = (before, after) {
        let d = |i: usize| a[i].saturating_sub(b[i]);
        round.obs = ObsDelta {
            items: consumed - 1,
            clf_msgs: d(0),
            clf_datagrams: d(1),
            clf_retransmits: d(2),
            surrogate_rpcs: d(3),
            remote_ops: d(4),
            gc_reclaimed: d(5),
            repl_acked: d(6),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_seeded_and_checked() {
        let (a, b) = (Payloads::new(42, 64), Payloads::new(42, 64));
        let mut buf = a.build(7, true);
        assert_eq!(buf, b.build(7, true), "same seed, same inputs");
        assert_ne!(buf, Payloads::new(43, 64).build(7, true));
        Payloads::stamp(&mut buf, 99);
        let st = a.check(7, &buf).expect("valid payload");
        assert!(st.last && st.put_ns == 99);
        assert!(a.check(8, &buf).is_none(), "wrong sequence number");
        assert!(a.check(7, &buf[..63]).is_none(), "cut short");
        let n = buf.len();
        buf[n - 1] ^= 1;
        assert!(a.check(7, &buf).is_none(), "corrupted");
    }

    #[test]
    fn channel_names_land_where_asked() {
        let members = [AsId(0), AsId(1)];
        for target in members {
            let name = name_placed_on(target, &members);
            assert_eq!(
                place(creation_key(Some(&name), AsId(0), 0), &members),
                Some(target)
            );
        }
    }
}

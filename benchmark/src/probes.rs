//! The probe ladder: each rung times calls into one crate's public
//! functions, from the benchmark's own files, in the shape of the workload
//! being accounted for (its payload size, and `put_many`/`get_many` of its
//! batch where it batches). The rungs, outside in:
//!
//! `client` (a session RPC) → `runtime` (the in-cluster proxy call the
//! surrogate makes) → `clf` (the hop between address spaces), `wire` (the
//! codec) and `core` (the bare channel), over the raw TCP and UDP floors.
//!
//! A rung's self time is its probe minus the rungs below it; the ledger in
//! `main.rs` composes them per workload.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dstampede::clf::{
    tcp_connect, tcp_listen_loopback, udp_mesh, ClfError, ClfTransport, UdpConfig,
};
use dstampede::core::{
    AsId, Channel, ChannelAttrs, GetSpec, Interest, Item, OverflowPolicy, StmRegistry, Timestamp,
};
use dstampede::runtime::ClusterTransport;
use dstampede::wire::{
    codec_for, BatchGot, BatchPutItem, Codec, CodecId, Reply, ReplyFrame, Request, RequestFrame,
    WaitSpec,
};
use dstampede::{Cluster, EndDevice};

use crate::host::{self, Clock};
use crate::stats::median;
use crate::workload::{Payloads, Workload};

/// Every number the ladder produces. Times are medians.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    // floors
    pub tcp_floor_us: f64,
    pub udp_floor_us: f64,
    // wire
    pub wire_put_rt_ns: f64,
    pub wire_get_rt_ns: f64,
    pub wire_batch32_rt_ns: f64,
    pub wire_jdr_put_rt_ns: f64,
    pub wire_jdr_get_rt_ns: f64,
    pub wire_jdr_batch32_rt_ns: f64,
    pub wire_overhead_bytes: f64,
    // core
    pub core_put_ns: f64,
    pub core_get_ns: f64,
    pub core_consume_ns: f64,
    pub core_wake_us: f64,
    pub core_block_cycle_us: f64,
    // clf
    pub clf_oneway_us: f64,
    pub clf_stream_mb_s: f64,
    pub clf_datagrams_per_msg: f64,
    pub clf_retransmit_share: f64,
    // runtime
    pub proxy_put_remote_us: f64,
    pub proxy_put_local_us: f64,
    pub proxy_get_local_us: f64,
    // client
    pub session_rpc_us: f64,
    pub session_put_local_us: f64,
    pub session_get_local_us: f64,
}

/// Time one probe may take.
const BUDGET: Duration = Duration::from_millis(250);
/// Reply every floor and CLF ping answers with: an RPC carries its payload
/// one way and a short acknowledgment back.
const ACK: usize = 16;
/// Largest datagram the raw UDP floor sends; CLF's default fragment size.
const UDP_CHUNK: usize = 8192;
/// How long thread A sleeps to let thread B settle into its blocking call
/// before it stamps and releases it.
const SETTLE: Duration = Duration::from_micros(100);

/// Calls `f` until the budget or `max` calls are spent; median of the
/// per-call times in nanoseconds. `f` returns `None` to abort.
fn p50_ns(max: usize, mut f: impl FnMut(usize) -> Option<Duration>) -> Result<f64, String> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(max);
    for i in 0..max {
        match f(i) {
            Some(d) => samples.push(d.as_nanos() as f64),
            None => return Err("a probe call failed".into()),
        }
        if started.elapsed() > BUDGET && samples.len() >= 20 {
            break;
        }
    }
    Ok(median(&mut samples))
}

fn timed<T>(f: impl FnOnce() -> Option<T>) -> Option<Duration> {
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    r.map(|v| {
        black_box(v);
        d
    })
}

/// Runs `f` on a thread of the load generator's CPUs: the device side of
/// a probe. Everything else in the ladder stands for cluster threads and
/// runs where the caller (the main thread) and the threads it spawns are,
/// on the cluster's CPUs.
fn on_load_cpus<T: Send>(f: impl FnOnce() -> Result<T, String> + Send) -> Result<T, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                host::pin_to_load();
                f()
            })
            .join()
            .unwrap_or_else(|_| Err("a probe thread panicked".into()))
    })
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Raw TCP on loopback: `bytes` out, `ACK` back, halved.
fn tcp_floor_us(bytes: usize) -> Result<f64, String> {
    let listener = tcp_listen_loopback().map_err(io_err("tcp listen"))?;
    let addr = listener.local_addr().map_err(io_err("tcp addr"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> std::io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let mut buf = vec![0u8; bytes];
            while s.read_exact(&mut buf).is_ok() {
                s.write_all(&[0u8; ACK])?;
            }
            Ok(())
        });
        let r = on_load_cpus(|| {
            let mut c = tcp_connect(addr).map_err(io_err("tcp connect"))?;
            let msg = vec![7u8; bytes];
            let mut ack = [0u8; ACK];
            p50_ns(4000, |_| {
                timed(|| {
                    c.write_all(&msg).ok()?;
                    c.read_exact(&mut ack).ok()
                })
            })
        });
        if r.is_err() {
            // The client may have failed before connecting; do not leave
            // the server in `accept`.
            let _ = tcp_connect(addr);
        }
        let _ = server.join();
        r.map(|ns| ns / 2000.0)
    })
}

/// Raw UDP on loopback: `bytes` out in `UDP_CHUNK` datagrams, `ACK` back,
/// halved.
fn udp_floor_us(bytes: usize) -> Result<f64, String> {
    let bind = || UdpSocket::bind("127.0.0.1:0").map_err(io_err("udp bind"));
    let (a, b) = (bind()?, bind()?);
    let (a_addr, b_addr) = (
        a.local_addr().map_err(io_err("udp addr"))?,
        b.local_addr().map_err(io_err("udp addr"))?,
    );
    a.connect(b_addr).map_err(io_err("udp connect"))?;
    b.connect(a_addr).map_err(io_err("udp connect"))?;
    let wait = Some(Duration::from_millis(200));
    a.set_read_timeout(wait).map_err(io_err("udp timeout"))?;
    b.set_read_timeout(wait).map_err(io_err("udp timeout"))?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut buf = vec![0u8; UDP_CHUNK];
            let mut pending = 0usize;
            while !stop.load(Ordering::Acquire) {
                if let Ok(n) = b.recv(&mut buf) {
                    pending += n;
                    if pending >= bytes {
                        pending = 0;
                        let _ = b.send(&[0u8; ACK]);
                    }
                }
            }
        });
        let msg = vec![7u8; bytes];
        let mut ack = [0u8; ACK];
        let r = p50_ns(4000, |_| {
            timed(|| {
                for chunk in msg.chunks(UDP_CHUNK) {
                    a.send(chunk).ok()?;
                }
                a.recv(&mut ack).ok()
            })
        });
        stop.store(true, Ordering::Release);
        let _ = server.join();
        r.map(|ns| ns / 2000.0)
    })
}

/// Encode + flatten + decode of a request and of its reply. Flattening
/// stands in for the receiver's frame-buffer fill (`wire::read_frame_bytes`).
/// Returns the bytes both frames put on the wire.
fn codec_rt(codec: &dyn Codec, req: &RequestFrame, rep: &ReplyFrame) -> Option<usize> {
    let wire_req = codec.encode_request(req).ok()?.to_bytes();
    black_box(codec.decode_request(&wire_req).ok()?);
    let wire_rep = codec.encode_reply(rep).ok()?.to_bytes();
    black_box(codec.decode_reply(&wire_rep).ok()?);
    Some(wire_req.len() + wire_rep.len())
}

struct WireFrames {
    put: (RequestFrame, ReplyFrame),
    get: (RequestFrame, ReplyFrame),
    put_batch: (RequestFrame, ReplyFrame),
    get_batch: (RequestFrame, ReplyFrame),
}

fn wire_frames(payload: &Bytes) -> WireFrames {
    let ts = Timestamp::new(7);
    let batch_ts = || (0..32).map(Timestamp::new);
    WireFrames {
        put: (
            RequestFrame::new(
                1,
                Request::ChannelPut {
                    conn: 1,
                    ts,
                    tag: 0,
                    payload: payload.clone(),
                    wait: WaitSpec::Forever,
                },
            ),
            ReplyFrame::new(1, Vec::new(), Reply::Ok),
        ),
        get: (
            RequestFrame::new(
                2,
                Request::ChannelGet {
                    conn: 1,
                    spec: GetSpec::Exact(ts),
                    wait: WaitSpec::Forever,
                },
            ),
            ReplyFrame::new(
                2,
                Vec::new(),
                Reply::Item {
                    ts,
                    tag: 0,
                    payload: payload.clone(),
                },
            ),
        ),
        put_batch: (
            RequestFrame::new(
                3,
                Request::PutBatch {
                    conn: 1,
                    items: batch_ts()
                        .map(|ts| BatchPutItem {
                            ts,
                            tag: 0,
                            payload: payload.clone(),
                            trace: None,
                        })
                        .collect(),
                    wait: WaitSpec::Forever,
                },
            ),
            ReplyFrame::new(3, Vec::new(), Reply::BatchResults { codes: vec![0; 32] }),
        ),
        get_batch: (
            RequestFrame::new(
                4,
                Request::GetBatch {
                    conn: 1,
                    specs: batch_ts().map(GetSpec::Exact).collect(),
                    max: 32,
                },
            ),
            ReplyFrame::new(
                4,
                Vec::new(),
                Reply::BatchItems {
                    items: batch_ts()
                        .map(|ts| BatchGot {
                            code: 0,
                            ts,
                            tag: 0,
                            payload: payload.clone(),
                            ticket: 0,
                            trace: None,
                        })
                        .collect(),
                },
            ),
        ),
    }
}

fn wire_probes(p: &mut Probes, w: &Workload, payload: &Bytes) -> Result<(), String> {
    let frames = wire_frames(payload);
    // The put and get round trips take the workload's shape: a batching
    // workload sends PutBatch/GetBatch frames, the others single frames.
    let (put, get) = if w.batch > 1 {
        (&frames.put_batch, &frames.get_batch)
    } else {
        (&frames.put, &frames.get)
    };
    let rt = |codec: &dyn Codec, pairs: &[&(RequestFrame, ReplyFrame)]| {
        p50_ns(20_000, |_| {
            timed(|| {
                pairs
                    .iter()
                    .try_fold(0, |n, (q, r)| Some(n + codec_rt(codec, q, r)?))
            })
        })
    };
    let xdr = codec_for(CodecId::Xdr);
    let jdr = codec_for(CodecId::Jdr);
    p.wire_put_rt_ns = rt(&*xdr, &[put])?;
    p.wire_get_rt_ns = rt(&*xdr, &[get])?;
    p.wire_batch32_rt_ns = rt(&*xdr, &[&frames.put_batch, &frames.get_batch])?;
    p.wire_jdr_put_rt_ns = rt(&*jdr, &[put])?;
    p.wire_jdr_get_rt_ns = rt(&*jdr, &[get])?;
    p.wire_jdr_batch32_rt_ns = rt(&*jdr, &[&frames.put_batch, &frames.get_batch])?;
    let on_wire = codec_rt(&*xdr, &frames.put.0, &frames.put.1).ok_or("xdr put round trip")?;
    p.wire_overhead_bytes = (on_wire - payload.len()) as f64;
    Ok(())
}

/// Items per timed block of the bare-channel probes.
const CORE_BLOCK: i64 = 256;

fn core_probes(p: &mut Probes, payload: &Bytes) -> Result<(), String> {
    let chan = Channel::standalone(ChannelAttrs::default());
    let out = chan.connect_output();
    let inp = chan.connect_input(Interest::FromEarliest);
    let per_op = |d: Duration| d / CORE_BLOCK as u32;
    let (mut puts, mut gets, mut consumes) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut base = 0i64;
    while started.elapsed() < BUDGET || puts.len() < 20 {
        let block = base..base + CORE_BLOCK;
        let t = Instant::now();
        for ts in block.clone() {
            out.put(Timestamp::new(ts), Item::new(payload.clone()))
                .map_err(|e| format!("core put: {e}"))?;
        }
        puts.push(per_op(t.elapsed()).as_nanos() as f64);
        let t = Instant::now();
        for ts in block.clone() {
            black_box(
                inp.get(GetSpec::Exact(Timestamp::new(ts)))
                    .map_err(|e| format!("core get: {e}"))?,
            );
        }
        gets.push(per_op(t.elapsed()).as_nanos() as f64);
        let t = Instant::now();
        for ts in block {
            inp.consume_until(Timestamp::new(ts))
                .map_err(|e| format!("core consume: {e}"))?;
        }
        consumes.push(per_op(t.elapsed()).as_nanos() as f64);
        base += CORE_BLOCK;
    }
    p.core_put_ns = median(&mut puts);
    p.core_get_ns = median(&mut gets);
    p.core_consume_ns = median(&mut consumes);
    p.core_wake_us = core_wake_us(payload)?;
    p.core_block_cycle_us = core_block_cycle_us(payload)?;
    Ok(())
}

/// Runs `blocked(i)` on a second thread and `release(i)` on this one,
/// `ROUNDS` times over: the second thread announces each round, blocks in
/// `blocked` and reports the clock when it returns; this thread gives it
/// `SETTLE` to block, stamps, releases it, and samples the difference.
/// The hand-shakes block rather than spin, so the probe also works when
/// both threads share one CPU.
fn handoff_us(
    what: &str,
    blocked: impl Fn(u64) -> bool + Send,
    release: impl Fn(u64) -> bool,
    unblock: impl Fn(),
) -> Result<f64, String> {
    const ROUNDS: u64 = 400;
    let clock = Clock::start();
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (woke_tx, woke_rx) = mpsc::channel::<Option<u64>>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 1..=ROUNDS {
                if ready_tx.send(()).is_err() {
                    return;
                }
                let ok = blocked(i);
                let woke_ns = clock.now_ns();
                if woke_tx.send(ok.then_some(woke_ns)).is_err() || !ok {
                    return;
                }
            }
        });
        let mut samples = Vec::new();
        for i in 1..=ROUNDS {
            if ready_rx.recv().is_err() {
                break;
            }
            std::thread::sleep(SETTLE);
            let t0 = clock.now_ns();
            if !release(i) {
                break;
            }
            match woke_rx.recv() {
                Ok(Some(woke_ns)) => samples.push(woke_ns.saturating_sub(t0) as f64 / 1000.0),
                _ => break,
            }
        }
        unblock();
        if samples.len() as u64 == ROUNDS {
            Ok(median(&mut samples))
        } else {
            Err(format!(
                "{what} probe failed after {} rounds",
                samples.len()
            ))
        }
    })
}

/// Commit in thread A → blocked `get` returns in thread B.
fn core_wake_us(payload: &Bytes) -> Result<f64, String> {
    let chan = Channel::standalone(ChannelAttrs::default());
    let out = chan.connect_output();
    let inp = chan.connect_input(Interest::FromEarliest);
    let ts = |i: u64| Timestamp::new(i as i64);
    handoff_us(
        "core wake",
        |i| inp.get(GetSpec::Exact(ts(i))).is_ok() && inp.consume_until(ts(i)).is_ok(),
        |i| out.put(ts(i), Item::new(payload.clone())).is_ok(),
        || chan.close(),
    )
}

/// Full capacity-4 channel: consume in thread A → blocked `put` returns in
/// thread B.
fn core_block_cycle_us(payload: &Bytes) -> Result<f64, String> {
    const CAP: u64 = 4;
    let attrs = ChannelAttrs::builder()
        .capacity(CAP as u32)
        .overflow(OverflowPolicy::Block)
        .build();
    let chan = Channel::standalone(attrs);
    let out = chan.connect_output();
    let inp = chan.connect_input(Interest::FromEarliest);
    let ts = |i: u64| Timestamp::new(i as i64);
    for i in 1..=CAP {
        out.put(ts(i), Item::new(payload.clone()))
            .map_err(|e| format!("fill: {e}"))?;
    }
    handoff_us(
        "core block-cycle",
        |i| out.put(ts(CAP + i), Item::new(payload.clone())).is_ok(),
        |i| inp.consume_until(ts(i)).is_ok(),
        || chan.close(),
    )
}

/// First byte of every CLF probe message.
const OP_PING: u8 = 0;
const OP_STREAM: u8 = 1;
const OP_STREAM_END: u8 = 2;

fn clf_send(ep: &dyn ClfTransport, dst: AsId, msg: &Bytes) -> Result<(), ClfError> {
    loop {
        match ep.send(dst, msg.clone()) {
            // The only refusal a live endpoint gives: the peer's window of
            // staged packets is full. Let the pump drain it.
            Err(ClfError::Backpressure { .. }) => std::thread::yield_now(),
            other => return other,
        }
    }
}

fn clf_probes(p: &mut Probes, bytes: usize) -> Result<(), String> {
    let clf_err = |e: ClfError| format!("clf: {e}");
    let mesh = udp_mesh(2, UdpConfig::default()).map_err(clf_err)?;
    let (a, b) = (&mesh[0], &mesh[1]);
    // A registry of our own makes the endpoint's datagram counts readable.
    let registry = StmRegistry::new(AsId(0));
    a.bind_metrics(registry.metrics());
    let datagrams = || {
        registry
            .metrics()
            .snapshot()
            .histogram("clf", "batch_tx_datagrams")
            .map_or(0, |h| h.sum)
    };
    let result = std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            let ack = Bytes::from(vec![0u8; ACK]);
            while let Ok((src, msg)) = b.recv() {
                let wants_ack = matches!(msg.first(), Some(&OP_PING) | Some(&OP_STREAM_END));
                if wants_ack && clf_send(&**b, src, &ack).is_err() {
                    break;
                }
            }
        });
        let message = |op: u8| {
            let mut v = vec![7u8; bytes.max(1)];
            v[0] = op;
            Bytes::from(v)
        };
        let mut run = || -> Result<(), String> {
            let ping = message(OP_PING);
            let (sent0, grams0) = (a.stats(), datagrams());
            p.clf_oneway_us = p50_ns(4000, |_| {
                timed(|| {
                    clf_send(&**a, AsId(1), &ping).ok()?;
                    a.recv_timeout(Duration::from_secs(2)).ok()
                })
            })? / 2000.0;
            let (sent1, grams1) = (a.stats(), datagrams());
            let msgs = (sent1.msgs_sent - sent0.msgs_sent).max(1) as f64;
            p.clf_datagrams_per_msg = (grams1 - grams0) as f64 / msgs;
            p.clf_retransmit_share = (sent1.retransmits - sent0.retransmits) as f64 / msgs;

            let (data, end) = (message(OP_STREAM), message(OP_STREAM_END));
            let t = Instant::now();
            let mut sent_bytes = 0usize;
            while t.elapsed() < BUDGET {
                clf_send(&**a, AsId(1), &data).map_err(clf_err)?;
                sent_bytes += data.len();
            }
            clf_send(&**a, AsId(1), &end).map_err(clf_err)?;
            a.recv_timeout(Duration::from_secs(5)).map_err(clf_err)?;
            p.clf_stream_mb_s = sent_bytes as f64 / 1e6 / t.elapsed().as_secs_f64();
            Ok(())
        };
        let r = run();
        a.shutdown();
        b.shutdown();
        let _ = echo.join();
        r
    });
    result
}

fn ts_range(base: i64, n: usize) -> impl Iterator<Item = Timestamp> {
    (base..base + n as i64).map(Timestamp::new)
}

/// The in-cluster proxy call a surrogate makes and the session RPC a
/// device makes, on a cluster built exactly as the workloads build theirs.
fn cluster_probes(
    p: &mut Probes,
    w: &Workload,
    payload: &Bytes,
    warmup: Duration,
) -> Result<(), String> {
    let cluster = Cluster::builder()
        .address_spaces(2)
        .transport(ClusterTransport::Udp(UdpConfig::default()))
        .build()
        .map_err(|e| format!("probe cluster: {e}"))?;
    let r = on_cluster(p, w, payload, warmup, &cluster);
    cluster.shutdown();
    r
}

fn on_cluster(
    p: &mut Probes,
    w: &Workload,
    payload: &Bytes,
    warmup: Duration,
    cluster: &Cluster,
) -> Result<(), String> {
    let stm = |what: &'static str| move |e: dstampede::StmError| format!("{what}: {e}");
    let (near, far) = (
        cluster.space(1).map_err(stm("space 1"))?,
        cluster.space(0).map_err(stm("space 0"))?,
    );
    let chan = near.create_channel(None, ChannelAttrs::default()).id();
    let local = near.open_channel(chan).map_err(stm("open local"))?;
    let out_local = local.connect_output().map_err(stm("connect"))?;
    let inp_local = local
        .connect_input(Interest::FromEarliest)
        .map_err(stm("connect"))?;
    let out_remote = far
        .open_channel(chan)
        .map_err(stm("open remote"))?
        .connect_output()
        .map_err(stm("connect"))?;

    let n = w.batch;
    let entries = |base: i64| -> Vec<(Timestamp, Item)> {
        ts_range(base, n)
            .map(|ts| (ts, Item::new(payload.clone())))
            .collect()
    };
    let specs = |base: i64| -> Vec<GetSpec> { ts_range(base, n).map(GetSpec::Exact).collect() };
    let last = |base: i64| Timestamp::new(base + n as i64 - 1);
    let all_ok =
        |r: Vec<Result<(), dstampede::StmError>>| r.iter().all(Result::is_ok).then_some(());
    let mut base = 0i64;
    let mut next = || {
        base += n as i64;
        base
    };

    // The same warm-up the workloads' rounds get, and for the same reason:
    // a fresh cluster's threads start out on one core.
    let warm = Instant::now();
    while warm.elapsed() < warmup {
        let b = next();
        let r = out_remote
            .put_many(entries(b), WaitSpec::Forever)
            .map_err(stm("warm-up put"))?;
        all_ok(r).ok_or("warm-up put refused")?;
        inp_local
            .consume_until(last(b))
            .map_err(stm("warm-up consume"))?;
    }

    // runtime: ChanOutput::put to a channel on the other address space
    // (Fig 11's leg), to one on its own, and ChanInput::get on its own.
    for (remote, slot) in [
        (true, &mut p.proxy_put_remote_us),
        (false, &mut p.proxy_put_local_us),
    ] {
        let out = if remote { &out_remote } else { &out_local };
        *slot = p50_ns(4000, |_| {
            let b = next();
            let e = entries(b);
            let d = timed(|| {
                if n == 1 {
                    let (ts, item) = e.into_iter().next()?;
                    out.put(ts, item, WaitSpec::Forever).ok()
                } else {
                    all_ok(out.put_many(e, WaitSpec::Forever).ok()?)
                }
            });
            inp_local.consume_until(last(b)).ok()?;
            d
        })? / 1000.0;
    }
    p.proxy_get_local_us = p50_ns(4000, |_| {
        let b = next();
        all_ok(out_local.put_many(entries(b), WaitSpec::Forever).ok()?)?;
        let d = timed(|| {
            if n == 1 {
                inp_local
                    .get(GetSpec::Exact(last(b)), WaitSpec::Forever)
                    .ok()
                    .map(|_| ())
            } else {
                let got = inp_local.get_many(&specs(b)).ok()?;
                got.iter().all(Result::is_ok).then_some(())
            }
        });
        inp_local.consume_until(last(b)).ok()?;
        d
    })? / 1000.0;
    inp_local.disconnect();
    out_local.disconnect();
    out_remote.disconnect();

    // client: the same calls from a device attached to the channel's own
    // address space (Fig 12 configuration 1's leg), and a bare ping.
    let (session_rpc, session_put, session_get) = on_load_cpus(|| {
        let dev = EndDevice::attach_c(
            cluster.listener_addr(1).map_err(stm("listener"))?,
            "bench-probe",
        )
        .map_err(stm("attach"))?;
        let out = dev.connect_channel_out(chan).map_err(stm("connect out"))?;
        let inp = dev
            .connect_channel_in(chan, Interest::FromEarliest)
            .map_err(stm("connect in"))?;
        let session_rpc = p50_ns(4000, |i| timed(|| dev.ping(i as u64).ok()))? / 1000.0;
        let session_put = p50_ns(4000, |_| {
            let b = next();
            let e = entries(b);
            let d = timed(|| {
                if n == 1 {
                    let (ts, item) = e.into_iter().next()?;
                    out.put(ts, item, WaitSpec::Forever).ok()
                } else {
                    all_ok(out.put_many(e, WaitSpec::Forever).ok()?)
                }
            });
            inp.consume_until(last(b)).ok()?;
            d
        })? / 1000.0;
        let session_get = p50_ns(4000, |_| {
            let b = next();
            all_ok(out.put_many(entries(b), WaitSpec::Forever).ok()?)?;
            let d = timed(|| {
                if n == 1 {
                    inp.get(GetSpec::Exact(last(b)), WaitSpec::Forever)
                        .ok()
                        .map(|_| ())
                } else {
                    let got = inp.get_many(&specs(b)).ok()?;
                    got.iter().all(Result::is_ok).then_some(())
                }
            });
            inp.consume_until(last(b)).ok()?;
            d
        })? / 1000.0;
        drop((out, inp));
        dev.detach().map_err(stm("detach"))?;
        Ok((session_rpc, session_put, session_get))
    })?;
    p.session_rpc_us = session_rpc;
    p.session_put_local_us = session_put;
    p.session_get_local_us = session_get;
    Ok(())
}

/// Runs the whole ladder in the shape of one workload.
///
/// # Errors
///
/// When any probe call fails; a ladder with a missing rung is not reported.
pub fn run(w: &Workload, gen: &Payloads, warmup: Duration) -> Result<Probes, String> {
    let payload = Bytes::from(gen.build(0, false));
    let mut p = Probes {
        tcp_floor_us: tcp_floor_us(w.rpc_bytes())?,
        udp_floor_us: udp_floor_us(w.rpc_bytes())?,
        ..Probes::default()
    };
    wire_probes(&mut p, w, &payload)?;
    core_probes(&mut p, &payload)?;
    clf_probes(&mut p, w.rpc_bytes())?;
    cluster_probes(&mut p, w, &payload, warmup)?;
    Ok(p)
}

//! `wire_perf` — machine-readable data-plane perf trajectory.
//!
//! Measures codec encode/decode cost (ns per frame) and CLF UDP
//! loopback throughput (MB/s) at 64 B / 4 KiB / 64 KiB item payloads
//! and writes the numbers as JSON (schema `bench-wire-v1`), so the
//! repo keeps a wire-path trajectory that
//! `scripts/check_bench_regression.py` can diff run over run:
//!
//! ```text
//! wire_perf [--out BENCH_wire.json] [--iters N] [--trials N] [--min-clf MBPS]
//! ```
//!
//! Each configuration runs `--trials` measured blocks and reports the
//! best one (by throughput), damping scheduler noise on shared
//! machines. The codec sections are gated file-vs-file by
//! `check_bench_regression.py` (a floor against the committed
//! `BENCH_wire.json`, and `--min-speedup` against the pre-zero-copy
//! record at `results/BENCH_wire_baseline.json`). `--min-clf MBPS` gates
//! the 4 KiB CLF loopback number in process, pinning the sliding-window
//! SACK transport's throughput floor.

use std::time::Instant;

use bytes::Bytes;
use dstampede_clf::{udp_mesh, ClfError, ClfTransport, UdpConfig};
use dstampede_core::{AsId, Timestamp};
use dstampede_wire::{codec_for, CodecId, Request, RequestFrame, WaitSpec};

/// Payload sizes from the issue: tiny control-ish, typical item, jumbo.
const SIZES: [usize; 3] = [64, 4096, 65536];

/// The `--min-clf` gate applies at this payload size.
const GATE_SIZE: usize = 4096;

/// One measured codec configuration.
struct CodecStats {
    encode_ns: f64,
    decode_ns: f64,
    /// Encode+decode round trips per second.
    ops_per_sec: f64,
}

fn put_frame(size: usize) -> RequestFrame {
    RequestFrame::new(
        7,
        Request::ChannelPut {
            conn: 3,
            ts: Timestamp::new(42),
            tag: 0,
            payload: Bytes::from(vec![0xa5; size]),
            wait: WaitSpec::Forever,
        },
    )
}

/// Iteration count scaled down for big payloads so the byte-at-a-time
/// JDR decode of a 64 KiB frame doesn't dominate the wall clock.
fn codec_iters(base: usize, size: usize) -> usize {
    (base * 256 / size.max(1)).clamp(500, base)
}

/// Times `iters` runs of `op`, returning (total seconds, ns per op).
fn timed<T>(iters: usize, mut op: impl FnMut() -> T) -> (f64, f64) {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    let s = t0.elapsed().as_secs_f64();
    (s, s * 1e9 / iters as f64)
}

/// One measured block: `iters` encodes then `iters` decodes of the
/// same frame, timed as totals (per-op cost is well under timer
/// granularity).
fn run_codec_block(id: CodecId, size: usize, iters: usize) -> CodecStats {
    let codec = codec_for(id);
    let frame = put_frame(size);
    let wire = codec.encode_request(&frame).expect("encode").to_bytes();

    let (enc_s, encode_ns) = timed(iters, || codec.encode_request(&frame).expect("encode"));
    let (dec_s, decode_ns) = timed(iters, || codec.decode_request(&wire).expect("decode"));

    CodecStats {
        encode_ns,
        decode_ns,
        ops_per_sec: iters as f64 / (enc_s + dec_s),
    }
}

fn run_codec_best(id: CodecId, size: usize, iters: usize, trials: usize) -> CodecStats {
    run_codec_block(id, size, (iters / 10).max(1)); // warmup
    (0..trials)
        .map(|_| run_codec_block(id, size, iters))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one trial")
}

/// Message count per CLF block, scaled to roughly constant byte volume.
fn clf_msgs(size: usize) -> usize {
    (8 * 1024 * 1024 / size.max(1)).clamp(200, 4000)
}

/// Sends with a bounded-window retry: the UDP ARQ signals
/// `Backpressure` when the unacked window is full, which on loopback
/// just means the acks are a poll behind.
fn send_windowed<T: ClfTransport + ?Sized>(ep: &T, dst: AsId, msg: Bytes) {
    loop {
        match ep.send(dst, msg.clone()) {
            Ok(()) => return,
            Err(ClfError::Backpressure { .. }) => {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Err(e) => panic!("clf send: {e}"),
        }
    }
}

/// One-way UDP loopback throughput: MB (1e6 bytes) per second from
/// first send to last delivery.
fn run_clf_block(size: usize, msgs: usize) -> f64 {
    let mut endpoints = udp_mesh(2, UdpConfig::default()).expect("udp mesh");
    let rx = endpoints.pop().expect("rx endpoint");
    let tx = endpoints.pop().expect("tx endpoint");
    let msg = Bytes::from(vec![0x5a; size]);

    // Warmup round trip so peer addresses and socket buffers are hot.
    send_windowed(&*tx, AsId(1), msg.clone());
    rx.recv().expect("warmup recv");

    let receiver = std::thread::spawn(move || {
        let mut bytes_in = 0usize;
        for _ in 0..msgs {
            let (_, m) = rx.recv().expect("recv");
            bytes_in += m.len();
        }
        rx.shutdown();
        bytes_in
    });

    let t0 = Instant::now();
    for _ in 0..msgs {
        send_windowed(&*tx, AsId(1), msg.clone());
    }
    let bytes_in = receiver.join().expect("receiver thread");
    let wall_s = t0.elapsed().as_secs_f64();
    tx.shutdown();
    assert_eq!(bytes_in, size * msgs, "short delivery");
    bytes_in as f64 / 1e6 / wall_s
}

fn run_clf_best(size: usize, trials: usize) -> f64 {
    (0..trials)
        .map(|_| run_clf_block(size, clf_msgs(size)))
        .max_by(f64::total_cmp)
        .expect("at least one trial")
}

fn json_codec(label: &str, size: usize, s: &CodecStats) -> String {
    format!(
        "  \"{label}_{size}\": {{ \"encode_ns\": {:.1}, \"decode_ns\": {:.1}, \
         \"ops_per_sec\": {:.1} }}",
        s.encode_ns, s.decode_ns, s.ops_per_sec
    )
}

fn main() {
    let mut out_path = "BENCH_wire.json".to_owned();
    let mut iters: usize = 20_000;
    let mut trials: usize = 3;
    let mut min_clf: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = take("--out"),
            "--iters" => iters = take("--iters").parse().expect("bad --iters"),
            "--trials" => {
                trials = take("--trials")
                    .parse::<usize>()
                    .expect("bad --trials")
                    .max(1)
            }
            "--min-clf" => {
                min_clf = Some(take("--min-clf").parse().expect("bad --min-clf"));
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let mut sections = Vec::new();
    let mut gate_failures = Vec::new();
    for size in SIZES {
        let n = codec_iters(iters, size);
        for (label, id) in [("xdr", CodecId::Xdr), ("jdr", CodecId::Jdr)] {
            let s = run_codec_best(id, size, n, trials);
            println!(
                "{label}_{size}: encode {:.0} ns, decode {:.0} ns, {:.0} roundtrips/s",
                s.encode_ns, s.decode_ns, s.ops_per_sec
            );
            sections.push(json_codec(label, size, &s));
        }
        let mb_s = run_clf_best(size, trials);
        println!("clf_{size}: {mb_s:.1} MB/s one-way loopback");
        if size == GATE_SIZE {
            if let Some(min) = min_clf {
                if mb_s < min {
                    gate_failures.push(format!(
                        "clf_{size}: {mb_s:.1} MB/s under the {min:.1} MB/s floor"
                    ));
                }
            }
        }
        sections.push(format!("  \"clf_{size}\": {{ \"mb_per_sec\": {mb_s:.2} }}"));
    }

    let json = format!(
        "{{\n  \"schema\": \"bench-wire-v1\",\n  \"mode\": \"zero-copy\",\n  \
         \"iters\": {iters},\n  \"trials\": {trials},\n{}\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("min-clf gate: {f}");
        }
        std::process::exit(1);
    }
}

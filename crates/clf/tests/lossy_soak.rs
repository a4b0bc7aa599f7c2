//! Lossy-link soak: sustained traffic over real sockets with seeded
//! datagram-level faults — 5% drop, 1% duplication, 3% reordering —
//! applied to *everything* on the wire (DATA, retransmissions, and
//! acknowledgment frames alike).
//!
//! Where `tests/window_model.rs` proves the protocol logic on a virtual
//! clock, this suite proves the deployed stack: threads, sockets,
//! batched syscalls, the pacer, and the RTO/SACK recovery machinery
//! running together for hundreds of messages. Completion within the
//! (generous) per-message timeout is itself the headline assertion — a
//! wedged window, a lost retransmission, or a dead pacer would hang the
//! receive loop, not just slow it down.

use std::time::{Duration, Instant};

use bytes::Bytes;
use dstampede_clf::{udp_mesh, ClfError, ClfTransport, LossInjection, UdpConfig};
use dstampede_core::AsId;

const MSGS: usize = 250;
const MSG_LEN: usize = 4096;

fn lossy_config() -> UdpConfig {
    UdpConfig {
        loss: LossInjection::Seeded {
            seed: 0x50A6_C0DE ^ 0xDEAD_BEEF, // any fixed seed; failures replay exactly
            drop_permille: 50,
            dup_permille: 10,
            reorder_permille: 30,
        },
        rto: Duration::from_millis(20),
        ..UdpConfig::default()
    }
}

#[test]
fn soak_delivers_everything_in_order_with_bounded_retransmits() {
    let mut endpoints = udp_mesh(2, lossy_config()).expect("mesh");
    let rx = endpoints.pop().unwrap();
    let tx = endpoints.pop().unwrap();

    let receiver = std::thread::spawn(move || {
        let mut out = Vec::with_capacity(MSGS);
        for i in 0..MSGS {
            let (_, msg) = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("receive wedged at message {i}: {e:?}"));
            out.push(msg);
        }
        let stats = rx.stats();
        rx.shutdown();
        (out, stats)
    });

    let t0 = Instant::now();
    for i in 0..MSGS {
        let mut payload = vec![(i % 251) as u8; MSG_LEN];
        payload[0] = (i >> 8) as u8;
        payload[1] = (i & 0xFF) as u8;
        let msg = Bytes::from(payload);
        // Backpressure means the packet window is genuinely full (the
        // lossy link is holding acks back); retry until it drains.
        loop {
            match tx.send(AsId(1), msg.clone()) {
                Ok(()) => break,
                Err(ClfError::Backpressure { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("send {i}: {e:?}"),
            }
        }
    }

    let (received, rx_stats) = receiver.join().expect("receiver thread");
    let wall = t0.elapsed();
    let tx_stats = tx.stats();
    tx.shutdown();

    // Exactly once, in order, uncorrupted.
    assert_eq!(received.len(), MSGS);
    for (i, msg) in received.iter().enumerate() {
        assert_eq!(msg.len(), MSG_LEN, "message {i} truncated");
        assert_eq!(
            (usize::from(msg[0]) << 8) | usize::from(msg[1]),
            i,
            "message {i} out of order"
        );
        assert!(
            msg[2..].iter().all(|&b| b == (i % 251) as u8),
            "message {i} corrupted"
        );
    }

    // The recovery machinery worked rather than idled: a 5% lossy link
    // over ~500+ datagrams forces retransmissions with overwhelming
    // probability...
    assert!(
        tx_stats.retransmits > 0,
        "a 5% lossy link should force retransmissions"
    );
    // ...but SACK keeps them surgical: only holes are re-sent, so the
    // retransmit volume stays a small multiple of the loss rate instead
    // of whole-window go-back-N storms.
    let data_packets = MSGS as u64; // 4 KiB fits one fragment
    let ratio = tx_stats.retransmits as f64 / data_packets as f64;
    assert!(
        ratio <= 0.25,
        "retransmit ratio {ratio:.3} ({} of {} packets) exceeds the hole-only bound",
        tx_stats.retransmits,
        data_packets
    );

    // Goodput floor: even at 5% loss the window must keep moving. The
    // bound is deliberately loose for shared CI machines — the real
    // assertion is that loss degrades throughput instead of stalling it.
    let goodput = (MSGS * MSG_LEN) as f64 / 1e6 / wall.as_secs_f64();
    assert!(
        goodput >= 0.2,
        "goodput {goodput:.2} MB/s below floor (wall {wall:?})"
    );

    // The receiver saw the duplicates the injector manufactured (its
    // dedup path ran) and delivered every byte exactly once regardless.
    assert_eq!(rx_stats.msgs_received, MSGS as u64);
}

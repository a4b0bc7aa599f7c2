//! Packet-level tests of the reliable-UDP CLF protocol: out-of-order
//! arrival, duplication, and interleaved fragments, injected from a raw
//! socket speaking the wire format directly.

use std::net::UdpSocket;
use std::time::Duration;

use bytes::Bytes;
use dstampede_clf::{ClfError, ClfTransport, UdpConfig, UdpEndpoint};
use dstampede_core::AsId;

const MAGIC: u16 = 0xC1F0;
const KIND_DATA: u8 = 0;
const FLAG_EOM: u8 = 1;

fn data_packet(src: AsId, seq: u64, eom: bool, payload: &[u8]) -> Vec<u8> {
    let mut pkt = Vec::new();
    pkt.extend_from_slice(&MAGIC.to_be_bytes());
    pkt.push(KIND_DATA);
    pkt.push(if eom { FLAG_EOM } else { 0 });
    pkt.extend_from_slice(&src.0.to_be_bytes());
    pkt.extend_from_slice(&seq.to_be_bytes());
    pkt.extend_from_slice(payload);
    pkt
}

fn recv_msg(ep: &UdpEndpoint) -> (AsId, Bytes) {
    ep.recv_timeout(Duration::from_secs(5)).expect("delivery")
}

#[test]
fn out_of_order_packets_are_reordered() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();

    // Three single-packet messages sent in the order 2, 0, 1.
    let src = AsId(3);
    raw.send_to(&data_packet(src, 2, true, b"third"), dst)
        .unwrap();
    raw.send_to(&data_packet(src, 0, true, b"first"), dst)
        .unwrap();
    raw.send_to(&data_packet(src, 1, true, b"second"), dst)
        .unwrap();

    assert_eq!(&recv_msg(&ep).1[..], b"first");
    assert_eq!(&recv_msg(&ep).1[..], b"second");
    assert_eq!(&recv_msg(&ep).1[..], b"third");
    ep.shutdown();
}

#[test]
fn duplicates_are_dropped() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();
    let src = AsId(4);

    let pkt = data_packet(src, 0, true, b"once");
    for _ in 0..5 {
        raw.send_to(&pkt, dst).unwrap();
    }
    raw.send_to(&data_packet(src, 1, true, b"twice"), dst)
        .unwrap();

    assert_eq!(&recv_msg(&ep).1[..], b"once");
    assert_eq!(&recv_msg(&ep).1[..], b"twice");
    // Nothing further: the duplicates were discarded, and the counter
    // recorded them.
    assert_eq!(
        ep.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        ClfError::Timeout
    );
    assert!(ep.stats().duplicates_dropped >= 4);
    ep.shutdown();
}

#[test]
fn fragments_reassemble_even_when_scrambled() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();
    let src = AsId(5);

    // One message in three fragments (seq 0,1,2; EOM on the last),
    // delivered 2, 0, 1.
    raw.send_to(&data_packet(src, 2, true, b"C"), dst).unwrap();
    raw.send_to(&data_packet(src, 0, false, b"A"), dst).unwrap();
    raw.send_to(&data_packet(src, 1, false, b"B"), dst).unwrap();

    assert_eq!(&recv_msg(&ep).1[..], b"ABC");
    ep.shutdown();
}

#[test]
fn interleaved_senders_keep_their_own_sequences() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw_a = UdpSocket::bind("127.0.0.1:0").unwrap();
    let raw_b = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();

    // Two peers interleave; each peer's stream must stay ordered
    // independently.
    raw_a
        .send_to(&data_packet(AsId(1), 0, true, b"a0"), dst)
        .unwrap();
    raw_b
        .send_to(&data_packet(AsId(2), 0, true, b"b0"), dst)
        .unwrap();
    raw_a
        .send_to(&data_packet(AsId(1), 1, true, b"a1"), dst)
        .unwrap();
    raw_b
        .send_to(&data_packet(AsId(2), 1, true, b"b1"), dst)
        .unwrap();

    let mut per_peer: std::collections::HashMap<AsId, Vec<Vec<u8>>> = Default::default();
    for _ in 0..4 {
        let (from, msg) = recv_msg(&ep);
        per_peer.entry(from).or_default().push(msg.to_vec());
    }
    assert_eq!(per_peer[&AsId(1)], vec![b"a0".to_vec(), b"a1".to_vec()]);
    assert_eq!(per_peer[&AsId(2)], vec![b"b0".to_vec(), b"b1".to_vec()]);
    ep.shutdown();
}

#[test]
fn stale_retransmission_after_delivery_is_ignored() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    let dst = ep.local_addr();
    let src = AsId(6);

    raw.send_to(&data_packet(src, 0, true, b"live"), dst)
        .unwrap();
    assert_eq!(&recv_msg(&ep).1[..], b"live");
    // A late retransmission of an already-delivered packet must not
    // produce a second message.
    raw.send_to(&data_packet(src, 0, true, b"live"), dst)
        .unwrap();
    assert_eq!(
        ep.recv_timeout(Duration::from_millis(50)).unwrap_err(),
        ClfError::Timeout
    );
    ep.shutdown();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The datagram layout is pinned by fixtures beside the codec ones: a
/// DATA datagram (14-byte header + fragment) as the endpoint emits it,
/// and the SACK datagram (header + XDR `CLF_SACK` body) it answers an
/// out-of-order DATA packet with.
#[test]
fn datagrams_match_golden_fixtures() {
    let ep = UdpEndpoint::bind(AsId(7), UdpConfig::default()).unwrap();
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    ep.add_peer(AsId(3), raw.local_addr().unwrap());
    let mut buf = [0u8; 2048];

    ep.send(AsId(3), Bytes::from_static(b"golden")).unwrap();
    let (n, _) = raw.recv_from(&mut buf).unwrap();
    assert_eq!(
        hex(&buf[..n]),
        include_str!("../../wire/tests/golden/clf_data.hex").trim_end()
    );

    // Seq 2 ahead of 0 and 1: ack_next = 0, bitmap bit 1 set.
    raw.send_to(&data_packet(AsId(3), 2, true, b"x"), ep.local_addr())
        .unwrap();
    let (n, _) = raw.recv_from(&mut buf).unwrap();
    assert_eq!(
        hex(&buf[..n]),
        include_str!("../../wire/tests/golden/clf_sack.hex").trim_end()
    );
    ep.shutdown();
}

/// The full PR 5 transmit pipeline under PR 2 fault injection: frames
/// coalesce into shared datagrams, the adaptive RTO recovers injected
/// losses, and a fault plan adding propagation delay plus duplicated
/// sends still yields every message with first occurrences in order.
#[test]
fn coalesced_adaptive_pipeline_survives_faults() {
    use std::sync::Arc;

    use dstampede_clf::{udp_mesh, FaultPlan, FaultTransport, LossInjection};

    let config = UdpConfig {
        coalesce_delay: Duration::from_millis(2),
        rto: Duration::from_millis(25),
        loss: LossInjection::DropEveryNth(5),
        ..UdpConfig::default()
    };
    let mut mesh = udp_mesh(2, config).unwrap();
    let b = mesh.pop().unwrap();
    let a = mesh.pop().unwrap();

    let plan = FaultPlan::new(0xD57A);
    plan.delay(Duration::from_millis(1));
    plan.duplicate_every_nth(4);
    let sender = FaultTransport::wrap(a.clone() as Arc<dyn ClfTransport>, plan);

    const N: usize = 30;
    for i in 0..N {
        // Mixed sizes: small frames coalesce, the large ones fragment.
        let len = if i % 3 == 0 { 2048 } else { 24 };
        let mut msg = vec![(i % 251) as u8; len];
        msg[0] = i as u8;
        sender.send(AsId(1), Bytes::from(msg)).unwrap();
    }

    // Duplicated sends arrive as genuinely repeated messages (they get
    // fresh sequence numbers), so collect everything the receiver sees
    // and check the deduplicated first-occurrence order.
    let mut seen = Vec::new();
    while seen.len() < N {
        let (from, msg) = b.recv_timeout(Duration::from_secs(10)).expect("delivery");
        assert_eq!(from, AsId(0));
        if !seen.contains(&msg[0]) {
            seen.push(msg[0]);
        }
    }
    assert_eq!(seen, (0..N as u8).collect::<Vec<_>>());

    let stats = a.stats();
    assert!(
        stats.retransmits > 0,
        "loss injection should force the adaptive RTO to retransmit"
    );
    a.shutdown();
    b.shutdown();
}

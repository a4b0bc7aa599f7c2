//! Acceptance tests for the flight recorder's wire path: an end device
//! pulls cluster-wide metric history and health over
//! `HistoryPull`/`HealthPull`, and a peer predating the recorder
//! degrades gracefully.

use std::time::Duration;

use dstampede_client::{render_health_table, render_watch, EndDevice};
use dstampede_core::{ChannelAttrs, GetSpec, Interest, Item, Timestamp};
use dstampede_obs::{HealthState, SeriesField};
use dstampede_runtime::{Cluster, RecorderConfig};
use dstampede_wire::WaitSpec;

fn fast_recorder() -> RecorderConfig {
    RecorderConfig {
        tick: Duration::from_millis(20),
        ..RecorderConfig::default()
    }
}

#[test]
fn cluster_wide_history_and_health_pull() {
    let cluster = Cluster::builder()
        .address_spaces(2)
        .flight_recorder(fast_recorder())
        .build()
        .unwrap();

    // Cross-space workload so both address spaces' series move.
    let owner = cluster.space(0).unwrap();
    let chan = owner.create_channel(None, ChannelAttrs::default());
    let device = EndDevice::attach_c(cluster.listener_addr(1).unwrap(), "recorder-test").unwrap();
    let out = device.connect_channel_out(chan.id()).unwrap();
    let inp = device
        .connect_channel_in(chan.id(), Interest::FromEarliest)
        .unwrap();
    for i in 0..6 {
        out.put(
            Timestamp::new(i),
            Item::from_vec(vec![i as u8; 32]),
            WaitSpec::Forever,
        )
        .unwrap();
        let (t, _) = inp
            .get(GetSpec::Exact(Timestamp::new(i)), WaitSpec::Forever)
            .unwrap();
        inp.consume_until(t).unwrap();
    }

    // Let the recorders tick a few times over the workload's counters.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let all_ticked = (0..2).all(|i| cluster.space(i).unwrap().recorder_ticks() >= 3);
        if all_ticked || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let history = device.history(true).unwrap();
    // Both address spaces' rings arrived in one pull, with multiple
    // samples per series (CLF counters bind at startup on every node).
    for src in ["as-0", "as-1"] {
        let sent = history
            .series_for(src, "clf", "msgs_sent", SeriesField::Value)
            .unwrap_or_else(|| panic!("no clf/msgs_sent window from {src}"));
        assert!(
            sent.samples.len() >= 2,
            "expected several samples from {src}, got {}",
            sent.samples.len()
        );
        // Timestamps ascend and the counter is monotonic.
        for w in sent.samples.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }
    // The puts landed on the channel owner's registry.
    let puts = history
        .series_for("as-0", "stm", "puts", SeriesField::Value)
        .expect("no stm/puts window from the owner");
    assert!(puts.samples.last().unwrap().1 >= 6);

    let health = device.health(true).unwrap();
    // Each address space derives peer + local transport/storage states;
    // a quiet healthy cluster reports all-healthy.
    for (source, subject) in [
        ("as-0", "peer:as-1"),
        ("as-1", "peer:as-0"),
        ("as-0", "clf"),
        ("as-0", "stm"),
        ("as-1", "clf"),
        ("as-1", "stm"),
    ] {
        let entry = health
            .entry(source, subject)
            .unwrap_or_else(|| panic!("no health entry {source}/{subject}"));
        assert_eq!(
            entry.state,
            HealthState::Healthy,
            "{source}/{subject} unexpectedly {} ({})",
            entry.state,
            entry.reason
        );
    }

    // The dashboard renders both views without panicking and mentions
    // the overall state plus the occupancy section.
    let frame = render_watch(&health, &history);
    assert!(frame.starts_with("cluster health: healthy\n"), "{frame}");
    assert!(frame.contains("stm occupancy"), "{frame}");
    let table = render_health_table(&health);
    assert!(table.contains("peer:as-1"));

    device.detach().unwrap();
    cluster.shutdown();
}

//! Batched put/get through the proxy fan-out: the remote path (one
//! `PutBatch`/`GetBatch` frame to the owner) must give the caller the
//! same per-item results as the same operations through a local
//! connection on the owner.

use dstampede_core::{ChannelAttrs, GetSpec, Interest, Item, QueueAttrs, StmError, Timestamp};
use dstampede_runtime::Cluster;
use dstampede_wire::WaitSpec;

fn ts(v: i64) -> Timestamp {
    Timestamp::new(v)
}

/// Runs one channel batch round from the peer space (`remote`) or on the
/// owner itself and returns the observable outcomes (per-item put codes for a fresh + an overlapping
/// batch, then per-spec get results as (ts, payload) or error).
type ChanRound = (
    Vec<Result<(), StmError>>,
    Vec<Result<(), StmError>>,
    Vec<Result<(i64, Vec<u8>), StmError>>,
);

fn channel_batch_round(base_ts: i64, remote: bool) -> ChanRound {
    let cluster = Cluster::builder()
        .address_spaces(2)
        .listeners(false)
        .build()
        .unwrap();
    let owner = cluster.space(0).unwrap();
    let user = cluster.space(u16::from(remote)).unwrap();
    let chan = owner.create_channel(None, ChannelAttrs::default());
    let out = user
        .open_channel(chan.id())
        .unwrap()
        .connect_output()
        .unwrap();
    let inp = user
        .open_channel(chan.id())
        .unwrap()
        .connect_input(Interest::FromEarliest)
        .unwrap();

    let entries: Vec<_> = (0..6)
        .map(|i| {
            (
                ts(base_ts + i),
                Item::from_vec(vec![i as u8; 4]).with_tag(i as u32),
            )
        })
        .collect();
    let first = out
        .put_many(entries.clone(), WaitSpec::NonBlocking)
        .unwrap();
    // Overlap: the last two existing timestamps plus one new one.
    let redo: Vec<_> = (4..7)
        .map(|i| (ts(base_ts + i), Item::from_vec(vec![0xFF; 4])))
        .collect();
    let second = out.put_many(redo, WaitSpec::NonBlocking).unwrap();

    let specs = [
        GetSpec::Exact(ts(base_ts)),
        GetSpec::Exact(ts(base_ts + 5)),
        GetSpec::Exact(ts(base_ts + 99)), // miss
        GetSpec::Earliest,
    ];
    let got = inp
        .get_many(&specs)
        .unwrap()
        .into_iter()
        .map(|r| r.map(|(t, item)| (t.value(), item.payload().to_vec())))
        .collect();
    cluster.shutdown();
    (first, second, got)
}

/// The batched wire path and a local connection produce identical
/// observable results for channels.
#[test]
fn remote_channel_batch_matches_local_connection() {
    let batched = channel_batch_round(100, true);
    let local = channel_batch_round(100, false);
    assert_eq!(batched, local);

    let (first, second, got) = batched;
    assert!(first.iter().all(Result::is_ok));
    assert_eq!(
        second,
        vec![Err(StmError::TsExists), Err(StmError::TsExists), Ok(())]
    );
    assert_eq!(got[0], Ok((100, vec![0u8; 4])));
    assert_eq!(got[1], Ok((105, vec![5u8; 4])));
    assert_eq!(got[2], Err(StmError::Absent));
    assert_eq!(got[3], Ok((100, vec![0u8; 4])));
}

/// Queue batches drain FIFO with exactly-once tickets whether they cross
/// the fabric or not.
fn queue_batch_round(remote: bool) -> Vec<u32> {
    let cluster = Cluster::builder()
        .address_spaces(2)
        .listeners(false)
        .build()
        .unwrap();
    let owner = cluster.space(0).unwrap();
    let user = cluster.space(u16::from(remote)).unwrap();
    let q = owner.create_queue(None, QueueAttrs::default());
    let out = user.open_queue(q.id()).unwrap().connect_output().unwrap();
    let inp = user.open_queue(q.id()).unwrap().connect_input().unwrap();

    let entries: Vec<_> = (0..9)
        .map(|i| (ts(i), Item::from_vec(vec![i as u8]).with_tag(i as u32)))
        .collect();
    for r in out.put_many(entries, WaitSpec::NonBlocking).unwrap() {
        r.unwrap();
    }

    let mut tags = Vec::new();
    // Drain in two uneven slices plus an over-ask, then settle each ticket.
    for want in [4usize, 3, 32] {
        for (_, item, ticket) in inp.dequeue_many(want).unwrap() {
            tags.push(item.tag());
            inp.consume(ticket).unwrap();
        }
    }
    assert!(inp.dequeue_many(8).unwrap().is_empty());
    cluster.shutdown();
    tags
}

#[test]
fn remote_queue_batch_matches_local_connection() {
    let batched = queue_batch_round(true);
    let local = queue_batch_round(false);
    let expected: Vec<u32> = (0..9).collect();
    assert_eq!(batched, expected);
    assert_eq!(local, expected);
}

//! Cluster assembly: multiple address spaces plus listeners.
//!
//! Mirrors the server-program startup of the paper's §4: "the server
//! program creates multiple address spaces N₁ … N_k in the cluster; the
//! server library spawns a listener thread in each address space". The
//! builder picks the CLF backend — in-process channels (one OS process
//! modelling one big SMP) or reliable UDP (separate sockets per address
//! space, modelling distinct cluster nodes).

use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use dstampede_clf::{
    udp_mesh, ClfTransport, FaultPlan, FaultTransport, MemFabric, NetProfile, ShapedTransport,
    UdpConfig,
};
use dstampede_core::{AsId, StmError, StmResult};

use crate::addrspace::AddressSpace;
use crate::failure::{FailureConfig, FailureDetector, RpcConfig};
use crate::listener::{Listener, ListenerConfig};
use crate::placement::Placement;
use crate::reactor::{PeriodicHandle, Reactor, ReactorConfig};
use crate::recorder::{FlightRecorder, RecorderConfig};

/// Which CLF backend interconnects the cluster's address spaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterTransport {
    /// In-process channels ("shared memory within an SMP").
    Mem,
    /// Reliable UDP sockets on loopback ("UDP over a LAN").
    Udp(UdpConfig),
}

/// Configures and builds a [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    address_spaces: u16,
    transport: ClusterTransport,
    listeners: bool,
    profile: NetProfile,
    failure: Option<FailureConfig>,
    rpc: Option<RpcConfig>,
    fault_plan: Option<Arc<FaultPlan>>,
    session_lease: Option<Duration>,
    max_sessions: Option<usize>,
    reactor: Option<ReactorConfig>,
    trace_sampling: u64,
    stm_shards: Option<u32>,
    recorder: Option<RecorderConfig>,
    placement: Placement,
    replication: bool,
}

impl ClusterBuilder {
    /// Starts a builder with one address space, in-process transport, and
    /// listeners enabled.
    #[must_use]
    pub fn new() -> Self {
        ClusterBuilder {
            address_spaces: 1,
            transport: ClusterTransport::Mem,
            listeners: true,
            profile: NetProfile::LOOPBACK,
            failure: None,
            rpc: None,
            fault_plan: None,
            session_lease: None,
            max_sessions: None,
            reactor: None,
            trace_sampling: 0,
            stm_shards: None,
            recorder: Some(RecorderConfig::default()),
            placement: Placement::default(),
            replication: true,
        }
    }

    /// Number of address spaces (≥ 1). `AS 0` hosts the name server.
    #[must_use]
    pub fn address_spaces(mut self, n: u16) -> Self {
        self.address_spaces = n.max(1);
        self
    }

    /// Selects the inter-AS transport backend.
    #[must_use]
    pub fn transport(mut self, t: ClusterTransport) -> Self {
        self.transport = t;
        self
    }

    /// Enables or disables per-address-space TCP listeners for end
    /// devices.
    #[must_use]
    pub fn listeners(mut self, enabled: bool) -> Self {
        self.listeners = enabled;
        self
    }

    /// Applies a latency/bandwidth profile to every inter-AS link
    /// (experiment reproduction; defaults to transparent).
    #[must_use]
    pub fn shaped(mut self, profile: NetProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Runs a heartbeat/lease failure detector in every address space
    /// (off by default). Also aligns the flight recorder's peer-health
    /// lease with the detector's, unless
    /// [`ClusterBuilder::flight_recorder`] overrode it explicitly.
    #[must_use]
    pub fn failure_detection(mut self, config: FailureConfig) -> Self {
        self.failure = Some(config);
        if self.recorder == Some(RecorderConfig::default()) {
            self.recorder = Some(RecorderConfig::for_failure(config));
        }
        self
    }

    /// Overrides the flight recorder's tick and health thresholds
    /// (defaults to [`RecorderConfig::default`]: a 1 s tick, ~5 min of
    /// history per series).
    #[must_use]
    pub fn flight_recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self
    }

    /// Disables the flight recorder (no sampling thread; `HistoryPull`
    /// then reports empty rings and `HealthPull` no subjects).
    #[must_use]
    pub fn flight_recorder_off(mut self) -> Self {
        self.recorder = None;
        self
    }

    /// Overrides the RPC deadline/retry policy of every address space.
    #[must_use]
    pub fn rpc_config(mut self, config: RpcConfig) -> Self {
        self.rpc = Some(config);
        self
    }

    /// Injects faults on every inter-AS link according to `plan`
    /// (chaos testing). The fault layer wraps outside any shaping, so
    /// partitions and crashes apply to the shaped traffic.
    #[must_use]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Applies a session lease to every listener: end-device sessions
    /// silent past the lease are torn down (their connections release).
    #[must_use]
    pub fn session_lease(mut self, lease: Duration) -> Self {
        self.session_lease = Some(lease);
        self
    }

    /// Caps concurrently active surrogate sessions per listener.
    /// Connections arriving at capacity are shed with a clean reject
    /// frame (an error reply the client can back off on) instead of
    /// growing the per-session resource set without bound.
    #[must_use]
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = Some(n.max(1));
        self
    }

    /// Runs the cluster's server hot path on an event-driven reactor:
    /// listeners accept and serve surrogate sessions as cooperatively
    /// scheduled tasks (O(cores) threads instead of a thread per
    /// session), and the background services — failure detector, flight
    /// recorder, replication pump, CLF housekeeping — clock themselves
    /// on the reactor's timer wheel. Off by default (dedicated threads,
    /// the paper's §3.2.2 shape).
    #[must_use]
    pub fn reactor(mut self, config: ReactorConfig) -> Self {
        self.reactor = Some(config);
        self
    }

    /// Enables item-lifecycle tracing in every address space, sampling
    /// every `every_nth` timestamp deterministically (`1` traces
    /// everything, `0` — the default — disables tracing).
    #[must_use]
    pub fn trace_sampling(mut self, every_nth: u64) -> Self {
        self.trace_sampling = every_nth;
        self
    }

    /// Sets the internal storage shard count every address space applies
    /// to containers created without an explicit `shards` attribute
    /// (`stm_shards(1)` serializes each container behind a single lock —
    /// the pre-sharding behaviour, useful as a bench baseline).
    #[must_use]
    pub fn stm_shards(mut self, n: u32) -> Self {
        self.stm_shards = Some(n.max(1));
        self
    }

    /// Where placed creates (end-device `ChannelCreate`/`QueueCreate`)
    /// land: rendezvous-hashed over live members (the default), or
    /// [`Placement::CreatorLocal`] for the paper's creator-locality —
    /// the knob tests use to pin resources.
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Enables or disables follower replication of hosted containers
    /// (on by default; a single-space cluster has no follower and
    /// replicates nothing either way).
    #[must_use]
    pub fn replication(mut self, on: bool) -> Self {
        self.replication = on;
        self
    }

    /// Builds and starts the cluster.
    ///
    /// # Errors
    ///
    /// [`StmError::Protocol`] wrapping socket errors from the UDP backend
    /// or the listeners.
    pub fn build(self) -> StmResult<Cluster> {
        let transports: Vec<Arc<dyn ClfTransport>> = match self.transport {
            ClusterTransport::Mem => {
                let fabric = MemFabric::new();
                (0..self.address_spaces)
                    .map(|i| fabric.endpoint(AsId(i)) as Arc<dyn ClfTransport>)
                    .collect()
            }
            ClusterTransport::Udp(config) => udp_mesh(self.address_spaces, config)
                .map_err(|e| StmError::Protocol(e.to_string()))?
                .into_iter()
                .map(|ep| ep as Arc<dyn ClfTransport>)
                .collect(),
        };

        let spaces: Vec<Arc<AddressSpace>> = transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let t = if self.profile.is_transparent() {
                    t
                } else {
                    ShapedTransport::new(t, self.profile)
                };
                let t = match &self.fault_plan {
                    Some(plan) => {
                        FaultTransport::wrap(t, Arc::clone(plan)) as Arc<dyn ClfTransport>
                    }
                    None => t,
                };
                let space = AddressSpace::start(t, i == 0);
                if let Some(rpc) = self.rpc {
                    space.set_rpc_config(rpc);
                }
                if let Some(shards) = self.stm_shards {
                    space.set_default_stm_shards(shards);
                }
                space.metrics().tracer().set_sampling(self.trace_sampling);
                space
            })
            .collect();

        let reactor = match self.reactor {
            Some(config) => {
                Some(Reactor::start(config).map_err(|e| StmError::Protocol(e.to_string()))?)
            }
            None => None,
        };

        // Declare the full membership so cluster-wide stats pulls know
        // whom to fan out to.
        let members: Vec<AsId> = (0..self.address_spaces).map(AsId).collect();
        for s in &spaces {
            s.set_peers(members.clone());
            s.set_placement(self.placement);
            s.set_replication(self.replication && self.address_spaces > 1);
            if let Some(r) = &reactor {
                s.set_reactor(r.clone());
            }
        }

        let listeners = if self.listeners {
            let config = ListenerConfig {
                session_lease: self.session_lease,
                max_sessions: self.max_sessions,
            };
            spaces
                .iter()
                .map(|s| match &reactor {
                    Some(r) => Listener::start_reactor(Arc::clone(s), config, r),
                    None => Listener::start_with(Arc::clone(s), config),
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| StmError::Protocol(e.to_string()))?
        } else {
            Vec::new()
        };

        let detectors = match self.failure {
            Some(config) => spaces
                .iter()
                .map(|s| match &reactor {
                    Some(r) => FailureDetector::start_reactor(Arc::clone(s), config, r),
                    None => FailureDetector::start(Arc::clone(s), config),
                })
                .collect(),
            None => Vec::new(),
        };

        let recorders = match self.recorder {
            Some(config) => spaces
                .iter()
                .map(|s| match &reactor {
                    Some(r) => FlightRecorder::start_reactor(Arc::clone(s), config, r),
                    None => FlightRecorder::start(Arc::clone(s), config),
                })
                .collect(),
            None => Vec::new(),
        };

        // In reactor mode, the timer wheel also clocks the transport's
        // RTO/pacing housekeeping and publishes the executor's own
        // counters into address space 0's registry so the flight
        // recorder's history rings pick them up as `exec/*` series.
        let mut periodics = Vec::new();
        if let Some(r) = &reactor {
            for s in &spaces {
                let transport = Arc::clone(s.transport());
                periodics.push(r.spawn_periodic(Duration::from_millis(5), move || {
                    transport.housekeep();
                    true
                }));
            }
            periodics.push(publish_exec_metrics(r, &spaces[0]));
        }

        Ok(Cluster {
            spaces,
            listeners,
            detectors,
            recorders,
            reactor,
            periodics,
        })
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder::new()
    }
}

/// Mirrors the reactor's [`crate::reactor::ExecMetrics`] into an obs
/// registry every 250 ms: gauges are set, monotone counters are advanced
/// by their delta since the last publication.
fn publish_exec_metrics(reactor: &Reactor, space: &Arc<AddressSpace>) -> PeriodicHandle {
    use std::sync::atomic::Ordering::Relaxed;
    let m = space.metrics();
    let live = m.gauge("exec", "live_tasks");
    let ready = m.gauge("exec", "ready_depth");
    let spawned = m.counter("exec", "tasks_spawned");
    let wakeups = m.counter("exec", "poll_wakeups");
    let timer_fires = m.counter("exec", "timer_fires");
    let parks = m.counter("exec", "parks");
    let unparks = m.counter("exec", "unparks");
    let offloaded = m.counter("exec", "offloaded");
    let r = reactor.clone();
    let mut last = [0u64; 6];
    reactor.spawn_periodic(Duration::from_millis(250), move || {
        let x = r.metrics();
        live.set(i64::try_from(x.live_tasks.load(Relaxed)).unwrap_or(i64::MAX));
        ready.set(i64::try_from(r.ready_depth()).unwrap_or(i64::MAX));
        let now = [
            x.spawned.load(Relaxed),
            x.poll_wakeups.load(Relaxed),
            x.timer_fires.load(Relaxed),
            x.parks.load(Relaxed),
            x.unparks.load(Relaxed),
            x.offloaded.load(Relaxed),
        ];
        for (counter, (cur, prev)) in [
            &spawned,
            &wakeups,
            &timer_fires,
            &parks,
            &unparks,
            &offloaded,
        ]
        .into_iter()
        .zip(now.iter().zip(last.iter()))
        {
            counter.add(cur.saturating_sub(*prev));
        }
        last = now;
        true
    })
}

/// A running D-Stampede cluster.
pub struct Cluster {
    spaces: Vec<Arc<AddressSpace>>,
    listeners: Vec<Arc<Listener>>,
    detectors: Vec<Arc<FailureDetector>>,
    recorders: Vec<Arc<FlightRecorder>>,
    reactor: Option<Reactor>,
    periodics: Vec<PeriodicHandle>,
}

impl Cluster {
    /// Starts building a cluster.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Convenience: an in-process cluster with `n` address spaces and
    /// listeners on each.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::build`].
    pub fn in_process(n: u16) -> StmResult<Cluster> {
        Cluster::builder().address_spaces(n).build()
    }

    /// Number of address spaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// Whether the cluster has no address spaces (never true for built
    /// clusters).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }

    /// The `i`-th address space.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] for out-of-range indices.
    pub fn space(&self, i: u16) -> StmResult<Arc<AddressSpace>> {
        self.spaces
            .get(usize::from(i))
            .cloned()
            .ok_or(StmError::NoSuchResource)
    }

    /// Every address space.
    #[must_use]
    pub fn spaces(&self) -> &[Arc<AddressSpace>] {
        &self.spaces
    }

    /// The TCP address end devices use to join via address space `i`.
    ///
    /// # Errors
    ///
    /// [`StmError::NoSuchResource`] when listeners are disabled or the
    /// index is out of range.
    pub fn listener_addr(&self, i: u16) -> StmResult<SocketAddr> {
        self.listeners
            .get(usize::from(i))
            .map(|l| l.addr())
            .ok_or(StmError::NoSuchResource)
    }

    /// The `i`-th listener.
    ///
    /// # Errors
    ///
    /// As [`Cluster::listener_addr`].
    pub fn listener(&self, i: u16) -> StmResult<Arc<Listener>> {
        self.listeners
            .get(usize::from(i))
            .cloned()
            .ok_or(StmError::NoSuchResource)
    }

    /// Aggregated garbage-collection accounting across every address
    /// space (items/bytes reclaimed, epochs recorded at the aggregator).
    #[must_use]
    pub fn gc_summary(&self) -> dstampede_core::gc::GcSummary {
        self.spaces
            .iter()
            .map(|s| s.gc_local_summary())
            .fold(dstampede_core::gc::GcSummary::default(), |acc, s| {
                acc.merge(s)
            })
    }

    /// A merged telemetry snapshot over every address space (read
    /// directly, no RPC — for tooling co-located with the cluster; remote
    /// tooling uses a `StatsPull` request instead).
    #[must_use]
    pub fn stats_snapshot(&self) -> dstampede_obs::Snapshot {
        let mut merged = dstampede_obs::Snapshot::default();
        for s in &self.spaces {
            merged.merge(&s.stats_snapshot());
        }
        merged
    }

    /// A merged trace dump over every address space (read directly, no
    /// RPC — for tooling co-located with the cluster; remote tooling uses
    /// a `TracePull` request instead).
    #[must_use]
    pub fn trace_dump(&self) -> dstampede_obs::TraceDump {
        let mut merged = dstampede_obs::TraceDump::default();
        for s in &self.spaces {
            merged.merge(&s.trace_dump());
        }
        merged
    }

    /// A merged metric history over every address space (read directly,
    /// no RPC — for tooling co-located with the cluster; remote tooling
    /// uses a `HistoryPull` request instead).
    #[must_use]
    pub fn history_dump(&self) -> dstampede_obs::HistoryDump {
        let mut merged = dstampede_obs::HistoryDump::default();
        for s in &self.spaces {
            merged.merge(&s.history_dump());
        }
        merged
    }

    /// A merged health report over every address space (read directly,
    /// no RPC — for tooling co-located with the cluster; remote tooling
    /// uses a `HealthPull` request instead).
    #[must_use]
    pub fn health_report(&self) -> dstampede_obs::HealthReport {
        let mut merged = dstampede_obs::HealthReport::default();
        for s in &self.spaces {
            merged.merge(&s.health_report());
        }
        merged
    }

    /// The event-driven runtime, when built with
    /// [`ClusterBuilder::reactor`].
    #[must_use]
    pub fn reactor(&self) -> Option<&Reactor> {
        self.reactor.as_ref()
    }

    /// Stops flight recorders, failure detectors, and listeners, then
    /// shuts every address space down (and, in reactor mode, the
    /// executor last, joining its workers).
    pub fn shutdown(&self) {
        for p in &self.periodics {
            p.cancel();
        }
        for r in &self.recorders {
            r.stop();
        }
        for d in &self.detectors {
            d.stop();
        }
        for l in &self.listeners {
            l.shutdown();
        }
        for s in &self.spaces {
            s.shutdown();
        }
        if let Some(r) = &self.reactor {
            r.shutdown();
        }
    }
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("address_spaces", &self.spaces.len())
            .field("listeners", &self.listeners.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstampede_core::{ChannelAttrs, GetSpec, Interest, Item, Timestamp};
    use dstampede_wire::WaitSpec;

    #[test]
    fn in_process_cluster_basics() {
        let cluster = Cluster::in_process(3).unwrap();
        assert_eq!(cluster.len(), 3);
        assert!(!cluster.is_empty());
        assert!(cluster.space(0).unwrap().nameserver().is_some());
        assert!(cluster.space(1).unwrap().nameserver().is_none());
        assert!(cluster.space(9).is_err());
        assert!(cluster.listener_addr(0).is_ok());
        cluster.shutdown();
    }

    /// Shutdown wakes every service thread instead of waiting out its
    /// sleep: the default cluster runs a 1 s flight-recorder tick.
    #[test]
    fn default_cluster_builds_and_shuts_down_promptly() {
        let t0 = std::time::Instant::now();
        let cluster = Cluster::in_process(2).unwrap();
        cluster.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "build + shutdown took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn cross_space_stream_within_cluster() {
        let cluster = Cluster::in_process(2).unwrap();
        let owner = cluster.space(0).unwrap();
        let peer = cluster.space(1).unwrap();
        let chan = owner.create_channel(None, ChannelAttrs::default());
        let out = owner
            .open_channel(chan.id())
            .unwrap()
            .connect_output()
            .unwrap();
        let inp = peer
            .open_channel(chan.id())
            .unwrap()
            .connect_input(Interest::FromEarliest)
            .unwrap();
        for i in 0..10 {
            out.put(
                Timestamp::new(i),
                Item::from_vec(vec![i as u8]),
                WaitSpec::Forever,
            )
            .unwrap();
        }
        for i in 0..10 {
            let (ts, item) = inp.get_blocking(GetSpec::Exact(Timestamp::new(i))).unwrap();
            assert_eq!(ts.value(), i);
            assert_eq!(item.payload(), &[i as u8]);
            inp.consume_until(ts).unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn udp_cluster_cross_space_stream() {
        let cluster = Cluster::builder()
            .address_spaces(2)
            .transport(ClusterTransport::Udp(UdpConfig::default()))
            .listeners(false)
            .build()
            .unwrap();
        let owner = cluster.space(0).unwrap();
        let peer = cluster.space(1).unwrap();
        let chan = owner.create_channel(None, ChannelAttrs::default());
        let out = owner
            .open_channel(chan.id())
            .unwrap()
            .connect_output()
            .unwrap();
        let inp = peer
            .open_channel(chan.id())
            .unwrap()
            .connect_input(Interest::FromEarliest)
            .unwrap();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        out.put(
            Timestamp::new(1),
            Item::from_vec(payload.clone()),
            WaitSpec::Forever,
        )
        .unwrap();
        let (_, item) = inp.get_blocking(GetSpec::Exact(Timestamp::new(1))).unwrap();
        assert_eq!(item.payload(), &payload[..]);
        cluster.shutdown();
    }

    #[test]
    fn gc_summary_aggregates_across_spaces() {
        let cluster = Cluster::builder()
            .address_spaces(2)
            .listeners(false)
            .build()
            .unwrap();
        for i in 0..2u16 {
            let space = cluster.space(i).unwrap();
            let chan = space.create_channel(None, ChannelAttrs::default());
            let out = space
                .open_channel(chan.id())
                .unwrap()
                .connect_output()
                .unwrap();
            let inp = space
                .open_channel(chan.id())
                .unwrap()
                .connect_input(Interest::FromEarliest)
                .unwrap();
            out.put(
                Timestamp::new(1),
                Item::from_vec(vec![0; 10]),
                WaitSpec::Forever,
            )
            .unwrap();
            inp.consume_until(Timestamp::new(1)).unwrap();
        }
        let summary = cluster.gc_summary();
        assert_eq!(summary.items, 2);
        assert_eq!(summary.bytes, 20);
        cluster.shutdown();
    }

    #[test]
    fn builder_without_listeners() {
        let cluster = Cluster::builder()
            .address_spaces(1)
            .listeners(false)
            .build()
            .unwrap();
        assert!(cluster.listener_addr(0).is_err());
        cluster.shutdown();
    }
}

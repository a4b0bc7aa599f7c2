//! The cluster flight recorder: periodic metric sampling and health
//! derivation.
//!
//! Every address space can run one [`FlightRecorder`] — a background
//! thread that, on a fixed tick, folds the address space's registry
//! into its [`dstampede_obs::HistoryRecorder`] (fixed-capacity
//! delta-encoded rings, ~5 minutes at the default tick) and feeds the
//! [`dstampede_obs::HealthEngine`] with raw states derived from
//! signals the runtime already produces: peer lease age and death
//! declarations from the failure detector, CLF retransmit and
//! backpressure deltas, and STM container occupancy. The recorded
//! windows and derived states travel cluster-wide over
//! `HistoryPull`/`HealthPull` (see
//! [`crate::addrspace::AddressSpace::history_cluster_dump`]).
//!
//! The thread mirrors the [`crate::failure::FailureDetector`]
//! lifecycle: stoppable, joined on stop, exits on its own when the
//! address space shuts down, and stopped by drop.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dstampede_obs::HealthPolicy;

use crate::addrspace::AddressSpace;
use crate::failure::FailureConfig;

/// Tuning for the flight recorder's sampling tick and health
/// thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Interval between samples. The default (1 s) retains about five
    /// minutes per series at the default ring capacity.
    pub tick: Duration,
    /// Peer-health lease: a peer silent longer than this is `Suspect`,
    /// longer than half of it `Degraded`. Align it with the failure
    /// detector's lease so `Suspect` precedes the `Dead` declaration.
    pub lease: Duration,
    /// STM occupancy (channel + queue items) above which the local
    /// `stm` subject degrades.
    pub occupancy_watermark: i64,
    /// CLF retransmits per tick at or above which the local `clf`
    /// subject degrades (any backpressure rejection also degrades it).
    pub retransmit_threshold: u64,
    /// Buffered-but-unacked replication events above which the local
    /// `repl` subject degrades (only observed once this space has
    /// replicated at least one put).
    pub replication_lag_watermark: i64,
    /// Abnormal session teardowns (dirty + lease-expired) per tick at
    /// or above which the local `sessions` subject degrades — the churn
    /// signal: a burst of crashing or silently vanishing end devices.
    /// Clean detaches never degrade the subject.
    pub session_churn_threshold: u64,
    /// Hysteresis applied to every derived state.
    pub policy: HealthPolicy,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            tick: Duration::from_secs(1),
            lease: FailureConfig::default().lease(),
            occupancy_watermark: 1024,
            retransmit_threshold: 8,
            replication_lag_watermark: 1024,
            session_churn_threshold: 16,
            policy: HealthPolicy::default(),
        }
    }
}

impl RecorderConfig {
    /// A config whose peer thresholds follow a failure detector's
    /// lease.
    #[must_use]
    pub fn for_failure(failure: FailureConfig) -> Self {
        RecorderConfig {
            lease: failure.lease(),
            ..RecorderConfig::default()
        }
    }
}

/// Per-address-space sampling thread.
///
/// Each tick calls [`AddressSpace::record_tick`], which appends one
/// sample per live series to the history rings and re-derives every
/// health subject. Stopping the recorder (or dropping it) ends the
/// thread; recorded history stays readable.
pub struct FlightRecorder {
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    periodic: Mutex<Option<crate::reactor::PeriodicHandle>>,
}

impl FlightRecorder {
    /// Starts the recorder thread for an address space.
    #[must_use]
    pub fn start(space: Arc<AddressSpace>, config: RecorderConfig) -> Arc<Self> {
        space.set_health_policy(config.policy);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("as-{}-recorder", space.id().0))
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) && !space.is_down() {
                    space.record_tick(&config);
                    // Wait out the tick parked, so `stop` can end the
                    // wait with an unpark instead of joining a sleeper.
                    let deadline = Instant::now() + config.tick;
                    while !thread_stop.load(Ordering::Acquire) {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        std::thread::park_timeout(deadline - now);
                    }
                }
            })
            .expect("spawning the flight recorder thread failed");
        Arc::new(FlightRecorder {
            stop,
            thread: Mutex::new(Some(handle)),
            periodic: Mutex::new(None),
        })
    }

    /// Starts the recorder as a periodic reactor task: the sampling tick
    /// becomes one timer-wheel entry instead of a dedicated sleeping
    /// thread.
    #[must_use]
    pub fn start_reactor(
        space: Arc<AddressSpace>,
        config: RecorderConfig,
        reactor: &crate::reactor::Reactor,
    ) -> Arc<Self> {
        space.set_health_policy(config.policy);
        let stop = Arc::new(AtomicBool::new(false));
        let task_stop = Arc::clone(&stop);
        let handle = reactor.spawn_periodic(config.tick, move || {
            if task_stop.load(Ordering::Acquire) || space.is_down() {
                return false;
            }
            space.record_tick(&config);
            true
        });
        Arc::new(FlightRecorder {
            stop,
            thread: Mutex::new(None),
            periodic: Mutex::new(Some(handle)),
        })
    }

    /// Stops the recorder. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.thread.lock().take() {
            h.thread().unpark();
            let _ = h.join();
        }
        if let Some(p) = self.periodic.lock().take() {
            p.cancel();
        }
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.stop();
    }
}

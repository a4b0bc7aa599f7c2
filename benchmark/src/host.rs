//! Host fingerprint, the run's provenance header, and the `/proc` readers
//! behind `threads_steady`, `ctxsw_per_item` and `cpu_us_per_item`.

use std::fs;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::Json;

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_owned())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_owned())
}

/// What a reader needs to judge whether two outputs are comparable. A
/// number without it does not count as measured (ROADMAP aim 1).
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_owned();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("cores", Json::Int(cores as i64)),
        ("cpu", Json::str(cpu_model().unwrap_or_else(unknown))),
        (
            "kernel",
            Json::str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "governor",
            Json::str(
                read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                    .unwrap_or_else(|| "unreadable".to_owned()),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::str(
                command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
        ("network", Json::str("loopback")),
    ])
}

/// The two halves the host's CPUs are split into, as `taskset` lists.
#[derive(Debug)]
struct Split {
    cluster: String,
    load: String,
}

static SPLIT: OnceLock<Option<Split>> = OnceLock::new();

/// Restricts the calling thread to `cpus`. There is no way to do this from
/// safe Rust without a crate the build does not have, so `taskset` does it.
fn pin_current_thread(cpus: &str) -> bool {
    let Some(tid) = fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()))
    else {
        return false;
    };
    Command::new("taskset")
        .args(["-cp", cpus, &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Splits the CPUs between the system under test and the load generator,
/// and puts the calling (main) thread — and with it every thread a cluster
/// spawns from it — on the system's half. Returns what was done, for the
/// provenance header.
///
/// Why: left to the scheduler, the threads of one serial trip end up either
/// all on one core or spread over both, by the luck of where each was
/// first placed, and a trip through threads that share a core takes a
/// quarter to a half of the time (no cross-core wake-ups). `local_64` read
/// 20 us in 5 rounds of 12 and 90 us in the other 7. An end device is not
/// on the cluster's cores; giving the load generator its own keeps its
/// scheduling out of the measurement and makes rounds repeat.
pub fn split_cpus() -> String {
    let split = SPLIT.get_or_init(|| {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        if n < 2 {
            return None;
        }
        let split = Split {
            cluster: format!("0-{}", n / 2 - 1),
            load: format!("{}-{}", n / 2, n - 1),
        };
        pin_current_thread(&split.cluster).then_some(split)
    });
    match split {
        Some(s) => format!(
            "cluster threads on cpus {}, load generator on cpus {} (taskset)",
            s.cluster, s.load
        ),
        None => "unpinned (one cpu, or taskset unavailable): expect two scheduling modes".into(),
    }
}

/// Moves the calling thread to the load generator's CPUs.
pub fn pin_to_load() {
    if let Some(Some(s)) = SPLIT.get() {
        pin_current_thread(&s.load);
    }
}

/// Process-wide scheduler counters, summed over every live thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub threads: u64,
    /// Voluntary context switches: each is a thread that went to sleep
    /// waiting, so their rate per item counts the wake-ups on the path.
    pub voluntary_switches: u64,
    /// On-CPU time in nanoseconds (`schedstat`, not the 10 ms `stat` ticks).
    pub cpu_ns: u64,
}

impl ProcSample {
    /// Threads that exit between two samples take their counts with them;
    /// the samples bracket a steady state in which none does.
    pub fn take() -> ProcSample {
        let mut s = ProcSample::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return s;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            s.threads += 1;
            if let Ok(status) = fs::read_to_string(dir.join("status")) {
                s.voluntary_switches += status
                    .lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .unwrap_or(0);
            }
            if let Ok(sched) = fs::read_to_string(dir.join("schedstat")) {
                s.cpu_ns += sched
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        s
    }
}

/// The one monotonic clock every stamp in a run is read from.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Share of the host's CPU time the hypervisor gave to someone else since
/// the meter started (`steal` in `/proc/stat`). A run measured while the
/// VM was being starved is not comparable with one that was not; the
/// share is printed with every result so such a run can be told apart.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    /// `(stolen, all)` ticks so far.
    fn read() -> Option<(u64, u64)> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal; guest time is
        // already inside user.
        (ticks.len() >= 8).then(|| (ticks[7], ticks[..8].iter().sum()))
    }

    pub fn start() -> StealMeter {
        StealMeter {
            start: Self::read(),
        }
    }

    pub fn share(&self) -> Option<f64> {
        let ((s0, t0), (s1, t1)) = (self.start?, Self::read()?);
        (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
    }
}

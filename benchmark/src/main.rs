//! The repo benchmark: one item's trip through the octopus — put on one
//! end device, got on another — timed end to end (`run`) and layer by
//! layer (`layers`), with `check-repeat` to show two sets of runs of the
//! same build agree. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod host;
mod ledger;
mod probes;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use crate::stats::{median, quantile, Json, Summary};
use crate::workload::{Payloads, Round, RoundCfg, Tally, Workload, WORKLOADS};

/// An end-to-end metric: what a user of the system would see. A run's
/// value is the median of the values its rounds measured (`setup_s`: its
/// rounds and idle cycles; `teardown_s`: see `WorkloadRuns::value`).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the first run's value by which the second may be worse.
    pub bound: f64,
}

/// `BENCHMARK.json` lists the same four with the same bounds. The trip's
/// two are 20 %, not the 10 % ISSUE 11 asked for: over ten seeds their
/// inter-quartile range was 3 % to 12 % of the median on this shared
/// 2-vCPU host (README, "Repeatability"), and a bound should be three
/// times the spread. `failed_share` is printed beside them and must be 0; it is not a bounded
/// metric because a share of a zero median bounds nothing — any failure
/// fails the command instead.
pub const END_TO_END: [Metric; 4] = [
    Metric {
        name: "item_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.20,
    },
    Metric {
        name: "items_per_s",
        unit: "items/s",
        lower_is_better: false,
        bound: 0.20,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "teardown_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.10,
    },
];

/// Measured seconds per round unless told otherwise: what the
/// `run_seconds` of `BENCHMARK.json` comes to over five rounds, so every
/// command measures by the same protocol.
const DEFAULT_SECS: f64 = 1.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Layers,
    CheckRepeat,
}

#[derive(Debug)]
struct Opts {
    command: Command,
    /// Restrict to one workload; also selects the one-line result the
    /// benchmark contract reads.
    only: Option<&'static Workload>,
    seed: u64,
    rounds: usize,
    /// Measured seconds per round.
    secs: f64,
    smoke: bool,
    /// Host fingerprint, taken before the CPUs are split.
    fingerprint: Json,
    /// What `host::split_cpus` did.
    placement: String,
}

const USAGE: &str =
    "usage: dstampede-benchmark [run|layers|check-repeat] [--workload NAME | --only NAME] \
[--seed N] [--rounds N] [--secs S-per-round | --seconds S-per-workload] [--trace 0|1] [--smoke]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut command = None;
    let mut only = None;
    let mut seed = 42u64;
    let mut rounds = None;
    let mut secs = None;
    let mut seconds = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let num = |name: &str, v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{name}: not a number: {v}"))
        };
        match arg.as_str() {
            "run" => command = Some(Command::Run),
            "layers" => command = Some(Command::Layers),
            "check-repeat" => command = Some(Command::CheckRepeat),
            "--workload" | "--only" => {
                let name = value(arg)?;
                only = Some(workload::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value(arg)?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--rounds" => rounds = Some(num(arg, value(arg)?)?.max(1.0) as usize),
            "--secs" => secs = Some(num(arg, value(arg)?)?),
            "--seconds" => seconds = Some(num(arg, value(arg)?)?),
            "--trace" => {
                // Only chooses the command when none is named.
                let traced = value(arg)? == "1";
                command = command.or(Some(if traced {
                    Command::Layers
                } else {
                    Command::Run
                }));
            }
            "--smoke" => smoke = true,
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let command = command.unwrap_or(Command::Run);
    let rounds = if smoke { 1 } else { rounds.unwrap_or(5) };
    // `--seconds` is what one workload measures in all; it is split over
    // the rounds, never the other way round (five fresh clusters repeat
    // where one long run does not).
    let secs = if smoke {
        // Not a whole second: warm-up plus window would end on a tick of
        // the flight recorders and make every teardown wait a full one.
        0.9
    } else {
        secs.or(seconds.map(|s: f64| s / 5.0))
            .unwrap_or(DEFAULT_SECS)
    };
    if !(0.25..=60.0).contains(&secs) {
        return Err(format!("a round measures 0.25 to 60 s, not {secs}"));
    }
    let fingerprint = host::fingerprint();
    Ok(Opts {
        command,
        only,
        seed,
        rounds,
        secs,
        smoke,
        fingerprint,
        placement: host::split_cpus(),
    })
}

impl Opts {
    fn workloads(&self) -> Vec<&'static Workload> {
        match self.only {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        }
    }

    /// The selected workloads, each with its seeded payload generator.
    fn inputs(&self) -> Vec<(&'static Workload, Payloads)> {
        self.workloads()
            .into_iter()
            .map(|w| (w, Payloads::new(self.seed, w.size)))
            .collect()
    }

    fn round_cfg(&self, traced: bool, sample_proc: bool) -> RoundCfg {
        RoundCfg {
            // As long as the window. With the CPUs split a second would
            // do; without (`taskset` missing), a fresh cluster's threads
            // sit for up to 2.75 s on the core that spawned them, where a
            // trip runs ~2.5x faster than once the scheduler has spread
            // them. See README, finding 1.
            warmup: Duration::from_secs_f64(self.secs),
            measure: Duration::from_secs_f64(self.secs),
            traced,
            sample_proc,
        }
    }

    fn provenance(&self) -> Json {
        let Json::Obj(mut fields) = self.fingerprint.clone() else {
            unreachable!("the fingerprint is an object");
        };
        let threads = self
            .workloads()
            .iter()
            .map(|w| w.threads())
            .max()
            .unwrap_or(1);
        fields.extend([
            ("placement".to_owned(), Json::str(self.placement.as_str())),
            ("seed".to_owned(), Json::Int(self.seed as i64)),
            ("rounds".to_owned(), Json::Int(self.rounds as i64)),
            ("secs_per_round".to_owned(), Json::Num(self.secs)),
            ("warmup_secs".to_owned(), Json::Num(self.secs)),
            ("idle_cycles".to_owned(), Json::Int(self.idle_cycles() as i64)),
            (
                "load".to_owned(),
                Json::str(format!(
                    "closed-loop, {threads} thread(s) / 2 sessions, a fresh 2-address-space UDP-CLF cluster per round, in-process, host loopback"
                )),
            ),
        ]);
        Json::Obj(fields)
    }

    /// Set-up-and-teardown cycles after a workload's rounds. Each costs two
    /// seconds; `teardown_s` is the slower of them.
    fn idle_cycles(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }
}

/// What one round contributes to each end-to-end metric, plus diagnostics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub item_p50_us: f64,
    pub item_p99_us: f64,
    /// Reported only from 10 000 samples up, where ten lie beyond it.
    pub item_p999_us: Option<f64>,
    pub samples: usize,
    pub items_per_s: f64,
    pub setup_s: f64,
    /// Teardown after the round's load: T or T + 1 s by a coin toss (see
    /// `workload::idle_cycle`), so a diagnostic, not `teardown_s`.
    pub loaded_teardown_s: f64,
}

impl RoundStats {
    fn of(round: &Round) -> RoundStats {
        let mut lat = round.lat_us.clone();
        RoundStats {
            item_p50_us: quantile(&mut lat, 0.5),
            item_p99_us: quantile(&mut lat, 0.99),
            item_p999_us: (lat.len() >= 10_000).then(|| quantile(&mut lat, 0.999)),
            samples: lat.len(),
            items_per_s: median(&mut round.slice_rates.clone()),
            setup_s: round.setup_s,
            loaded_teardown_s: round.teardown_s,
        }
    }
}

/// One workload's rounds and idle cycles of one set.
#[derive(Debug)]
pub struct WorkloadRuns {
    pub workload: &'static Workload,
    pub rounds: Vec<RoundStats>,
    /// `(setup_s, teardown_s)` of every idle cycle.
    pub idle: Vec<(f64, f64)>,
    pub tally: Tally,
}

impl WorkloadRuns {
    /// Every value the set measured of `metric`.
    fn values(&self, metric: &str) -> Vec<f64> {
        let rounds = self.rounds.iter();
        match metric {
            "item_p50_us" => rounds.map(|r| r.item_p50_us).collect(),
            "items_per_s" => rounds.map(|r| r.items_per_s).collect(),
            "setup_s" => rounds
                .map(|r| r.setup_s)
                .chain(self.idle.iter().map(|c| c.0))
                .collect(),
            "teardown_s" => self.idle.iter().map(|c| c.1).collect(),
            other => unreachable!("no end-to-end metric {other}"),
        }
    }

    pub fn summary(&self, metric: &str) -> Summary {
        Summary::of(&self.values(metric))
    }

    /// The set's value of `metric`: the median of what it measured —
    /// except `teardown_s`, the slower of the idle teardowns. An idle
    /// teardown is 2.03 s when the second flight recorder wakes before
    /// `Cluster::shutdown` has joined the first and set the second's stop
    /// flag (48 of 50 on this host) and 1.03 s when it loses that race;
    /// the slower of two is the 2.03 s mode 998 times in 1000.
    pub fn value(&self, metric: &str) -> f64 {
        let s = self.summary(metric);
        if metric == "teardown_s" {
            s.max
        } else {
            s.median
        }
    }

    fn failed_share(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }
}

/// One full set: `rounds` rounds of every selected workload, interleaved
/// across workloads so that drift on the host lands on all of them alike,
/// then the idle cycles.
fn run_set(
    opts: &Opts,
    inputs: &[(&'static Workload, Payloads)],
) -> Result<Vec<WorkloadRuns>, String> {
    let mut runs: Vec<(WorkloadRuns, &Payloads)> = inputs
        .iter()
        .map(|(workload, gen)| {
            let run = WorkloadRuns {
                workload,
                rounds: Vec::new(),
                idle: Vec::new(),
                tally: Tally::default(),
            };
            (run, gen)
        })
        .collect();
    let cfg = opts.round_cfg(false, false);
    for round in 0..opts.rounds {
        for (run, gen) in &mut runs {
            let w = run.workload;
            let r = workload::run_round(w, gen, &cfg)
                .map_err(|e| format!("{} round {}: {e}", w.name, round + 1))?;
            let st = RoundStats::of(&r);
            eprintln!(
                "  {:<10} round {}: p50 {:>8.1} us  p99 {:>8.1} us  {:>9.0} items/s  setup {:.4} s  loaded teardown {:.3} s  failed {}/{}",
                w.name,
                round + 1,
                st.item_p50_us,
                st.item_p99_us,
                st.items_per_s,
                st.setup_s,
                st.loaded_teardown_s,
                r.tally.failed,
                r.tally.attempted
            );
            run.rounds.push(st);
            run.tally.merge(r.tally);
        }
    }
    for (run, gen) in &mut runs {
        let w = run.workload;
        for _ in 0..opts.idle_cycles() {
            let c =
                workload::idle_cycle(w, gen).map_err(|e| format!("{} idle cycle: {e}", w.name))?;
            eprintln!(
                "  {:<10} idle cycle: setup {:.4} s  teardown {:.4} s",
                w.name, c.setup_s, c.teardown_s
            );
            run.idle.push((c.setup_s, c.teardown_s));
            run.tally.merge(c.tally);
        }
    }
    Ok(runs.into_iter().map(|(run, _)| run).collect())
}

fn print_runs(runs: &[WorkloadRuns]) {
    println!(
        "{:<11} {:<14} {:<8} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "unit", "value", "q1", "q3", "samples"
    );
    for run in runs {
        let name = run.workload.name;
        for m in &END_TO_END {
            let s = run.summary(m.name);
            println!(
                "{name:<11} {:<14} {:<8} {:>12.4} {:>12.4} {:>12.4} {:>8}",
                m.name,
                m.unit,
                run.value(m.name),
                s.q1,
                s.q3,
                s.n
            );
        }
        println!(
            "{name:<11} {:<14} {:<8} {:>12.6}   ({} failed of {} operations attempted)",
            "failed_share",
            "ratio",
            run.failed_share(),
            run.tally.failed,
            run.tally.attempted
        );
        // Diagnostics, not end-to-end metrics: on a shared host the tail
        // has not been shown to repeat within a tenth, and a loaded
        // teardown is T or T + 1 s by a coin toss.
        let samples: usize = run.rounds.iter().map(|r| r.samples).sum();
        let mut p99: Vec<f64> = run.rounds.iter().map(|r| r.item_p99_us).collect();
        print!(
            "{name:<11} {:<14} {:<8} {:>12.4}   (diagnostic; {samples} samples)",
            "item_p99_us",
            "us",
            median(&mut p99)
        );
        let mut p999: Vec<f64> = run.rounds.iter().filter_map(|r| r.item_p999_us).collect();
        if !p999.is_empty() {
            print!("   item_p999_us {:.4}", median(&mut p999));
        }
        println!();
        let loaded: Vec<String> = run
            .rounds
            .iter()
            .map(|r| format!("{:.3}", r.loaded_teardown_s))
            .collect();
        println!(
            "{name:<11} {:<14} {:<8} {}   (diagnostic; each round's teardown under load)",
            "loaded_teardown_s",
            "s",
            loaded.join(" ")
        );
        for note in &run.tally.notes {
            println!("{name:<11} FAILED: {note}");
        }
    }
}

/// Each workload's end-to-end metrics as `{"value": v, "unit": u}`.
fn runs_json(runs: &[WorkloadRuns]) -> Vec<(&'static str, Json)> {
    runs.iter()
        .map(|run| {
            let metrics = END_TO_END
                .iter()
                .map(|m| (m.name, Json::metric(run.value(m.name), m.unit)));
            (run.workload.name, Json::obj(metrics))
        })
        .collect()
}

/// The last line of `run` and `layers`. For one workload it is the object
/// the benchmark contract reads; for all of them a summary that claims
/// nothing.
fn result_line(opts: &Opts, tally: &Tally, mut per_workload: Vec<(&'static str, Json)>) -> Json {
    let head = [
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted.max(1) as i64)),
        ("failed", Json::Int(tally.failed as i64)),
    ];
    let tail = match (opts.only, per_workload.pop()) {
        (Some(_), Some((_, metrics))) => vec![("metrics", metrics)],
        (_, last) => vec![
            ("provenance", opts.provenance()),
            ("workloads", Json::obj(per_workload.into_iter().chain(last))),
            ("claim", Json::Null),
        ],
    };
    Json::obj(head.into_iter().chain(tail))
}

fn exit_for(tally: &Tally) -> ExitCode {
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} operations failed", tally.failed, tally.attempted);
        ExitCode::FAILURE
    }
}

fn total_tally<'a>(runs: impl IntoIterator<Item = &'a WorkloadRuns>) -> Tally {
    let mut t = Tally::default();
    for run in runs {
        t.merge(run.tally.clone());
    }
    t
}

fn cmd_run(opts: &Opts) -> Result<(Json, Tally), String> {
    let runs = run_set(opts, &opts.inputs())?;
    print_runs(&runs);
    let tally = total_tally(&runs);
    Ok((result_line(opts, &tally, runs_json(&runs)), tally))
}

/// Two full sets back to back on the same build: do their values agree
/// within each metric's own bound?
fn cmd_check_repeat(opts: &Opts) -> Result<(Json, Tally), String> {
    let inputs = opts.inputs();
    eprintln!("set 1");
    let first = run_set(opts, &inputs)?;
    eprintln!("set 2");
    let second = run_set(opts, &inputs)?;
    println!(
        "{:<11} {:<12} {:>12} {:>12} {:>8} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "value_1", "value_2", "iqr_1", "iqr_2", "diff", "bound"
    );
    let mut disagreements = 0u64;
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (sa, sb) = (a.summary(m.name), b.summary(m.name));
            let (va, vb) = (a.value(m.name), b.value(m.name));
            let diff = (vb - va) / va;
            let agree = diff.abs() <= m.bound;
            disagreements += u64::from(!agree);
            println!(
                "{:<11} {:<12} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>+8.1}% {:>6.0}%  {}",
                a.workload.name,
                m.name,
                va,
                vb,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                diff * 100.0,
                m.bound * 100.0,
                if agree { "agree" } else { "DISAGREE" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(a.workload.name)),
                ("metric", Json::str(m.name)),
                ("value_1", Json::Num(va)),
                ("value_2", Json::Num(vb)),
                ("iqr_share_1", Json::Num(sa.spread())),
                ("iqr_share_2", Json::Num(sb.spread())),
                ("relative_difference", Json::Num(diff)),
                ("bound", Json::Num(m.bound)),
                ("agree", Json::Bool(agree)),
            ]));
        }
    }
    let mut tally = total_tally(first.iter().chain(&second));
    if disagreements > 0 {
        // A pair out of bound fails the command like a failed operation.
        tally.attempted += disagreements;
        tally.failed += disagreements;
        tally.notes.push(format!(
            "{disagreements} (metric, workload) pairs differ by more than their bound"
        ));
    }
    let line = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        ("provenance", opts.provenance()),
        ("pairs", Json::Arr(rows)),
        ("disagreements", Json::Int(disagreements as i64)),
        ("claim", Json::Null),
    ]);
    Ok((line, tally))
}

/// Where trace files go: `benchmark/out/` when run from the repository
/// root (as the benchmark contract does), else `out/` beside the manifest.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn cmd_layers(opts: &Opts) -> Result<(Json, Tally), String> {
    let warmup = opts.round_cfg(false, false).warmup;
    let mut tally = Tally::default();
    let mut all = Vec::new();
    for (w, gen) in &opts.inputs() {
        eprintln!(
            "  {:<10} untraced round, traced round, probe ladder",
            w.name
        );
        let untraced = workload::run_round(w, gen, &opts.round_cfg(false, true))
            .map_err(|e| format!("{} untraced round: {e}", w.name))?;
        let traced = workload::run_round(w, gen, &opts.round_cfg(true, false))
            .map_err(|e| format!("{} traced round: {e}", w.name))?;
        let path = out_dir().join(format!("trace-{}.json", w.name));
        trace::write_json(&path, w.name, &traced.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let probes = probes::run(w, gen, warmup).map_err(|e| format!("{} probes: {e}", w.name))?;
        let layers =
            ledger::Layers::compose(w, &untraced, &traced, &probes, warmup.as_nanos() as u64);
        layers.print(w, &path);
        tally.merge(untraced.tally);
        tally.merge(traced.tally);
        all.push((w.name, layers.metrics_json()));
    }
    Ok((result_line(opts, &tally, all), tally))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("# provenance: {}", opts.provenance());
    if opts.smoke {
        println!("# smoke: 1 round x 0.9 s per workload; numbers from it are not measurements");
    }
    let steal = host::StealMeter::start();
    let done = match opts.command {
        Command::Run => cmd_run(&opts),
        Command::Layers => cmd_layers(&opts),
        Command::CheckRepeat => cmd_check_repeat(&opts),
    };
    match done {
        Ok((line, tally)) => {
            for note in &tally.notes {
                println!("# FAILED: {note}");
            }
            if let Some(share) = steal.share() {
                println!(
                    "# host: {:.1} % of cpu time was stolen from this VM during the run{}",
                    share * 100.0,
                    if share > 0.05 {
                        " - the host was contended; do not compare these numbers"
                    } else {
                        ""
                    }
                );
            }
            println!("{line}");
            exit_for(&tally)
        }
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the tables here are what runs.
    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let has = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for w in &WORKLOADS {
            assert!(has(w.name), "workload {}", w.name);
            assert!(text.contains(w.why), "why of {}", w.name);
        }
        for m in &END_TO_END {
            assert!(has(m.name), "end-to-end metric {}", m.name);
            assert!(
                text.contains(&format!("\"bound\": {}", m.bound)),
                "bound of {}",
                m.name
            );
        }
        let layers = ledger::Layers::compose(
            &WORKLOADS[0],
            &Round::default(),
            &Round::default(),
            &probes::Probes::default(),
            0,
        );
        for m in &layers.metrics {
            assert!(has(m.name), "per-layer metric {}", m.name);
        }
        let listed = text.matches("\"name\": ").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + END_TO_END.len() + layers.metrics.len()
        );
        assert!(text.contains(&format!("\"run_seconds\": {}", DEFAULT_SECS * 5.0)));
    }
}

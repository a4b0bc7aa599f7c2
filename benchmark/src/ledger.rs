//! Folds one workload's untraced round, traced round and probe ladder
//! into its per-layer metrics and its ledger: one row per layer (= crate)
//! with that layer's self time on one item's path, and `unaccounted` =
//! end-to-end −
//! the sum of the rows.
//!
//! The rows are composed outside in. An item's trip is two session RPCs
//! (`put`, `get`); each is a TCP round trip, a codec round trip, the proxy
//! call the surrogate makes and the session's own remainder. The proxy
//! call is, for a channel on another address space, two CLF one-way trips,
//! the hop's codec round trip, the bare channel operation and the hop's
//! own remainder. A batched item is on the path for its whole batch, so
//! nothing is divided by the batch size; `items_per_s` is where batching
//! pays. A pipelined item's trip leaves out the put's reply leg and the
//! get's request leg, which is taken as half of every round trip, and adds
//! the wake-up of the consumer blocked in `get`.
//!
//! `unaccounted` is reported, not gated: what composing the layers adds
//! (queueing in a bounded channel, cross-core wake-ups, cache effects)
//! lands there until the spans move inside the program.

use std::path::Path;

use crate::probes::Probes;
use crate::stats::{quantile, Json};
use crate::trace::{self, Fold};
use crate::workload::{Round, Workload};

/// A per-layer metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug)]
pub struct Layers {
    pub metrics: Vec<LayerMetric>,
    /// `(layer, self time on one item's path in us)`; the last row is
    /// `unaccounted`.
    pub rows: Vec<(&'static str, f64)>,
    pub ref_p50_us: f64,
    pub fold: Fold,
}

fn p50(round: &Round) -> f64 {
    quantile(&mut round.lat_us.clone(), 0.5)
}

impl Layers {
    pub fn compose(
        w: &Workload,
        untraced: &Round,
        traced: &Round,
        p: &Probes,
        warm_ns: u64,
    ) -> Layers {
        let b = w.batch as f64;
        let ref_p50_us = p50(untraced);
        let fold = trace::fold(&traced.spans, warm_ns);

        let (wire_put, wire_get) = (p.wire_put_rt_ns / 1000.0, p.wire_get_rt_ns / 1000.0);
        let (core_put, core_get) = (p.core_put_ns * b / 1000.0, p.core_get_ns * b / 1000.0);
        let tcp_rt = 2.0 * p.tcp_floor_us;
        let clf_rt = 2.0 * p.clf_oneway_us;
        let hop_self = p.proxy_put_remote_us - clf_rt - wire_put - core_put;
        let session_put_self = p.session_put_local_us - p.proxy_put_local_us - wire_put - tcp_rt;
        let session_get_self = p.session_get_local_us - p.proxy_get_local_us - wire_get - tcp_rt;

        let remote = w.remote();
        let put_proxy_self = if remote {
            hop_self
        } else {
            p.proxy_put_local_us - core_put
        };
        let (legs, wake) = if w.pipelined {
            (0.5, p.core_wake_us)
        } else {
            (1.0, 0.0)
        };
        let mut rows = vec![
            ("client", legs * (session_put_self + session_get_self)),
            (
                "runtime",
                legs * (put_proxy_self + p.proxy_get_local_us - core_get),
            ),
            ("clf", if remote { legs * clf_rt } else { 0.0 }),
            (
                "wire",
                legs * (wire_put + wire_get + if remote { wire_put } else { 0.0 }),
            ),
            ("core", core_put + core_get + wake),
            ("floors", legs * 2.0 * tcp_rt),
        ];
        let accounted: f64 = rows.iter().map(|(_, us)| us).sum();
        rows.push(("unaccounted", ref_p50_us - accounted));

        let (threads, ctxsw, cpu_us) = match untraced.proc {
            Some((a, z)) => {
                let items = untraced.items.max(1) as f64;
                (
                    a.threads as f64,
                    z.voluntary_switches.saturating_sub(a.voluntary_switches) as f64 / items,
                    z.cpu_ns.saturating_sub(a.cpu_ns) as f64 / 1000.0 / items,
                )
            }
            None => (0.0, 0.0, 0.0),
        };
        let obs = untraced.obs;
        let per_item = |n: u64| n as f64 / obs.items.max(1) as f64;

        let m = |name, unit, value| LayerMetric { name, unit, value };
        let mut metrics = vec![
            m("wire_put_rt_ns", "ns", p.wire_put_rt_ns),
            m("wire_get_rt_ns", "ns", p.wire_get_rt_ns),
            m("wire_batch32_rt_ns", "ns", p.wire_batch32_rt_ns),
            m("wire_jdr_put_rt_ns", "ns", p.wire_jdr_put_rt_ns),
            m("wire_jdr_get_rt_ns", "ns", p.wire_jdr_get_rt_ns),
            m("wire_jdr_batch32_rt_ns", "ns", p.wire_jdr_batch32_rt_ns),
            m("wire_overhead_bytes", "bytes", p.wire_overhead_bytes),
            m("core_put_ns", "ns", p.core_put_ns),
            m("core_get_ns", "ns", p.core_get_ns),
            m("core_consume_ns", "ns", p.core_consume_ns),
            m("core_wake_us", "us", p.core_wake_us),
            m("core_block_cycle_us", "us", p.core_block_cycle_us),
            m("clf_oneway_us", "us", p.clf_oneway_us),
            m("clf_stream_mb_s", "MB/s", p.clf_stream_mb_s),
            m("clf_datagrams_per_msg", "count", p.clf_datagrams_per_msg),
            m("clf_retransmit_share", "ratio", p.clf_retransmit_share),
            m("proxy_put_remote_us", "us", p.proxy_put_remote_us),
            m("proxy_put_local_us", "us", p.proxy_put_local_us),
            m("proxy_get_local_us", "us", p.proxy_get_local_us),
            m("runtime_hop_self_us", "us", hop_self),
            m("threads_steady", "count", threads),
            m("ctxsw_per_item", "count", ctxsw),
            m("cpu_us_per_item", "us", cpu_us),
            m("teardown_loaded_s", "s", untraced.teardown_s),
            m("session_rpc_us", "us", p.session_rpc_us),
            m("session_put_local_us", "us", p.session_put_local_us),
            m("session_get_local_us", "us", p.session_get_local_us),
            m("session_self_us", "us", session_put_self),
            m("session_get_self_us", "us", session_get_self),
            m("tcp_floor_us", "us", p.tcp_floor_us),
            m("udp_floor_us", "us", p.udp_floor_us),
            m("obs_clf_msgs_per_item", "count", per_item(obs.clf_msgs)),
            m(
                "obs_clf_datagrams_per_item",
                "count",
                per_item(obs.clf_datagrams),
            ),
            m(
                "obs_clf_retransmits_per_item",
                "count",
                per_item(obs.clf_retransmits),
            ),
            m(
                "obs_surrogate_rpcs_per_item",
                "count",
                per_item(obs.surrogate_rpcs),
            ),
            m("obs_remote_ops_per_item", "count", per_item(obs.remote_ops)),
            m(
                "obs_gc_reclaimed_per_item",
                "count",
                per_item(obs.gc_reclaimed),
            ),
            m("obs_repl_acked_per_item", "count", per_item(obs.repl_acked)),
            m(
                "trace_overhead_share",
                "ratio",
                p50(traced) / ref_p50_us - 1.0,
            ),
            m("span_put_us", "us", fold.put_us),
            m("span_get_us", "us", fold.get_us),
            m("span_consume_us", "us", fold.consume_us),
            m("span_root_self_us", "us", fold.root_self_us),
            m("ref_item_p50_us", "us", ref_p50_us),
        ];
        const ROW_METRICS: [&str; 7] = [
            "ledger_client_us",
            "ledger_runtime_us",
            "ledger_clf_us",
            "ledger_wire_us",
            "ledger_core_us",
            "ledger_floors_us",
            "ledger_unaccounted_us",
        ];
        metrics.extend(
            ROW_METRICS
                .iter()
                .zip(&rows)
                .map(|(name, (_, us))| m(name, "us", *us)),
        );
        Layers {
            metrics,
            rows,
            ref_p50_us,
            fold,
        }
    }

    pub fn print(&self, w: &Workload, trace_file: &Path) {
        println!();
        println!(
            "== {} ({} B x {}; closed-loop, {} thread(s) / 2 sessions; loopback) ==",
            w.name,
            w.size,
            w.batch,
            w.threads()
        );
        println!("{:<30} {:>14} {:<8}", "per-layer metric", "value", "unit");
        for m in &self.metrics {
            println!("{:<30} {:>14.4} {:<8}", m.name, m.value, m.unit);
        }
        println!(
            "trace: {} spans-bearing items -> {}",
            self.fold.items,
            trace_file.display()
        );
        println!(
            "ledger, self time on one item's path against the untraced item_p50_us of {:.1} us:",
            self.ref_p50_us
        );
        println!("  {:<12} {:>12} {:>9}", "layer", "us", "share");
        for (layer, us) in &self.rows {
            println!(
                "  {layer:<12} {us:>12.2} {:>8.1}%",
                us / self.ref_p50_us * 100.0
            );
        }
    }

    pub fn metrics_json(&self) -> Json {
        Json::obj(
            self.metrics
                .iter()
                .map(|m| (m.name, Json::metric(m.value, m.unit))),
        )
    }
}

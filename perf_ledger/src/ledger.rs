//! The traced run's per-layer metrics and its self-time table.
//!
//! Every per-layer metric is printed on every workload. Most come from
//! the layer probes and read the same on all workloads up to noise; the
//! ones from spans (`client.*`), from the node's `GET_STATS` deltas
//! (`server.*`) and the shares (`rijndael.aes_share`,
//! `server.residual_us`) are the workload's own.
//!
//! The self-time table splits the workload's median latency into the
//! layers a request crosses. A layer's self time is its probe or span
//! time minus the time of the layer it calls (the session's self time
//! is `session.small_us - engine.inline_us`, the engine's is
//! `engine.inline_us - rijndael.ctr_ns.64B`, and so on); the last row,
//! `server.residual_us`, is what no span covers: the kernel's loopback
//! path, `poll(2)` wake-ups and scheduling.

use std::collections::BTreeMap;

use crate::probes::NodeProbe;
use crate::stats::{self, ServerStats};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// The end-to-end metrics (`--trace 0`): name, unit, which way is
/// better. `--list` says what the latency and throughput samples are on
/// each workload.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("setup_s", "s", "lower"),
    ("lat_p50_us", "us", "lower"),
    ("ops_s", "1/s", "higher"),
];

/// The per-layer metrics (`--trace 1`): name, unit, which way is better.
pub const PER_LAYER: [(&str, &str, &str); 35] = [
    ("client.connect_us", "us", "lower"),
    ("client.send_us", "us", "lower"),
    ("client.wait_us", "us", "lower"),
    ("protocol.encode_ns.64B", "ns", "lower"),
    ("protocol.parse_ns.64B", "ns", "lower"),
    ("protocol.encode_us.256K", "us", "lower"),
    ("protocol.parse_us.256K", "us", "lower"),
    ("server.dispatch_mean_us", "us", "lower"),
    ("server.events_per_poll", "count", "higher"),
    ("server.polls_per_req", "count", "lower"),
    ("server.accept_wait_us", "us", "lower"),
    ("server.residual_us", "us", "lower"),
    ("telemetry.counter_lookup_ns", "ns", "lower"),
    ("telemetry.stats_json_us", "us", "lower"),
    ("telemetry.instruments", "count", "lower"),
    ("session.new_us", "us", "lower"),
    ("session.small_us", "us", "lower"),
    ("session.bulk_us", "us", "lower"),
    ("session.seal_us", "us", "lower"),
    ("session.xts_us", "us", "lower"),
    ("engine.inline_us", "us", "lower"),
    ("engine.pool.roundtrip_us", "us", "lower"),
    ("engine.pool.job_us", "us", "lower"),
    ("engine.pool.wait_us", "us", "lower"),
    ("rijndael.ctr_ns.64B", "ns", "lower"),
    ("rijndael.ecb_us.256K", "us", "lower"),
    ("rijndael.gcm_seal_us.16K", "us", "lower"),
    ("rijndael.xts_us.64K", "us", "lower"),
    ("rijndael.keysetup_us", "us", "lower"),
    ("rijndael.aes_share", "%", "higher"),
    ("cluster.route_ns", "ns", "lower"),
    ("cluster.overhead_us", "us", "lower"),
    ("cluster.open_us", "us", "lower"),
    ("trace.lat_p50_us", "us", "lower"),
    ("trace.overhead_us", "us", "lower"),
];

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A self-time table row: layer, µs.
pub type Row = (&'static str, f64);

/// What the traced run hands over for the ledger.
#[derive(Debug)]
pub struct Evidence<'a> {
    /// The workload.
    pub workload: Workload,
    /// The traced run's median latency, µs.
    pub lat_p50_us: f64,
    /// Requests the windows attempted (for spans per request).
    pub attempted: u64,
    /// The nodes' activity, summed over every round.
    pub server: &'a ServerStats,
    /// Node probes, one per round.
    pub node: &'a [NodeProbe],
    /// In-process probe results, by metric name.
    pub layer: &'a BTreeMap<&'static str, f64>,
    /// The windows' spans.
    pub tracer: &'a Tracer,
}

/// The per-layer metrics, in [`PER_LAYER`] order, and the self-time
/// table.
#[must_use]
pub fn build(e: &Evidence<'_>) -> (Vec<Metric>, Vec<Row>) {
    let mut m: BTreeMap<&'static str, f64> = e.layer.clone();
    let spans = e.tracer.summary();
    let span = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.total_us);
    let pooled = |pick: &dyn Fn(&NodeProbe) -> &Vec<f64>| -> f64 {
        stats::median(
            &e.node
                .iter()
                .flat_map(|p| pick(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    for (metric, name) in [
        ("client.connect_us", "client.connect"),
        ("client.send_us", "client.send"),
        ("client.wait_us", "client.wait"),
    ] {
        m.insert(metric, span(name).unwrap_or(f64::NAN));
    }

    let requests: u64 = e
        .server
        .counters
        .iter()
        .filter(|(name, _)| {
            name.starts_with("service.op.") && name.as_str() != "service.op.get_stats.requests"
        })
        .map(|(_, &n)| n)
        .sum();
    let (polls, _) = e
        .server
        .histograms
        .get("service.loop.dispatch_micros")
        .copied()
        .unwrap_or((0, 0));
    m.insert(
        "server.dispatch_mean_us",
        e.server
            .mean("service.loop.dispatch_micros")
            .unwrap_or(f64::NAN),
    );
    m.insert(
        "server.events_per_poll",
        e.server
            .mean("service.loop.events_per_poll")
            .unwrap_or(f64::NAN),
    );
    m.insert(
        "server.polls_per_req",
        polls as f64 / requests.max(1) as f64,
    );
    m.insert("server.accept_wait_us", pooled(&|p| &p.accept_wait_us));
    m.insert(
        "cluster.overhead_us",
        pooled(&|p| &p.routed_us) - pooled(&|p| &p.direct_us),
    );
    m.insert(
        "cluster.open_us",
        span("cluster.open_session").unwrap_or_else(|| pooled(&|p| &p.open_us)),
    );

    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    let mut rows = table(e.workload, &m, &span);
    let covered: f64 = rows.iter().map(|(_, us)| us).sum();
    let residual = e.lat_p50_us - covered;
    m.insert("server.residual_us", residual);
    rows.push(("server.residual_us", residual));
    let floor_us = match e.workload {
        Workload::BulkEcb => get(&m, "rijndael.ecb_us.256K"),
        Workload::SessionChurn => get(&m, "rijndael.keysetup_us"),
        _ => get(&m, "rijndael.ctr_ns.64B") / 1e3,
    };
    m.insert("rijndael.aes_share", 100.0 * floor_us / e.lat_p50_us);
    m.insert("trace.lat_p50_us", e.lat_p50_us);
    let spans_per_request = e.tracer.spans().len() as f64 / e.attempted.max(1) as f64;
    m.insert(
        "trace.overhead_us",
        spans_per_request * get(&m, "trace.span_ns") / 1e3,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, get(&m, name), unit))
        .collect();
    (metrics, rows)
}

/// One row per layer a request of the workload's latency sample crosses,
/// with that layer's self time in µs. The client rows come from the
/// workload's own spans; the rest are probe times minus the probe time
/// of the layer below, clamped at zero where noise in two nearly equal
/// probes would make the difference negative.
fn table(
    workload: Workload,
    m: &BTreeMap<&'static str, f64>,
    span: &dyn Fn(&str) -> Option<f64>,
) -> Vec<Row> {
    let v = |k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    let row = |name: &'static str, us: f64| (name, us);
    let net = |name: &'static str, outer: f64, inner: f64| (name, (outer - inner).max(0.0));
    match workload {
        Workload::BulkEcb => vec![
            row("client.send", v("client.send_us")),
            row("protocol.parse (request)", v("protocol.parse_us.256K")),
            row("telemetry.lookup", v("telemetry.counter_lookup_ns") / 1e3),
            net(
                "session (self)",
                v("session.bulk_us"),
                v("engine.pool.roundtrip_us"),
            ),
            row("engine.pool hand-off", v("engine.pool.wait_us").max(0.0)),
            net(
                "engine.pool job (self)",
                v("engine.pool.job_us"),
                v("rijndael.ecb_us.256K"),
            ),
            row("rijndael.ecb", v("rijndael.ecb_us.256K")),
            row("protocol.encode (reply)", v("protocol.encode_us.256K")),
            row("protocol.parse (reply)", v("protocol.parse_us.256K")),
        ],
        Workload::SessionChurn => {
            let connect = span("churn.connect").unwrap_or(f64::NAN);
            vec![
                row("client connect", connect),
                net(
                    "server accept hand-off",
                    v("server.accept_wait_us"),
                    v("client.connect_us"),
                ),
                row("protocol.parse (request)", v("protocol.parse_ns.64B") / 1e3),
                row("telemetry.lookup", v("telemetry.counter_lookup_ns") / 1e3),
                net(
                    "session.new (self)",
                    v("session.new_us"),
                    v("rijndael.keysetup_us"),
                ),
                row("rijndael.keysetup", v("rijndael.keysetup_us")),
                row("protocol.encode (reply)", v("protocol.encode_ns.64B") / 1e3),
            ]
        }
        Workload::SmallCtr | Workload::MixedInline | Workload::ClusterMix => {
            // The open loops send through the bench's own framing; the
            // router sends through `service::Client`.
            let send = match workload {
                Workload::ClusterMix => v("client.send_us"),
                _ => span("loadgen.send").unwrap_or(f64::NAN),
            };
            let mut rows = vec![
                row("client.send", send),
                row("protocol.parse (request)", v("protocol.parse_ns.64B") / 1e3),
                row("telemetry.lookup", v("telemetry.counter_lookup_ns") / 1e3),
                net(
                    "session (self)",
                    v("session.small_us"),
                    v("engine.inline_us"),
                ),
                net(
                    "engine.scheduler (self)",
                    v("engine.inline_us"),
                    v("rijndael.ctr_ns.64B") / 1e3,
                ),
                row("rijndael.ctr", v("rijndael.ctr_ns.64B") / 1e3),
                row("protocol.encode (reply)", v("protocol.encode_ns.64B") / 1e3),
                row("protocol.parse (reply)", v("protocol.parse_ns.64B") / 1e3),
            ];
            if workload == Workload::ClusterMix {
                rows.push(row("cluster router", v("cluster.overhead_us").max(0.0)));
            }
            rows
        }
    }
}

/// Renders the span table and the self-time table.
#[must_use]
pub fn render(workload: Workload, p50_us: f64, rows: &[Row], tracer: &Tracer) -> String {
    let mut out = format!("spans, {}: median total and self time\n", workload.name());
    for s in tracer.summary() {
        out.push_str(&format!(
            "  {:<28} {:>9} spans {:>12.3} us total {:>12.3} us self\n",
            s.name, s.count, s.total_us, s.self_us
        ));
    }
    out.push_str(&format!(
        "self time per layer, {} latency p50 {p50_us:.2} us (traced)\n",
        workload.name()
    ));
    for (name, us) in rows {
        out.push_str(&format!(
            "  {name:<28} {us:>12.3} us {:>7.1}%\n",
            100.0 * us / p50_us
        ));
    }
    out
}

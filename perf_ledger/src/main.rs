//! `perf_ledger` — the end-to-end and per-layer benchmark of the crypto
//! service.
//!
//! ```text
//! perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! perf_ledger --list
//! ```
//!
//! Run from the repository root with
//! `cargo run --release --offline --manifest-path perf_ledger/Cargo.toml -- ARGS`.
//! The last line of standard output is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the per-round figures, the numbers reported but not gated, and,
//! in a traced run, the self-time table. `--list` prints every metric
//! with its unit, direction and workloads.
//!
//! # What a run does
//!
//! A run drives one workload against real `service` nodes, started as
//! child processes of this binary (`--node`), for `--seconds` seconds
//! (default 22) split over three rounds. Every round builds its inputs
//! from the seed, spawns fresh nodes (a node that has served bulk
//! traffic keeps its pool threads and answers small requests
//! differently afterwards, so no round inherits one), drives the
//! traffic, audits the nodes' books and stops them.
//!
//! The node configuration is frozen: `ServiceConfig::builder()
//! .event_threads(1).farm(&[BackendSpec::Auto; 2])`, every other field
//! at its default — one event loop and two dispatched engine slots, a
//! node sized to a 2-CPU host. The generator is this one process, with
//! at most two threads and two open connections. It pins itself to the
//! last CPU it may use and the nodes take the other CPUs: when they
//! shared CPUs, the kernel sometimes woke the node's event loop next to
//! a busy generator thread, and small-request p90 swung from 20 µs to
//! 2.6 ms between identical runs (2-vCPU Xeon VM with AES-NI).
//!
//! # Workloads
//!
//! Rates, depths and sizes are constants in `workloads.rs`; changing one
//! changes what is measured.
//!
//! | name | traffic | why |
//! |---|---|---|
//! | `small_ctr` | 64 B CTR open loop at 20 000/s on one connection (2/3 of the round), then a closed loop at depth 16 on a second (1/3) | the per-frame path: client, protocol, the shard's `dispatch` (a `format!` and two registry lookups per frame), the inline engine lane. Almost no AES, no worker pool. |
//! | `bulk_ecb` | 256 KiB ECB, closed loop at depth 4 | nearly all time is the `WorkerPool` and the AES-NI batch path; per-frame cost is amortised away and the inline lane is bypassed. |
//! | `mixed_inline` | connection A: 64 B CTR open loop at 5 000/s; connection B, on the same event loop: closed loop at depth 2 alternating a 16 KiB GCM seal and a 64 KiB XTS request in 4 KiB sectors | seal and XTS run inline on the event loop, so a change that speeds one lane by costing the other shows here. |
//! | `session_churn` | one connection at a time: connect, `SET_KEY`, one 64 B CTR, one 1 KiB seal, close, and wait for the node's close | accept hand-off and `Session::new` (an engine farm and a worker pool per key); almost no crypto. Waiting for the node's close makes every session pay the same hand-off instead of a share that depends on a race with the previous close. |
//! | `cluster_mix` | two nodes behind `ClusterClient`: 64 B CTR alternating between two sessions homed on different nodes (2/5), then a loop of fresh routers each opening one session (3/5) | the router and the wrapped-key chain (`SET_KEY`, `WRAP_KEY`, `SET_KEY_WRAPPED`); the single-node workloads never touch it. |
//!
//! The first tenth of every window is warm-up: its requests are sent
//! and checked, not timed.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — from spawning the node(s) to the first `SET_KEY` reply:
//!   the median of five set-ups, two of them before the rounds. Today
//!   this is mostly the node's 10 ms poll tick: the event loop notices a
//!   handed-off connection only when its poll times out.
//! * `lat_p50_us` — the workload's latency sample (`--list` says which
//!   requests): open loops time a request from when it was due, so a
//!   stall is charged to every request it delayed.
//! * `ops_s` — the workload's throughput sample.
//!
//! Each window is cut into slices of about a second; a run reports the
//! median over every slice of its three rounds. On a shared virtual
//! machine noise comes in bursts of a second or two, which a median over
//! slices ignores.
//!
//! Reported, not gated: `lat_p90_us` (median of per-slice p90s; its
//! spread between runs exceeded 10% on `bulk_ecb` and `mixed_inline`,
//! so it was demoted), the pooled p99 with its sample count, how late
//! the open loop sent (`loadgen.late_p99_us`), `host.nproc`, the
//! generator's CPU, the node's `rijndael.dispatch.backend.*` and
//! `host.steal_pct` from `/proc/stat`.
//!
//! # Correctness
//!
//! Inputs and their answers come from the seed and the reference cipher
//! before a node starts. Every 32nd reply of a window plus its first and
//! last are compared with those answers. After each round every node's
//! `GET_STATS` delta must count exactly the requests sent, no typed
//! errors, and an empty pipeline. Any miss counts in `failed`, sets
//! `correct` to false and makes the exit status 1.
//!
//! # Traced runs (`--trace 1`)
//!
//! A traced run drives the same traffic with spans around every call the
//! bench makes into a layer (`client.send`, `client.wait`,
//! `client.connect`, `cluster.*`), reads the nodes' `GET_STATS`
//! instruments as deltas per round, and then probes each layer's public
//! API on the same request shapes: after each round against that round's
//! node (a fresh connection's first answer; the router against direct
//! calls), and after the last round in-process (protocol encode and
//! parse, the registry lookups `dispatch` makes per frame, `Session`,
//! `Engine`, `WorkerPool`, the dispatched cipher, the hash ring). It
//! prints every per-layer metric of `BENCHMARK.json`.
//!
//! The self-time table splits the traced `lat_p50_us` into the layers
//! the request crosses, in the order it crosses them. Each row is that
//! layer's self time: its span or probe time minus the time of the layer
//! it calls (`session (self)` is `session.small_us - engine.inline_us`).
//! The last row, `server.residual_us`, is what no span covers — the
//! loopback path through the kernel, `poll(2)` wake-ups and scheduling —
//! and the percentages say what share of the request each row is.
//! `trace.lat_p50_us` is the traced median; against an untraced run's
//! `lat_p50_us` it gives the tracing overhead, which
//! `trace.overhead_us` estimates from the spans recorded per request.
//! `--spans PATH` writes every span (name, start, end, parent, request)
//! as JSON lines when the run ends.

use std::process::ExitCode;
use std::time::Duration;

use perf_ledger::check;
use perf_ledger::fleet::{self, Fleet};
use perf_ledger::host::{self, CpuTimes};
use perf_ledger::ledger::{self, Metric};
use perf_ledger::probes;
use perf_ledger::stats::{self, ServerStats};
use perf_ledger::trace::Tracer;
use perf_ledger::workloads::{Traffic, Workload};
use testkit::Rng;

/// Rounds per run; each gets a fresh node.
const ROUNDS: u32 = 3;
/// Set-ups measured before the rounds, on top of one per round.
const EXTRA_SETUPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perf_ledger --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
         [--spans PATH]\n       perf_ledger --list",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 22.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(fleet::NODE_FLAG) {
        return match fleet::run_as_node() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perf_ledger --node: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("--list") {
        print_list();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_ledger: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_list() {
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workloads = all.join(",");
    println!("end-to-end metrics (--trace 0):");
    for (name, unit, better) in ledger::END_TO_END {
        println!("  {name:<28} {unit:<6} {better:<7} {workloads}");
    }
    println!("per-layer metrics (--trace 1):");
    for (name, unit, better) in ledger::PER_LAYER {
        println!("  {name:<28} {unit:<6} {better:<7} {workloads}");
    }
    println!("what the end-to-end samples are, per workload:");
    for w in Workload::ALL {
        let (lat, ops) = w.meaning();
        println!("  {:<14} lat_*: {lat}\n  {:<14} ops_s: {ops}", w.name(), "");
    }
}

/// Everything one round produced.
struct Round {
    traffic: Traffic,
    /// The nodes' activity over the round, summed over the fleet.
    server: ServerStats,
    /// Audit discrepancies.
    problems: Vec<String>,
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let nproc = host::nproc();
    let pinned = host::pin_to_last_cpu();
    let mut rng = Rng::seed_from_u64(args.seed);
    // The probes draw from their own stream so that tracing leaves the
    // workload's inputs unchanged.
    let mut probe_rng = Rng::seed_from_u64(args.seed ^ 0x7072_6f62_6573);
    let round_length = Duration::from_secs_f64(args.seconds / f64::from(ROUNDS));
    println!(
        "perf_ledger: workload {}, seed {}, {} s in {ROUNDS} rounds, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    let cpu_before = CpuTimes::now();

    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let fleet = Fleet::start(workload.nodes(), &rng.gen_array())?;
        setups.push(fleet.setup.as_secs_f64());
        fleet.stop();
    }
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut rounds = Vec::new();
    let mut node_probes = Vec::new();
    let mut backend = String::from("unknown");
    for round in 1..=ROUNDS {
        let inputs = workload.inputs(&mut rng);
        let fleet = Fleet::start(workload.nodes(), &rng.gen_array())?;
        if let Some(token) = fleet.before[0]
            .counters
            .keys()
            .find_map(|k| k.strip_prefix("rijndael.dispatch.backend."))
        {
            backend = token.to_string();
        }
        let traffic = workload.drive(&inputs, &fleet.addrs, round_length, &mut tracer);
        let window = fleet.window();
        let probed = if args.trace && traffic.is_ok() {
            Some(probes::node(fleet.addrs[0], &mut probe_rng, &mut tracer))
        } else {
            None
        };
        setups.push(fleet.setup.as_secs_f64());
        fleet.stop();
        let traffic = traffic?;
        if let Some(probe) = probed {
            node_probes.push(probe?);
        }
        let mut server = ServerStats::default();
        let problems = match window {
            Ok(windows) => {
                for w in &windows {
                    server.absorb(w);
                }
                check::audit(&server, &traffic.tally)
            }
            Err(e) => vec![format!("audit: {e}")],
        };
        for p in &problems {
            eprintln!("round {round}: audit: {p}");
        }
        println!(
            "round {round}: setup {:.4} s | latency p50 {:.2} us p90 {:.2} us | ops_s {:.1} | \
             attempted {} failed {} checked {}",
            setups.last().copied().unwrap_or(f64::NAN),
            stats::median(&traffic.latency.slice_quantiles(0.5)) / 1e3,
            stats::median(&traffic.latency.slice_quantiles(0.9)) / 1e3,
            stats::median(&traffic.throughput.slice_rates()),
            traffic.attempted,
            traffic.failed,
            traffic.checked,
        );
        rounds.push(Round {
            traffic,
            server,
            problems,
        });
    }
    let steal = match (cpu_before, CpuTimes::now()) {
        (Some(a), Some(b)) => b.steal_pct_since(&a),
        _ => f64::NAN,
    };

    let attempted: u64 = rounds.iter().map(|r| r.traffic.attempted).sum();
    let failed: u64 = rounds
        .iter()
        .map(|r| r.traffic.failed + r.problems.len() as u64)
        .sum();
    let mut pooled: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.traffic.latency.values())
        .collect();
    let mut late: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.traffic.late_ns.iter().copied())
        .collect();
    let p90: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.traffic.latency.slice_quantiles(0.9))
        .collect();
    println!(
        "reported, not gated: lat_p90_us {:.2} | lat_p99_us {:.2} ({} samples, {} beyond) | \
         loadgen.late_p99_us {} | host.nproc {nproc} | generator cpu {} | \
         rijndael.dispatch.backend.{backend} | host.steal_pct {steal:.2}",
        stats::median(&p90) / 1e3,
        stats::quantile(&mut pooled, 0.99) as f64 / 1e3,
        pooled.len(),
        pooled.len() / 100,
        if late.is_empty() {
            "n/a (closed loop)".to_string()
        } else {
            format!("{:.2}", stats::quantile(&mut late, 0.99) as f64 / 1e3)
        },
        pinned.map_or("unpinned".to_string(), |c| c.to_string()),
    );

    let e2e = end_to_end(&rounds, &setups);
    let metrics = if args.trace {
        let mut server = ServerStats::default();
        for r in &rounds {
            server.absorb(&r.server);
        }
        let last = &rounds.last().expect("at least one round").server;
        let layer = probes::in_process(last, &mut probe_rng);
        let lat_p50_us = e2e
            .iter()
            .find(|(name, _, _)| *name == "lat_p50_us")
            .map_or(f64::NAN, |&(_, value, _)| value);
        let (metrics, rows) = ledger::build(&ledger::Evidence {
            workload,
            lat_p50_us,
            attempted,
            server: &server,
            node: &node_probes,
            layer: &layer,
            tracer: &tracer,
        });
        print!("{}", ledger::render(workload, lat_p50_us, &rows, &tracer));
        metrics
    } else {
        e2e
    };
    let mut correct = failed == 0;
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            eprintln!("metric {name} came out as {value}");
            correct = false;
        }
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, tracer.to_json_lines(workload.name()))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The gated metrics of a run: medians over every slice of every round
/// (and over every set-up for `setup_s`).
fn end_to_end(rounds: &[Round], setups: &[f64]) -> Vec<Metric> {
    let over_slices = |f: &dyn Fn(&Traffic) -> Vec<f64>| -> f64 {
        stats::median(
            &rounds
                .iter()
                .flat_map(|r| f(&r.traffic))
                .collect::<Vec<_>>(),
        )
    };
    vec![
        ("setup_s", stats::median(setups), "s"),
        (
            "lat_p50_us",
            over_slices(&|t| t.latency.slice_quantiles(0.5)) / 1e3,
            "us",
        ),
        ("ops_s", over_slices(&|t| t.throughput.slice_rates()), "1/s"),
    ]
}

/// The result line the harness reads.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

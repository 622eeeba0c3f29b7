//! Cluster-level load gate, in three acts:
//!
//! 1. **Node scaling** — the same synchronous CTR workload runs against
//!    a 1-node and a 3-node cluster of real child processes, each node a
//!    `service` with one paced core (`BackendSpec::Paced`) and a single
//!    event thread. Every 64 B request is below the session's bulk
//!    threshold, so it runs caller-side on its node's one event thread
//!    — a node is one serial crypto pipe, exactly the paper's
//!    one-IP-per-device deployment — and the run asserts ≥ 2.5x
//!    aggregate throughput from 1 → 3 nodes. Pacing
//!    makes the figure portable: modeled block time dominates, and it
//!    overlaps across *processes* the way independent devices would.
//! 2. **Drain under load** — with pipelined (v2) traffic in flight, the
//!    session's home node is drained. The run asserts every accepted
//!    job is delivered exactly once after the migration: zero loss.
//! 3. **Fleet audit** — the aggregated `GET_STATS` document must show
//!    every node reachable and the summed per-op counters must cover
//!    all the traffic acts 1 and 2 sent.
//!
//! Results land in `BENCH_cluster.json` (override the path with
//! `BENCH_CLUSTER_JSON`) as a `telemetry/1` snapshot. Pass `--smoke` or
//! set `TESTKIT_BENCH_SMOKE=1` for the tiny CI workload.
//!
//! Run with `--node` to *be* a node: the binary re-execs itself as the
//! cluster's child processes (`CARGO_BIN_EXE_*` only resolves in the
//! owning crate's tests, so the bench is its own node image).

use std::net::SocketAddr;
use std::process::Command;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use cluster::{ClusterClient, NodeProcess};
use engine::BackendSpec;
use service::protocol::Op;
use service::server::ServiceConfig;
use service::Transport;
use telemetry::{Registry, Snapshot};

/// Modeled per-block time of each node's single paced core.
const BLOCK_NS: u32 = 50_000;

/// Per-cluster key-encryption key (the usual deployment would load it
/// from an HSM; the bench just needs all nodes keyed alike).
const KEK: [u8; 16] = *b"bench-cluster-kk";

/// One synchronous op's payload: 4 blocks, comfortably under the bulk
/// threshold so it runs on the node's event thread through its paced
/// core.
const OP_BYTES: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--node") {
        run_as_node();
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("TESTKIT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let threads: usize = 6;
    let ops: usize = if smoke { 60 } else { 200 };
    let depth: usize = if smoke { 32 } else { 128 };

    let report = Registry::new();
    report.gauge("bench.cluster.smoke").set(i64::from(smoke));

    // Act 1: aggregate throughput, 1 node vs 3 nodes.
    println!(
        "Cluster scaling — {threads} client threads x {ops} CTR ops x {OP_BYTES} B, paced nodes at {BLOCK_NS} ns/block\n"
    );
    println!(
        "{:<7} {:>12} {:>12} {:>9}",
        "nodes", "wall ms", "ops/s", "scale"
    );
    println!("{}", "-".repeat(43));
    let mut fleets = Vec::new();
    let mut rates = Vec::new();
    for n in [1usize, 3] {
        let fleet = spawn_fleet(n);
        let addrs: Vec<SocketAddr> = fleet.iter().map(|p| p.addr()).collect();
        let wall = drive_load(&addrs, threads, ops);
        let rate = (threads * ops) as f64 / wall;
        let scale = rates.first().map_or(1.0, |&r1: &f64| rate / r1);
        println!("{n:<7} {:>12.1} {:>12.0} {scale:>8.2}x", wall * 1e3, rate);
        report
            .counter(&format!("bench.cluster.ops_per_s.nodes_{n}"))
            .add(rate.round() as u64);
        rates.push(rate);
        fleets.push(fleet);
    }
    let scale = rates[1] / rates[0];
    report
        .counter("bench.cluster.scale_1_to_3_x1000")
        .add((scale * 1000.0).round() as u64);
    assert!(
        scale >= 2.5,
        "1 -> 3 paced nodes must give >= 2.5x aggregate throughput, got {scale:.2}x"
    );
    println!("\n1 -> 3 nodes: {scale:.2}x aggregate throughput (gate: >= 2.5x)\n");

    // Acts 2 and 3 reuse the 3-node fleet.
    let fleet3 = fleets.pop().expect("3-node fleet is live");
    let addrs: Vec<SocketAddr> = fleet3.iter().map(|p| p.addr()).collect();
    drain_under_load(&report, &addrs, depth);
    fleet_audit(&report, &addrs, threads * ops, depth);

    let doc = report.snapshot().to_json();
    let path =
        std::env::var("BENCH_CLUSTER_JSON").unwrap_or_else(|_| "BENCH_cluster.json".to_string());
    match std::fs::write(&path, &doc) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    for fleet in fleets {
        for node in fleet {
            node.shutdown();
        }
    }
    for node in fleet3 {
        node.shutdown();
    }
}

/// Child-process entry: one paced single-event-thread node on an
/// ephemeral loopback port.
fn run_as_node() {
    let config = ServiceConfig::builder()
        .farm(&[BackendSpec::Paced { block_ns: BLOCK_NS }])
        .event_threads(1)
        .build()
        .expect("paced node config");
    if let Err(e) = cluster::run_node(config, "127.0.0.1:0") {
        eprintln!("cluster_load --node: {e}");
        std::process::exit(1);
    }
}

fn spawn_fleet(n: usize) -> Vec<NodeProcess> {
    let exe = std::env::current_exe().expect("own path");
    (0..n)
        .map(|_| {
            let mut command = Command::new(&exe);
            command.arg("--node");
            NodeProcess::spawn(command).expect("node child starts")
        })
        .collect()
}

/// Runs `threads` clients, each with its own `ClusterClient` and its
/// own session pinned (by re-rolling placement) to node `t % n`, each
/// performing `ops` synchronous CTR ops. Returns the aggregate wall
/// time in seconds.
fn drive_load(addrs: &[SocketAddr], threads: usize, ops: usize) -> f64 {
    let n = addrs.len();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut workers = Vec::with_capacity(threads);
    for t in 0..threads {
        let addrs = addrs.to_vec();
        let barrier = Arc::clone(&barrier);
        workers.push(thread::spawn(move || {
            let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");
            // Deterministic even spread: open sessions until one lands
            // on this thread's target node (the ring is deterministic,
            // so every thread converges in a handful of labels).
            let want = t % n;
            let key = [t as u8 + 1; 16];
            for _ in 0..64 {
                let label = fleet.open_session(&key).expect("session opens");
                if fleet.session_node(label) == Some(want) {
                    break;
                }
            }
            let payload = [0x6Bu8; OP_BYTES];
            let ctr = [t as u8; 16];
            barrier.wait();
            for _ in 0..ops {
                fleet.ctr_apply(&ctr, &payload).expect("paced ctr op");
            }
        }));
    }
    barrier.wait();
    let started = Instant::now();
    for worker in workers {
        worker.join().expect("load thread succeeds");
    }
    started.elapsed().as_secs_f64()
}

/// Act 2: drain the home node with pipelined jobs in flight; every
/// accepted job must come back exactly once through the migrated
/// session.
fn drain_under_load(report: &Registry, addrs: &[SocketAddr], depth: usize) {
    let mut fleet = ClusterClient::connect(addrs, &KEK).expect("cluster connects");
    let label = fleet.open_session(&[0x2Bu8; 16]).expect("session opens");
    let home = fleet.session_node(label).expect("session placed");

    let payload = [0x11u8; OP_BYTES];
    let mut expected: Vec<u32> = Vec::with_capacity(depth);
    for _ in 0..depth {
        expected.push(
            fleet
                .pipeline(Op::EcbEncrypt, None, &payload)
                .expect("pipelined submit"),
        );
    }
    let moved = fleet.drain(home).expect("drain succeeds");
    assert_eq!(moved, 1, "the loaded session migrates off the drained node");

    let mut jobs = fleet.collect_all().expect("collect across migration");
    assert_eq!(jobs.len(), depth, "drain must lose zero accepted jobs");
    jobs.sort_by_key(|j| j.corr);
    expected.sort_unstable();
    let delivered: Vec<u32> = jobs.iter().map(|j| j.corr).collect();
    assert_eq!(delivered, expected, "drain duplicated or dropped a job");
    for job in &jobs {
        job.result.as_ref().expect("migrated job completed ok");
    }
    // The migrated session still serves synchronous traffic.
    fleet
        .ctr_apply(&[0u8; 16], &payload)
        .expect("post-drain op");
    fleet.restore(home);

    println!(
        "Drain under load — {depth} pipelined jobs in flight, session migrated off node {home}, 0 lost\n"
    );
    report
        .counter("bench.cluster.drain.jobs_preserved")
        .add(depth as u64);
    report
        .counter("bench.cluster.drain.migrated")
        .add(moved as u64);
}

/// Act 3: the aggregated `GET_STATS` document accounts for the fleet.
fn fleet_audit(report: &Registry, addrs: &[SocketAddr], ctr_ops: usize, depth: usize) {
    let mut fleet = ClusterClient::connect(addrs, &KEK).expect("cluster connects");
    let merged = fleet.stats().expect("aggregate stats");
    let merged = Snapshot::from_json(&merged).expect("the fleet document parses");
    assert_eq!(
        merged.gauge("cluster.nodes.reachable"),
        Some(addrs.len() as i64),
        "every node must answer the stats poll"
    );
    let ctr = merged
        .counter("service.op.ctr_apply.requests")
        .expect("aggregate CTR counter");
    assert!(
        ctr >= ctr_ops as u64,
        "summed CTR counter {ctr} cannot cover the {ctr_ops} ops the load sent"
    );
    let ecb = merged
        .counter("service.op.ecb_encrypt.requests")
        .expect("aggregate ECB counter");
    assert!(
        ecb >= depth as u64,
        "summed ECB counter {ecb} cannot cover the {depth} pipelined jobs"
    );
    println!(
        "Fleet audit — {} nodes reachable, {ctr} CTR + {ecb} ECB requests accounted across the cluster\n",
        addrs.len()
    );
    report.counter("bench.cluster.audit.ctr_requests").add(ctr);
    report.counter("bench.cluster.audit.ecb_requests").add(ecb);
}

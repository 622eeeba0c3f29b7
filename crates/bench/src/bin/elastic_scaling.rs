//! Elastic worker-pool gate, in three acts:
//!
//! 1. **Thread scaling** — farms of paced cores (each modeling one
//!    independently clocked hardware IP, `BackendSpec::Paced`) run the
//!    same bulk ECB + CTR workload at 1, 2 and 4 workers and the run
//!    asserts ≥ 2x wall-clock speedup from 1 → 4. Pacing makes the
//!    measurement honest on any host: the modeled per-block time
//!    dominates, and sleeps overlap across worker threads exactly the
//!    way concurrent hardware cores would, so the figure reflects the
//!    paper's deployment rather than the benchmark machine's core
//!    count.
//! 2. **Resize under load** — a 1-worker pool takes a queue of bulk
//!    jobs; mid-stream the farm grows to 4 workers and hot-swaps slot
//!    0. The run asserts the inter-completion gap steps down after the
//!    grow, that the shrink back to 1 worker loses nothing, and that
//!    every accepted job completes successfully.
//! 3. **Service supervision** — an in-process framed-TCP server runs
//!    with `ServiceConfig::elastic` set; pipelined bulk traffic from a
//!    real client drives the queue-depth gauge up, and the run asserts
//!    the server's autoscale tick grew the farm and later shrank it,
//!    with both visible over the wire through `GET_STATS`.
//!
//! Results land in `BENCH_elastic.json` (override the path with
//! `BENCH_ELASTIC_JSON`) as a `telemetry/1` snapshot. Pass `--smoke`
//! or set `TESTKIT_BENCH_SMOKE=1` for the tiny CI workload.

use std::time::{Duration, Instant};

use engine::{BackendSpec, Mode, PoolBuilder, ResizePolicy};
use service::client::Client;
use service::protocol::Op;
use service::server::{Server, ServiceConfig};
use service::transport::Transport;
use telemetry::{Registry, Snapshot};

/// Modeled per-block processing time for the paced cores. Large enough
/// that pacing dwarfs both the real T-table arithmetic and the OS
/// scheduling noise, small enough that the full sweep stays quick.
const BLOCK_NS: u32 = 20_000;

/// The paced-core spec every farm in this gate is built from.
const PACED: BackendSpec = BackendSpec::Paced { block_ns: BLOCK_NS };

/// Upper bound on any single collect while work is outstanding.
const WAIT: Duration = Duration::from_secs(30);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("TESTKIT_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let job_blocks: usize = if smoke { 64 } else { 256 };
    let jobs: usize = if smoke { 6 } else { 12 };
    let report = Registry::new();
    report.gauge("bench.elastic.smoke").set(i64::from(smoke));
    report.gauge("bench.elastic.host_parallelism").set(
        std::thread::available_parallelism()
            .map(|n| i64::try_from(n.get()).unwrap_or(i64::MAX))
            .unwrap_or(1),
    );

    thread_scaling(&report, job_blocks, jobs);
    resize_under_load(&report, job_blocks, jobs);
    service_supervision(&report);

    let doc = report.snapshot().to_json();
    let path =
        std::env::var("BENCH_ELASTIC_JSON").unwrap_or_else(|_| "BENCH_elastic.json".to_string());
    match std::fs::write(&path, &doc) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Submits `jobs` bulk jobs of `mode`, waits for them all, and asserts
/// every one succeeded. Returns each job's payload result for byte
/// checks.
fn run_batch(pool: &engine::WorkerPool, mode: &Mode, payload: &[u8], jobs: usize) -> Vec<Vec<u8>> {
    let mut pending = 0usize;
    for _ in 0..jobs {
        loop {
            match pool.try_submit(*mode, payload.to_vec()) {
                Ok(_) => break,
                Err(engine::SubmitError::Busy { .. }) => {
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        pending += 1;
    }
    let mut outputs = Vec::with_capacity(pending);
    for _ in 0..pending {
        let out = pool
            .collect_timeout(WAIT)
            .expect("completion while work is outstanding");
        outputs.push(out.data.expect("bulk job succeeds"));
    }
    outputs
}

/// Act 1: wall-clock 1 → 2 → 4 worker sweep over bulk ECB and CTR.
fn thread_scaling(report: &Registry, job_blocks: usize, jobs: usize) {
    let key = [0x2Bu8; 16];
    let payload = vec![0x5Au8; job_blocks * 16];
    let modes = [Mode::EcbEncrypt, Mode::Ctr([0x0Fu8; 16])];

    // Byte reference for the ECB half, computed once.
    let cipher = rijndael::Aes128::new(&key);
    let mut want_ecb = payload.clone();
    rijndael::modes::Ecb::encrypt(&cipher, &mut want_ecb).expect("block-aligned");

    println!(
        "Elastic scaling — {jobs} jobs x {job_blocks} blocks (ECB + CTR), paced cores at {BLOCK_NS} ns/block\n"
    );
    println!("{:<9} {:>12} {:>10}", "workers", "wall ms", "speedup");
    println!("{}", "-".repeat(33));

    let mut times: Vec<(usize, Duration)> = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = PoolBuilder::new()
            .cores(&vec![PACED; workers])
            .capacity(jobs * 2)
            .build(&key);
        let started = Instant::now();
        for mode in &modes {
            let outputs = run_batch(&pool, mode, &payload, jobs);
            if matches!(mode, Mode::EcbEncrypt) {
                assert!(
                    outputs.iter().all(|o| *o == want_ecb),
                    "paced farm of {workers} must match the software reference"
                );
            }
        }
        let elapsed = started.elapsed();
        let speedup = times
            .first()
            .map_or(1.0, |(_, t1)| t1.as_secs_f64() / elapsed.as_secs_f64());
        println!(
            "{workers:<9} {:>12.1} {speedup:>9.2}x",
            elapsed.as_secs_f64() * 1e3
        );
        report
            .counter(&format!("bench.elastic.wall_us.workers_{workers}"))
            .add(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        times.push((workers, elapsed));
        pool.farm().shutdown();
    }

    let t1 = times[0].1.as_secs_f64();
    let t4 = times[2].1.as_secs_f64();
    let speedup = t1 / t4;
    report
        .counter("bench.elastic.speedup_1_to_4_x1000")
        .add((speedup * 1000.0).round() as u64);
    assert!(
        speedup >= 2.0,
        "1 -> 4 paced workers must give >= 2x wall-clock, got {speedup:.2}x"
    );
    println!("\n1 -> 4 workers: {speedup:.2}x wall-clock (gate: >= 2x)\n");
}

/// Act 2: grow/swap/shrink a live pool mid-queue and prove the latency
/// step, with zero lost or failed jobs.
fn resize_under_load(report: &Registry, job_blocks: usize, jobs: usize) {
    let key = [0x2Bu8; 16];
    let payload = vec![0xA5u8; job_blocks * 16];
    let registry = Registry::new();
    let pool = PoolBuilder::new()
        .cores(&[PACED])
        .capacity(jobs * 4)
        .registry(registry.clone())
        .build(&key);
    let farm = pool.farm();

    // Queue two halves' worth of work on the single worker up front.
    let total = jobs * 2;
    for _ in 0..total {
        pool.try_submit(Mode::EcbEncrypt, payload.clone())
            .expect("capacity covers the whole queue");
    }

    let started = Instant::now();
    let mut stamps = Vec::with_capacity(total);
    for collected in 0..total {
        let out = pool.collect_timeout(WAIT).expect("queued job completes");
        out.data.expect("resize must not fail jobs");
        stamps.push(started.elapsed());
        if collected + 1 == jobs {
            // Mid-stream: grow to 4 workers and hot-swap the original
            // slot while its queue is still full.
            for _ in 0..3 {
                farm.add_core(PACED).expect("spawn a worker");
            }
            assert!(farm.swap_core(0, PACED), "slot 0 is alive and swappable");
        }
    }

    // Shrink back down; the retiring workers' queues are empty now.
    while farm.workers() > 1 {
        let victim = farm.workers() - 1;
        assert!(farm.remove_core(victim), "grown worker retires cleanly");
    }

    let mean_gap = |window: &[Duration]| {
        let span = window.last().unwrap().saturating_sub(window[0]);
        span.as_secs_f64() / (window.len() - 1) as f64
    };
    let before = mean_gap(&stamps[..jobs]);
    let after = mean_gap(&stamps[jobs..]);
    let step = before / after;
    println!(
        "Resize under load — completion gap {:.2} ms/job on 1 worker, {:.2} ms/job after growing to 4 ({step:.2}x step)",
        before * 1e3,
        after * 1e3
    );
    report
        .counter("bench.elastic.resize_step_x1000")
        .add((step * 1000.0).round() as u64);
    assert!(
        step >= 1.3,
        "growing 1 -> 4 workers mid-queue must step completion latency down >= 1.3x, got {step:.2}x"
    );

    let snap = registry.snapshot();
    assert!(
        snap.counter("engine.resize.grow") >= Some(3),
        "grows counted"
    );
    assert!(
        snap.counter("engine.resize.shrink") >= Some(3),
        "shrinks counted"
    );
    assert!(
        snap.counter("engine.resize.swap") >= Some(1),
        "swap counted"
    );
    assert_eq!(
        snap.gauge("engine.workers"),
        Some(1),
        "farm back to 1 worker"
    );
    assert_eq!(
        snap.counter("engine.jobs.failed"),
        Some(0),
        "no job may fail across the whole resize cycle"
    );
    println!("grow/swap/shrink cycle complete: {total} jobs, 0 failures\n");
    farm.shutdown();
}

/// Act 3: the server's autoscale tick, observed over the wire.
fn service_supervision(report: &Registry) {
    // A farm of one paced worker; bulk pressure must make the supervisor
    // grow it, and the post-traffic quiet shrink it again.
    let policy = ResizePolicy {
        min_workers: 1,
        max_workers: 4,
        grow_depth: 2,
        shrink_after_ticks: 2,
        spec: PACED,
    };
    let server = Server::new(
        ServiceConfig::builder()
            .farm(&[BackendSpec::Paced { block_ns: 50_000 }])
            .queue_capacity(32)
            .max_connections(4)
            .idle_timeout(Duration::from_secs(30))
            .event_threads(1)
            .elastic(policy)
            .build()
            .expect("valid autoscale config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&[0x2Bu8; 16]).expect("SET_KEY");
    // 16 pipelined 4 KiB jobs: ~200 ms of modeled work queued on one
    // paced worker, so several 100 ms autoscale ticks see real depth.
    let bulk = vec![0x33u8; 256 * 16];
    for _ in 0..16 {
        client
            .pipeline(Op::EcbEncrypt, None, &bulk)
            .expect("pipelined submit");
    }
    let replies = client.collect_all().expect("collect pipelined bulk");
    assert_eq!(replies.len(), 16);
    assert!(
        replies.iter().all(|j| j.result.is_ok()),
        "bulk jobs succeed"
    );

    // Grow must already have happened during traffic; the shrink lands
    // within a few ticks of the queue going quiet.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (grows, shrinks) = loop {
        let snap = server.registry().snapshot();
        let grows = snap.counter("engine.resize.grow").unwrap_or(0);
        let shrinks = snap.counter("engine.resize.shrink").unwrap_or(0);
        if grows >= 1 && shrinks >= 1 {
            break (grows, shrinks);
        }
        assert!(
            Instant::now() < deadline,
            "supervisor must grow and shrink the farm (saw grow={grows} shrink={shrinks} \
             workers={:?} depth={:?} completed={:?})",
            snap.gauge("engine.workers"),
            snap.gauge("engine.queue.depth"),
            snap.counter("engine.jobs.completed"),
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    // The same figures a real operator sees: GET_STATS carries the
    // resize counters and the live worker gauge.
    let stats_json = client.stats().expect("GET_STATS");
    let wire = Snapshot::from_json(&stats_json).expect("GET_STATS is a telemetry/1 document");
    for needle in [
        "engine.resize.grow",
        "engine.resize.shrink",
        "engine.workers",
    ] {
        assert!(
            wire.entries().iter().any(|e| e.name == needle),
            "GET_STATS must expose {needle}"
        );
    }
    println!(
        "Service supervision — autoscaler grew x{grows} and shrank x{shrinks} under pipelined bulk load; counters visible via GET_STATS"
    );
    report.counter("bench.elastic.service.grow").add(grows);
    report.counter("bench.elastic.service.shrink").add(shrinks);
    drop(client);
    server.shutdown();
}

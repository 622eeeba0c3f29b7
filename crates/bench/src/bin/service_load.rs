//! Load generator for the framed TCP crypto service, in three acts:
//!
//! 1. **Pipelined throughput** — loopback clients streaming depth-16
//!    CTR bursts at servers whose one worker farm, shared by every
//!    client's session, grows by core count, reporting real wall-clock
//!    throughput and per-burst latency percentiles, then auditing the
//!    server over the wire: `GET_STATS` must report exactly the
//!    per-opcode request counts the run generated.
//! 2. **Noisy neighbor** — a client streaming 256 KiB bulk jobs shares
//!    one shard with a client timing small CTR bursts. The bulk work
//!    rides the server's worker farm, so the run asserts the small
//!    p99 stays far below one bulk job's modeled crypto time — the
//!    regression this guards is bulk crypto ever moving back onto the
//!    event-loop thread. The elastic supervisor must also grow the
//!    farm under the bulk session's queue pressure.
//! 3. **Connection scale** — a helper child process (re-invoking this
//!    binary with `--hold`) parks 10 000 idle connections on the
//!    server while short-lived clients churn through bursty pipelined
//!    traffic. The run asserts the server holds ≥ 10 000 concurrent
//!    connections end to end and that the event loop's own
//!    `service.loop.*` histograms report p50/p99 under that load, each
//!    within 25% of the exact value. The child exists because holding
//!    both halves of 10 000 loopback sockets in one process needs twice
//!    the fd budget.
//!
//! Unlike `engine_scaling` (virtual cycles from the cycle-accurate
//! models), this measures the deployed system end to end: TCP framing,
//! readiness polling, session dispatch and the engine itself. Set
//! `TESTKIT_BENCH_SMOKE=1` (or pass `--smoke`) for a tiny traffic
//! workload so CI keeps the binary exercised — the 10 000-connection
//! hold runs in smoke mode too; it is the point of the bench.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use engine::BackendSpec;
use service::client::Client;
use service::protocol::Op;
use service::server::{Server, ServiceConfig};
use service::transport::Transport;
use telemetry::Snapshot;

/// Frames in flight per connection during a pipelined burst.
const DEPTH: usize = 16;
/// Idle connections the `--hold` child parks on the server.
const HELD: usize = 10_000;

/// One client thread's share of the workload.
struct ClientReport {
    bytes: u64,
    burst_latencies: Vec<Duration>,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Child mode: connect `n` sockets and hold them idle until the parent
/// writes a line on stdin. Prints `HELD <n>` once every connection is
/// up so the parent knows the server's books should show them.
fn hold_connections(n: usize, addr: &str) {
    let _ = service::net::raise_nofile_limit();
    let mut held = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(addr) {
            Ok(stream) => held.push(stream),
            Err(e) => panic!("holder connect {i}/{n} failed: {e}"),
        }
    }
    println!("HELD {}", held.len());
    std::io::stdout().flush().expect("flush handshake");
    let mut release = String::new();
    std::io::stdin()
        .read_line(&mut release)
        .expect("wait for release");
    drop(held);
}

/// One act-1 run: its wall time, the bytes it moved, every burst's
/// latency and the server's socket calls per request it counted.
fn run_load(
    farm: &[BackendSpec],
    clients: usize,
    bursts_per_client: usize,
    payload_len: usize,
) -> (Duration, u64, Vec<Duration>, f64) {
    let server = Server::new(
        ServiceConfig::builder()
            .farm(farm)
            .queue_capacity(64)
            .max_connections(clients + 2)
            .idle_timeout(Duration::from_secs(30))
            .event_threads(2)
            .build()
            .expect("valid load config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let started = Instant::now();
    let mut workers = Vec::new();
    for worker in 0..clients {
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.set_key(&[worker as u8 + 1; 16]).expect("SET_KEY");
            let payload = vec![worker as u8; payload_len];
            let mut icb = [0u8; 16];
            icb[0] = worker as u8;
            let mut report = ClientReport {
                bytes: 0,
                burst_latencies: Vec::with_capacity(bursts_per_client),
            };
            for _ in 0..bursts_per_client {
                let t0 = Instant::now();
                for _ in 0..DEPTH {
                    client
                        .pipeline(Op::CtrApply, Some(&icb), &payload)
                        .expect("pipeline CTR");
                }
                let jobs = client.collect_all().expect("collect burst");
                report.burst_latencies.push(t0.elapsed());
                assert_eq!(jobs.len(), DEPTH, "every frame in the burst must answer");
                for job in jobs {
                    report.bytes += job.result.expect("CTR apply").len() as u64;
                }
            }
            report
        }));
    }

    let mut bytes = 0u64;
    let mut latencies = Vec::new();
    for worker in workers {
        let report = worker.join().expect("client thread");
        bytes += report.bytes;
        latencies.extend(report.burst_latencies);
    }
    let elapsed = started.elapsed();

    // Cross-check the server's own books over the wire: GET_STATS must
    // report exactly the requests this run just made, and the JSON it
    // returns is the same snapshot the in-process registry yields — one
    // counter path end to end.
    let mut auditor = Client::connect(addr).expect("connect for stats");
    let stats_json = auditor.stats().expect("GET_STATS");
    let expected = (clients * bursts_per_client * DEPTH) as u64;
    let snap = server.registry().snapshot();
    assert_eq!(
        snap.counter("service.op.ctr_apply.requests"),
        Some(expected),
        "server must count every CTR request"
    );
    assert_eq!(
        snap.counter("service.op.set_key.requests"),
        Some(clients as u64)
    );
    let wire = Snapshot::from_json(&stats_json).expect("GET_STATS is a telemetry/1 document");
    assert_eq!(
        wire.counter("service.op.ctr_apply.requests"),
        Some(expected),
        "GET_STATS JSON must carry the same tally"
    );
    drop(auditor);
    let requests = expected + clients as u64;
    let calls = snap
        .counter("service.io.syscalls")
        .expect("the shards count their socket calls") as f64
        / requests as f64;

    server.shutdown();
    latencies.sort_unstable();
    (elapsed, bytes, latencies, calls)
}

/// The noisy-neighbor act: one shard, one client streaming 256 KiB
/// bulk ECB jobs, one client timing depth-[`DEPTH`] bursts of small
/// CTR requests beside it. The farm is a paced core
/// ([`BackendSpec::Paced`]) so each bulk job models ~33 ms of crypto:
/// if bulk ran inline on the event loop (the pre-pool design), every
/// small burst sharing the shard would eat that stall and the small
/// p99 would sit at tens of milliseconds. With the farm lane the
/// shard only routes completions, so the run asserts the small p99
/// stays under half of one modeled bulk job. The elastic policy rides
/// along: bulk queue depth must make the supervisor grow the farm,
/// visible in the same snapshot `GET_STATS` serves.
fn mixed_traffic(smoke: bool) {
    const BLOCK_NS: u32 = 2_000;
    let bulk_len = 256 * 1024; // MAX_PAYLOAD: 16 384 blocks ≈ 33 ms paced
                               // Even the smoke quota holds the queue busy past the supervisor's
                               // first 100 ms tick, so the grow assertion below is never racy.
    let bulk_jobs = if smoke { 6 } else { 10 };
    let bulk_depth = 4usize;
    let modeled_job = Duration::from_nanos(u64::from(BLOCK_NS)) * (bulk_len as u32 / 16);

    let server = Server::new(
        ServiceConfig::builder()
            .farm(&[BackendSpec::Paced { block_ns: BLOCK_NS }])
            .queue_capacity(64)
            .max_connections(4)
            .idle_timeout(Duration::from_secs(30))
            // Both clients share one shard: the neighbor effect is real.
            .event_threads(1)
            .elastic(engine::ResizePolicy {
                min_workers: 1,
                max_workers: 4,
                grow_depth: 2,
                shrink_after_ticks: 4,
                spec: BackendSpec::Paced { block_ns: BLOCK_NS },
            })
            .build()
            .expect("valid neighbor config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Bulk neighbor: keep `bulk_depth` jobs of modeled ~33 ms in
    // flight until its quota is done.
    let bulk_thread = {
        let done = std::sync::Arc::clone(&done);
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("bulk connect");
            client.set_key(&[0xB1; 16]).expect("SET_KEY");
            let payload = vec![0x42u8; bulk_len];
            let mut submitted = 0usize;
            let mut collected = 0usize;
            while collected < bulk_jobs {
                while submitted < bulk_jobs && submitted - collected < bulk_depth {
                    client
                        .pipeline(Op::EcbEncrypt, None, &payload)
                        .expect("pipeline bulk");
                    submitted += 1;
                }
                let job = client.collect_next().expect("collect bulk");
                assert_eq!(job.result.expect("bulk ok").len(), bulk_len);
                collected += 1;
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        })
    };

    // Small lane: depth-DEPTH bursts of 64 B CTR requests, timed,
    // until the bulk neighbor finishes (minimum 20 bursts so the p99
    // means something even if bulk wins the race).
    let small_thread = {
        let done = std::sync::Arc::clone(&done);
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("small connect");
            client.set_key(&[0x51; 16]).expect("SET_KEY");
            let payload = vec![0x07u8; 64];
            let icb = [0x11u8; 16];
            let mut latencies = Vec::new();
            while latencies.len() < 20 || !done.load(std::sync::atomic::Ordering::Acquire) {
                let t0 = Instant::now();
                for _ in 0..DEPTH {
                    client
                        .pipeline(Op::CtrApply, Some(&icb), &payload)
                        .expect("pipeline small");
                }
                let jobs = client.collect_all().expect("collect small burst");
                latencies.push(t0.elapsed());
                assert_eq!(jobs.len(), DEPTH);
                for job in jobs {
                    assert_eq!(job.result.expect("small CTR ok").len(), 64);
                }
            }
            latencies
        })
    };

    bulk_thread.join().expect("bulk neighbor");
    let mut latencies = small_thread.join().expect("small lane");
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);

    println!(
        "mixed traffic: {bulk_jobs} x {} KiB bulk (modeled {:.1} ms each) beside {} small bursts",
        bulk_len / 1024,
        modeled_job.as_secs_f64() * 1e3,
        latencies.len(),
    );
    println!("mixed traffic: small-burst p50 {p50:>8.2?} p99 {p99:>8.2?}");

    // The gate: inline bulk would pin the small p99 at or above one
    // modeled job; the farm lane must keep it under half of one.
    assert!(
        p99 < modeled_job / 2,
        "small-request p99 {p99:?} must stay under half a bulk job ({:?}) — bulk crypto may not run on the event loop",
        modeled_job / 2,
    );

    // Queue pressure from the bulk lane must have grown the farm, and
    // the books must balance.
    let snap = server.registry().snapshot();
    assert!(
        snap.counter("engine.resize.grow").unwrap_or(0) >= 1,
        "bulk depth {bulk_depth} must trip the elastic supervisor"
    );
    assert_eq!(snap.gauge("service.pipeline.inflight"), Some(0));
    server.shutdown();
}

/// The 10 000-connection act: park [`HELD`] idle connections via the
/// child, churn short-lived pipelined clients through the same server,
/// and make the server prove it — connection gauge at or above the
/// floor the whole time, pipeline gauge drained to zero, and finite
/// p50/p99 out of the event loop's own histograms.
fn massive_connection_hold(smoke: bool) {
    let server = Server::new(
        ServiceConfig::builder()
            .farm(&[BackendSpec::EncDecCore, BackendSpec::Software])
            .queue_capacity(64)
            .max_connections(HELD + 64)
            .idle_timeout(Duration::from_secs(300))
            .event_threads(2)
            .build()
            .expect("valid hold config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let exe = std::env::current_exe().expect("own path for the holder child");
    let mut child = Command::new(exe)
        .arg("--hold")
        .arg(HELD.to_string())
        .arg(addr.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn holder child");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut handshake = String::new();
    child_out
        .read_line(&mut handshake)
        .expect("holder handshake");
    assert_eq!(
        handshake.trim(),
        format!("HELD {HELD}"),
        "holder must park every connection"
    );

    // The child counts connects; wait for the server's gauge to agree.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.active_connections() < HELD {
        assert!(
            Instant::now() < deadline,
            "server admitted only {} of {HELD} held connections",
            server.active_connections()
        );
        thread::sleep(Duration::from_millis(10));
    }
    println!(
        "holding {} concurrent connections ({} served so far)",
        server.active_connections(),
        server.connections_served()
    );

    // Bursty churn on top: every burst is a fresh connection that
    // pipelines DEPTH single-block jobs through the engine queue and
    // disconnects — connection setup, admission and teardown all stay
    // on the hot path while the 10k idle sockets sit in the poll sets.
    let workers = 4usize;
    let bursts_per_worker = if smoke { 4 } else { 32 };
    let mut handles = Vec::new();
    for worker in 0..workers {
        handles.push(thread::spawn(move || {
            let mut latencies = Vec::with_capacity(bursts_per_worker);
            for _ in 0..bursts_per_worker {
                let mut client = Client::connect(addr).expect("churn connect");
                client.set_key(&[worker as u8 + 1; 16]).expect("SET_KEY");
                let t0 = Instant::now();
                for _ in 0..DEPTH {
                    client
                        .pipeline(Op::EcbEncrypt, None, &[worker as u8; 16])
                        .expect("pipeline");
                }
                let jobs = client.collect_all().expect("collect");
                latencies.push(t0.elapsed());
                assert_eq!(jobs.len(), DEPTH);
                for job in jobs {
                    assert_eq!(job.result.expect("block ok").len(), 16);
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("churn thread"))
        .collect();
    latencies.sort_unstable();

    assert!(
        server.active_connections() >= HELD,
        "idle connections must survive the churn ({} left)",
        server.active_connections()
    );

    // The server's own event-loop histograms must report percentiles
    // under this load.
    let snap = server.registry().snapshot();
    assert_eq!(
        snap.gauge("service.pipeline.inflight"),
        Some(0),
        "every pipelined job must be drained"
    );
    let dispatch = snap
        .histogram("service.loop.dispatch_micros")
        .expect("dispatch histogram");
    let d50 = dispatch.quantile(0.50).expect("dispatch p50");
    let d99 = dispatch.quantile(0.99).expect("dispatch p99");
    let events = snap
        .histogram("service.loop.events_per_poll")
        .expect("events histogram");
    let e99 = events.quantile(0.99).expect("events p99");

    println!(
        "churn: {} bursts of {DEPTH} pipelined frames, burst p50 {:>8.2?} p99 {:>8.2?}",
        latencies.len(),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
    println!(
        "event loop: dispatch p50 {d50} us, p99 {d99} us ({} polls)",
        dispatch.count
    );
    println!("event loop: events/poll p99 {e99}");

    // Release the holder and confirm it exits cleanly.
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(b"done\n")
        .expect("release holder");
    let status = child.wait().expect("holder exit");
    assert!(status.success(), "holder child failed: {status}");
    server.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--hold" {
        let n: usize = args[2].parse().expect("--hold count");
        hold_connections(n, &args[3]);
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var_os("TESTKIT_BENCH_SMOKE").is_some_and(|v| v != "0");
    let clients = 4usize;
    let (bursts, payload_len) = if smoke { (2, 1024) } else { (12, 16 * 1024) };

    println!("Service load — {clients} loopback clients, {bursts} bursts of {DEPTH} pipelined CTR");
    println!("requests each, {payload_len} B payloads, one shared farm of the paper's core\n");
    println!(
        "{:<6} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "cores", "requests", "throughput", "b.p50", "b.p90", "b.p99"
    );
    println!("{}", "-".repeat(64));

    for cores in [1usize, 2, 4] {
        let farm = vec![BackendSpec::EncDecCore; cores];
        let (elapsed, bytes, latencies, calls) = run_load(&farm, clients, bursts, payload_len);
        let secs = elapsed.as_secs_f64().max(1e-9);
        let mibps = bytes as f64 / (1024.0 * 1024.0) / secs;
        println!(
            "{:<6} {:>10} {:>9.2} MiB/s {:>9.2?} {:>9.2?} {:>9.2?}",
            cores,
            latencies.len() * DEPTH,
            mibps,
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.90),
            percentile(&latencies, 0.99),
        );
        println!("       server socket calls per request: {calls:.3}");
        assert_eq!(
            latencies.len(),
            clients * bursts,
            "every burst must complete"
        );
    }

    println!();
    mixed_traffic(smoke);

    println!();
    massive_connection_hold(smoke);

    println!("\n(real wall-clock figures: TCP + framing + readiness loop + engine)");
}

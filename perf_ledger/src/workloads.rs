//! The five workloads: what each sends, and which numbers it reports.
//!
//! Each workload builds its request pools from the seed *before* its
//! node is spawned, then drives one round of traffic. The rates, depths
//! and sizes below are frozen: changing any of them changes what the
//! benchmark measures and needs a new baseline.

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cluster::ClusterClient;
use service::protocol::Frame;
use service::{Client, Op, Transport};
use testkit::Rng;

use crate::check::{Pool, Tally, Verifier};
use crate::load::{self, LaneStats, Window};
use crate::stats::Series;
use crate::trace::Tracer;

/// Small-request payload: four AES blocks, under the service's bulk
/// threshold, so it runs on the session's inline engine lane.
pub const SMALL_BYTES: usize = 64;
/// `small_ctr` open-loop rate, requests per second.
pub const SMALL_RATE: f64 = 20_000.0;
/// `small_ctr` closed-loop depth for its throughput phase.
pub const SMALL_DEPTH: usize = 16;
/// Bulk request: the largest payload a frame carries.
pub const BULK_BYTES: usize = 256 * 1024;
/// `bulk_ecb` closed-loop depth.
pub const BULK_DEPTH: usize = 4;
/// `mixed_inline` open-loop rate of its small-request connection.
pub const MIXED_RATE: f64 = 5_000.0;
/// `mixed_inline` closed-loop depth of its seal/XTS connection.
pub const MIXED_DEPTH: usize = 2;
/// `mixed_inline` GCM seal plaintext.
pub const SEAL_BYTES: usize = 16 * 1024;
/// `mixed_inline` XTS request.
pub const XTS_BYTES: usize = 64 * 1024;
/// XTS sector size.
pub const XTS_SECTOR: usize = 4 * 1024;
/// `session_churn` seal plaintext.
pub const CHURN_SEAL_BYTES: usize = 1024;

/// Share of every window spent warming up before anything is timed.
const WARMUP_SHARE: f64 = 0.1;
/// Distinct requests per small-request pool.
const SMALL_POOL: usize = 64;
/// Distinct keys (and so distinct sessions) `session_churn` cycles.
const CHURN_KEYS: usize = 16;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 B CTR: open loop, then a closed loop at depth 16.
    SmallCtr,
    /// 256 KiB ECB in a closed loop at depth 4.
    BulkEcb,
    /// 64 B CTR open loop beside a seal/XTS closed loop on one shard.
    MixedInline,
    /// Connect, key, two small requests, close, in a loop.
    SessionChurn,
    /// Two nodes behind the cluster router: routed CTR, then session
    /// opens.
    ClusterMix,
}

impl Workload {
    /// Every workload, in the order `--list` prints them.
    pub const ALL: [Workload; 5] = [
        Workload::SmallCtr,
        Workload::BulkEcb,
        Workload::MixedInline,
        Workload::SessionChurn,
        Workload::ClusterMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallCtr => "small_ctr",
            Workload::BulkEcb => "bulk_ecb",
            Workload::MixedInline => "mixed_inline",
            Workload::SessionChurn => "session_churn",
            Workload::ClusterMix => "cluster_mix",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nodes the workload runs against.
    #[must_use]
    pub fn nodes(self) -> usize {
        match self {
            Workload::ClusterMix => 2,
            _ => 1,
        }
    }

    /// What the generic end-to-end metrics mean on this workload:
    /// (latency sample, throughput).
    #[must_use]
    pub fn meaning(self) -> (&'static str, &'static str) {
        match self {
            Workload::SmallCtr => (
                "64 B CTR at 20000/s open loop, timed from due time",
                "64 B CTR completions/s at depth 16",
            ),
            Workload::BulkEcb => (
                "256 KiB ECB at depth 4, send to reply",
                "256 KiB ECB completions/s (x 0.25 = MiB/s)",
            ),
            Workload::MixedInline => (
                "64 B CTR at 5000/s open loop beside the seal/XTS lane",
                "seal 16 KiB / XTS 64 KiB completions/s at depth 2",
            ),
            Workload::SessionChurn => (
                "session open: connect to SET_KEY reply",
                "complete sessions/s (open, CTR, seal, close)",
            ),
            Workload::ClusterMix => (
                "64 B CTR through the router, two sessions on two nodes",
                "ClusterClient::open_session/s (connect, open, drop)",
            ),
        }
    }

    /// Generates this workload's inputs for one round.
    #[must_use]
    pub fn inputs(self, rng: &mut Rng) -> Inputs {
        let small = |rng: &mut Rng| Pool::new(rng).ctr(rng, SMALL_POOL, SMALL_BYTES);
        match self {
            Workload::SmallCtr => Inputs {
                pools: vec![small(rng)],
                keys: Vec::new(),
            },
            Workload::BulkEcb => Inputs {
                pools: vec![Pool::new(rng).ecb(rng, BULK_DEPTH, BULK_BYTES)],
                keys: Vec::new(),
            },
            Workload::MixedInline => {
                let victim = small(rng);
                // Seal and XTS alternate request by request.
                let mut inline = Pool::new(rng);
                for _ in 0..4 {
                    inline = inline
                        .seal(rng, 1, SEAL_BYTES)
                        .xts(rng, 1, XTS_BYTES, XTS_SECTOR);
                }
                Inputs {
                    pools: vec![victim, inline],
                    keys: Vec::new(),
                }
            }
            Workload::SessionChurn => Inputs {
                pools: (0..CHURN_KEYS)
                    .map(|_| {
                        Pool::new(rng)
                            .ctr(rng, 1, SMALL_BYTES)
                            .seal(rng, 1, CHURN_SEAL_BYTES)
                    })
                    .collect(),
                keys: Vec::new(),
            },
            Workload::ClusterMix => Inputs {
                pools: vec![small(rng), small(rng)],
                // The cluster KEK, then the keys phase 2 opens sessions
                // with.
                keys: (0..=CHURN_KEYS).map(|_| rng.gen_array()).collect(),
            },
        }
    }

    /// Drives one round of traffic against `addrs`; `length` is the
    /// round's whole traffic time.
    ///
    /// # Errors
    ///
    /// A message when the traffic could not start at all; failures
    /// once it runs are counted in the result instead.
    pub fn drive(
        self,
        inputs: &Inputs,
        addrs: &[SocketAddr],
        length: Duration,
        tracer: &mut Tracer,
    ) -> Result<Traffic, String> {
        let window = |share: f64| {
            let length = length.mul_f64(share);
            Window {
                length,
                warmup: length.mul_f64(WARMUP_SHARE),
            }
        };
        let addr = addrs[0];
        match self {
            Workload::SmallCtr => {
                let pool = &inputs.pools[0];
                let open = load::open_loop(addr, pool, SMALL_RATE, window(2.0 / 3.0), tracer)?;
                let closed = keyed_closed_loop(addr, pool, SMALL_DEPTH, window(1.0 / 3.0), tracer)?;
                Ok(Traffic::from_lanes(open, Some(closed)))
            }
            Workload::BulkEcb => {
                let pool = &inputs.pools[0];
                let closed = keyed_closed_loop(addr, pool, BULK_DEPTH, window(1.0), tracer)?;
                Ok(Traffic::from_lanes(closed, None))
            }
            Workload::MixedInline => {
                let (victim, inline) = (&inputs.pools[0], &inputs.pools[1]);
                let mut victim_tracer = if tracer.enabled() {
                    Tracer::on()
                } else {
                    Tracer::off()
                };
                let (open, closed) = std::thread::scope(|s| {
                    let open = s.spawn(|| {
                        load::open_loop(addr, victim, MIXED_RATE, window(1.0), &mut victim_tracer)
                    });
                    let closed = keyed_closed_loop(addr, inline, MIXED_DEPTH, window(1.0), tracer);
                    let open = open.join().expect("the open-loop thread does not panic");
                    (open, closed)
                });
                tracer.absorb(victim_tracer);
                Ok(Traffic::from_lanes(open?, Some(closed?)))
            }
            Workload::SessionChurn => Ok(churn(addr, &inputs.pools, window(1.0), tracer)),
            Workload::ClusterMix => cluster_mix(addrs, inputs, window(0.4), window(0.6), tracer),
        }
    }
}

/// A round's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Request pools, one per session the workload keys.
    pub pools: Vec<Pool>,
    /// Bare keys (the cluster KEK and the keys of opened sessions).
    pub keys: Vec<[u8; 16]>,
}

/// What one round of a workload measured.
#[derive(Debug, Default)]
pub struct Traffic {
    /// The latency sample behind `lat_p50_us` and `lat_p90_us`, ns.
    pub latency: Series,
    /// The completions behind `ops_s`.
    pub throughput: Series,
    /// How late the open loop sent, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// Requests (or sessions) attempted.
    pub attempted: u64,
    /// Of those, failed, refused or answered wrongly.
    pub failed: u64,
    /// Replies compared against the reference.
    pub checked: u64,
    /// Requests sent, by op, summed over the fleet.
    pub tally: Tally,
}

impl Traffic {
    /// The first lane supplies the latency sample; the second, if any,
    /// the throughput (else the first does).
    fn from_lanes(latency: LaneStats, throughput: Option<LaneStats>) -> Traffic {
        let mut traffic = Traffic::default();
        for lane in std::iter::once(&latency).chain(&throughput) {
            traffic.attempted += lane.attempted;
            traffic.failed += lane.failed;
            traffic.checked += lane.checked;
            traffic.tally.absorb(&lane.tally);
        }
        traffic.throughput = throughput.map_or(latency.completions, |t| t.completions);
        traffic.late_ns = latency.late_ns;
        traffic.latency = latency.latency;
        traffic
    }
}

/// A closed loop on a fresh `Client` keyed with the pool's key.
fn keyed_closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    depth: usize,
    window: Window,
    tracer: &mut Tracer,
) -> Result<LaneStats, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_key(&pool.key)
        .map_err(|e| format!("SET_KEY on {addr}: {e}"))?;
    let mut lane = load::closed_loop(&mut client, pool, depth, window, tracer);
    lane.tally.add(Op::SetKey, 1);
    Ok(lane)
}

/// `session_churn`: one connection at a time, each keyed, used for one
/// CTR request and one seal, and closed.
fn churn(addr: SocketAddr, pools: &[Pool], window: Window, tracer: &mut Tracer) -> Traffic {
    let mut traffic = Traffic {
        latency: Series::new(window.measured()),
        throughput: Series::new(window.measured()),
        ..Traffic::default()
    };
    let mut verifier = Verifier::default();
    let start = Instant::now();
    let measured_from = start + window.warmup;
    let end = start + window.length;
    let mut n = 0u64;
    while Instant::now() < end {
        let pool = &pools[(n % pools.len() as u64) as usize];
        traffic.attempted += 1;
        let began = Instant::now();
        let root = tracer.record("churn.session", began, began, None, n);
        let session = (|| -> Result<Instant, String> {
            let mut stream = tracer
                .time("churn.connect", Some(root), n, || TcpStream::connect(addr))
                .map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            traffic.tally.add(Op::SetKey, 1);
            let set_key = Frame::request(Op::SetKey, 0, 1, 0, pool.key.to_vec());
            let keyed = tracer.time("churn.set_key", Some(root), n, || {
                load::round_trip(&mut stream, &set_key)
            })?;
            let opened = Instant::now();
            tracer.close(root, opened);
            for (i, request) in pool.requests.iter().enumerate() {
                traffic.tally.add(request.op, 1);
                let seq = 2 + i as u32;
                let frame =
                    Frame::request(request.op, 0, seq, keyed.session, request.payload.clone());
                let reply = tracer.time("churn.call", None, n, || {
                    load::round_trip(&mut stream, &frame)
                })?;
                verifier.reply(2 * n + i as u64, request, reply.payload);
            }
            // Close, and wait for the node to close its end too: the next
            // connect then always finds the shard back in its poll, so
            // every session pays the same hand-off rather than a share
            // that depends on a race with the previous close.
            stream
                .shutdown(Shutdown::Write)
                .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(5))))
                .and_then(|()| stream.read_to_end(&mut Vec::new()))
                .map_err(|e| format!("close: {e}"))?;
            Ok(opened)
        })();
        match session {
            Ok(opened) if began >= measured_from => {
                traffic
                    .latency
                    .push(began - measured_from, nanos(opened - began));
                traffic.throughput.push(Instant::now() - measured_from, 0);
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("session_churn: session {n}: {e}");
                traffic.failed += 1;
            }
        }
        n += 1;
    }
    verifier.finish();
    traffic.checked = verifier.checked;
    traffic.failed += verifier.mismatched;
    traffic
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `cluster_mix`: routed small requests over two sessions homed on two
/// nodes, then a loop of session opens through fresh routers.
fn cluster_mix(
    addrs: &[SocketAddr],
    inputs: &Inputs,
    routed: Window,
    opens: Window,
    tracer: &mut Tracer,
) -> Result<Traffic, String> {
    let kek = &inputs.keys[0];
    let mut traffic = Traffic {
        latency: Series::new(routed.measured()),
        throughput: Series::new(opens.measured()),
        ..Traffic::default()
    };
    let mut verifier = Verifier::default();

    // Phase 1. A fresh router homes its first session on the same ring
    // position every time, so two routers over the two nodes listed in
    // opposite orders home their sessions on different nodes.
    let reversed: Vec<SocketAddr> = addrs.iter().rev().copied().collect();
    let mut routers = Vec::new();
    let mut homes = Vec::new();
    for (pool, order) in inputs.pools.iter().zip([addrs, &reversed]) {
        let mut router =
            ClusterClient::connect(order, kek).map_err(|e| format!("cluster connect: {e}"))?;
        traffic.tally.add(Op::Ping, order.len() as u64);
        let label = router
            .open_session(&pool.key)
            .map_err(|e| format!("open_session: {e}"))?;
        traffic.tally.add(Op::SetKey, 1);
        traffic.tally.add(Op::WrapKey, 1);
        traffic.tally.add(Op::SetKeyWrapped, 1);
        homes.push(router.session_node(label).map(|node| order[node]));
        routers.push(router);
    }
    if homes[0] == homes[1] {
        return Err(format!("both cluster sessions landed on {:?}", homes[0]));
    }
    let start = Instant::now();
    let measured_from = start + routed.warmup;
    let end = start + routed.length;
    let mut n = 0u64;
    while Instant::now() < end {
        let which = (n % 2) as usize;
        let request = inputs.pools[which].get(n / 2);
        let (iv, data) = request.payload.split_at(16);
        let iv: &[u8; 16] = iv
            .try_into()
            .expect("CTR payloads lead with a counter block");
        traffic.attempted += 1;
        traffic.tally.add(request.op, 1);
        let began = Instant::now();
        let reply = tracer.time("cluster.call", None, n, || {
            routers[which].ctr_apply(iv, data)
        });
        let done = Instant::now();
        match reply {
            Ok(bytes) => verifier.reply(n, request, bytes),
            Err(e) => {
                eprintln!("cluster_mix: routed request {n}: {e}");
                traffic.failed += 1;
            }
        }
        if began >= measured_from {
            traffic
                .latency
                .push(began - measured_from, nanos(done - began));
        }
        n += 1;
    }
    drop(routers);

    // Phase 2. The router has no way to close a session, so each open
    // gets a router of its own, dropped at once: never more than one
    // session connection (plus the router's transient probes) is open.
    let start = Instant::now();
    let measured_from = start + opens.warmup;
    let end = start + opens.length;
    let mut i = 0usize;
    while Instant::now() < end {
        let key = &inputs.keys[1 + i % (inputs.keys.len() - 1)];
        traffic.attempted += 1;
        let began = Instant::now();
        let opened = (|| -> Result<(), String> {
            let mut router = tracer
                .time("cluster.connect", None, i as u64, || {
                    ClusterClient::connect(addrs, kek)
                })
                .map_err(|e| format!("cluster connect: {e}"))?;
            traffic.tally.add(Op::Ping, addrs.len() as u64);
            tracer
                .time("cluster.open_session", None, i as u64, || {
                    router.open_session(key)
                })
                .map_err(|e| format!("open_session: {e}"))?;
            traffic.tally.add(Op::SetKey, 1);
            traffic.tally.add(Op::WrapKey, 1);
            traffic.tally.add(Op::SetKeyWrapped, 1);
            Ok(())
        })();
        match opened {
            Ok(()) if began >= measured_from => {
                traffic.throughput.push(Instant::now() - measured_from, 0);
            }
            Ok(()) => {}
            Err(e) => {
                eprintln!("cluster_mix: open {i}: {e}");
                traffic.failed += 1;
            }
        }
        i += 1;
    }
    verifier.finish();
    traffic.checked = verifier.checked;
    traffic.failed += verifier.mismatched;
    Ok(traffic)
}

//! The traced run's layer probes: each layer's public API timed on the
//! workload's own request shapes.
//!
//! In-process probes ([`in_process`]) run after the rounds, in the
//! bench process, on the same node configuration and with a telemetry
//! registry holding the node's own instrument names, so a lookup costs
//! what it costs inside the node. Node probes ([`node`]) run once per
//! round after the audit, against that round's node: they time a fresh
//! connection's first answer, and the cluster router against direct
//! client calls to the same node.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cluster::{ClusterClient, HashRing};
use engine::{EngineBuilder, Mode, PoolBuilder};
use rijndael::aead::{Aead, Gcm, Xts};
use rijndael::modes::{Ctr, Ecb};
use rijndael::AutoCipher;
use service::protocol::{Frame, RecvBuffer};
use service::{Client, Op, Session, Transport};
use telemetry::Registry;
use testkit::Rng;

use crate::fleet;
use crate::stats::{self, ServerStats};
use crate::trace::Tracer;
use crate::workloads::{BULK_BYTES, SEAL_BYTES, SMALL_BYTES, XTS_BYTES, XTS_SECTOR};

/// Requests per round in the router-against-direct comparison.
const ROUTED_CALLS: usize = 200;
/// Fresh connections timed per round for the accept wait.
const ACCEPT_PROBES: usize = 3;

/// Mean nanoseconds per call of `f`, over `reps` calls, as the median
/// of `batches` such means.
fn per_call_ns(batches: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    stats::median(&means)
}

/// A registry holding every instrument the node had, so lookups walk a
/// map of the node's size.
fn node_sized_registry(node: &ServerStats) -> Registry {
    let registry = Registry::new();
    for name in node.counters.keys() {
        let _ = registry.counter(name);
    }
    for name in node.gauges.keys() {
        let _ = registry.gauge(name);
    }
    for name in node.histograms.keys() {
        let _ = registry.histogram(name, &[1]);
    }
    registry
}

/// Times every layer's public API in-process. `node` is a node's
/// instrument set after a round; values are keyed by per-layer metric
/// name.
#[must_use]
pub fn in_process(node: &ServerStats, rng: &mut Rng) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let key: [u8; 16] = rng.gen_array();
    let iv: [u8; 16] = rng.gen_array();
    let small = rng.gen_vec(SMALL_BYTES);
    let bulk = rng.gen_vec(BULK_BYTES);
    let seal_in = rng.gen_vec(SEAL_BYTES);
    let xts_in = rng.gen_vec(XTS_BYTES);
    let nonce: [u8; 12] = rng.gen_array();
    let farm = fleet::node_config().farm;
    let capacity = fleet::node_config().queue_capacity;
    // Free one buffer larger than any request first: the allocator then
    // serves every probe buffer from its heap, whatever the workload
    // before left it doing, instead of mapping fresh pages for some
    // runs' 256 KiB buffers and not for others'.
    drop(black_box(vec![0u8; 1 << 20]));

    // service::protocol: a request's encode and parse, at both sizes.
    let small_frame =
        || Frame::request(Op::CtrApply, 0, 7, 1, [&iv[..], &small].concat()).with_corr(7);
    let bulk_frame = || Frame::request(Op::EcbEncrypt, 0, 7, 1, bulk.clone()).with_corr(7);
    for (frame, reps, encode, parse, scale) in [
        (
            small_frame(),
            2000,
            "protocol.encode_ns.64B",
            "protocol.parse_ns.64B",
            1.0,
        ),
        (
            bulk_frame(),
            4,
            "protocol.encode_us.256K",
            "protocol.parse_us.256K",
            1e-3,
        ),
    ] {
        let mut wire = Vec::new();
        frame.write_to(&mut wire).expect("payload fits a frame");
        let op = frame.op().expect("a request frame");
        let ns = per_call_ns(15, reps, || {
            let mut buf = Vec::new();
            Frame::request(op, 0, 7, 1, frame.payload.clone())
                .with_corr(7)
                .write_to(&mut buf)
                .expect("payload fits a frame");
            black_box(buf);
        });
        out.insert(encode, ns * scale);
        let ns = per_call_ns(15, reps, || {
            let mut rb = RecvBuffer::new();
            rb.extend_from_slice(black_box(&wire));
            black_box(rb.next_frame().expect("valid frame"));
        });
        out.insert(parse, ns * scale);
    }

    // telemetry: the registry lookups dispatch makes for every frame,
    // on a map of the node's size, and a GET_STATS document.
    let registry = node_sized_registry(node);
    out.insert("telemetry.instruments", node.instruments() as f64);
    out.insert(
        "telemetry.counter_lookup_ns",
        per_call_ns(15, 2000, || {
            registry
                .histogram("service.frame.request_bytes", &[1])
                .record(95);
            registry
                .counter(&format!("service.op.{}.requests", Op::CtrApply.name()))
                .incr();
        }),
    );
    out.insert(
        "telemetry.stats_json_us",
        per_call_ns(9, 5, || {
            black_box(registry.snapshot().to_json());
        }) / 1e3,
    );

    // rijndael, on the dispatch-selected cipher.
    let cipher = AutoCipher::new(&key).expect("a software backend is selected");
    out.insert(
        "rijndael.ctr_ns.64B",
        per_call_ns(15, 5000, || {
            let mut d = small.clone();
            Ctr::apply_batched(&cipher, &iv, 0, &mut d);
            black_box(d);
        }),
    );
    out.insert(
        "rijndael.ecb_us.256K",
        per_call_ns(15, 4, || {
            let mut d = bulk.clone();
            Ecb::encrypt_batched(&cipher, &mut d).expect("whole blocks");
            black_box(d);
        }) / 1e3,
    );
    let gcm = Gcm::new(cipher.clone());
    out.insert(
        "rijndael.gcm_seal_us.16K",
        per_call_ns(15, 20, || {
            black_box(gcm.seal(&nonce, &iv, &seal_in));
        }) / 1e3,
    );
    let xts = Xts::new(cipher.clone(), cipher.clone());
    out.insert(
        "rijndael.xts_us.64K",
        per_call_ns(15, 5, || {
            let mut d = xts_in.clone();
            for (i, sector) in d.chunks_mut(XTS_SECTOR).enumerate() {
                xts.encrypt_sector(i as u64, sector).expect("whole sectors");
            }
            black_box(d);
        }) / 1e3,
    );
    out.insert(
        "rijndael.keysetup_us",
        per_call_ns(15, 200, || {
            black_box(AutoCipher::new(black_box(&key)));
        }) / 1e3,
    );

    // engine::scheduler: the inline lane a small v2 request takes.
    let mut engine = EngineBuilder::new()
        .cores(&farm)
        .capacity(capacity)
        .registry(registry.clone())
        .build(&key);
    out.insert(
        "engine.inline_us",
        per_call_ns(15, 500, || {
            engine
                .try_submit(Mode::Ctr(iv), small.clone())
                .expect("an idle engine accepts");
            black_box(engine.run());
        }) / 1e3,
    );

    // engine::pool: a bulk job's round trip through the worker threads,
    // against the pool's own submit-to-delivery histogram; the gap is
    // the hand-off back to the caller.
    let pool_registry = Registry::new();
    let pool = PoolBuilder::new()
        .cores(&farm)
        .capacity(capacity)
        .registry(pool_registry.clone())
        .build(&key);
    let roundtrip = per_call_ns(15, 4, || {
        pool.try_submit(Mode::EcbEncrypt, bulk.clone())
            .expect("an idle pool accepts");
        black_box(
            pool.collect_timeout(Duration::from_secs(5))
                .expect("the job completes"),
        );
    }) / 1e3;
    let job = pool_registry
        .snapshot()
        .histogram("engine.pool.job_us")
        .map_or(f64::NAN, telemetry::HistogramSnapshot::mean);
    out.insert("engine.pool.roundtrip_us", roundtrip);
    out.insert("engine.pool.job_us", job);
    out.insert("engine.pool.wait_us", roundtrip - job);
    drop(pool);

    // service::session, keyed the way SET_KEY keys it.
    out.insert(
        "session.new_us",
        per_call_ns(15, 20, || {
            black_box(Session::new(1, &key, &farm, capacity, &registry));
        }) / 1e3,
    );
    let mut session = Session::new(1, &key, &farm, capacity, &registry);
    let mut corr = 0u32;
    out.insert(
        "session.small_us",
        per_call_ns(15, 500, || {
            corr = corr.wrapping_add(1);
            session
                .submit(corr, Mode::Ctr(iv), small.clone())
                .expect("an idle session accepts");
            black_box(session.collect());
        }) / 1e3,
    );
    out.insert(
        "session.bulk_us",
        per_call_ns(15, 4, || {
            corr = corr.wrapping_add(1);
            session
                .submit(corr, Mode::EcbEncrypt, bulk.clone())
                .expect("an idle session accepts");
            while session.collect().is_empty() {
                std::hint::spin_loop();
            }
        }) / 1e3,
    );
    out.insert(
        "session.seal_us",
        per_call_ns(15, 20, || {
            black_box(session.seal(&nonce, &iv, &seal_in));
        }) / 1e3,
    );
    out.insert(
        "session.xts_us",
        per_call_ns(15, 5, || {
            black_box(
                session
                    .xts_apply(0, XTS_SECTOR, xts_in.clone(), false)
                    .expect("whole sectors"),
            );
        }) / 1e3,
    );

    // cluster: placing a session label on a two-node ring.
    let ring = HashRing::new(2);
    let mut label = 0u64;
    out.insert(
        "cluster.route_ns",
        per_call_ns(15, 5000, || {
            label = label.wrapping_add(1);
            black_box(ring.route(black_box(label)));
        }),
    );

    // trace: what recording one span costs the traced run.
    let mut tracer = Tracer::on();
    out.insert(
        "trace.span_ns",
        per_call_ns(15, 2000, || {
            let start = Instant::now();
            tracer.record("probe", start, Instant::now(), None, 0);
        }),
    );
    out
}

/// What one round's node probes measured.
#[derive(Debug, Default)]
pub struct NodeProbe {
    /// Fresh connection to its first `PING` reply, µs.
    pub accept_wait_us: Vec<f64>,
    /// 64 B CTR through a one-node `ClusterClient`, µs.
    pub routed_us: Vec<f64>,
    /// The same requests through a direct `Client`, µs.
    pub direct_us: Vec<f64>,
    /// `ClusterClient::open_session`, µs.
    pub open_us: Vec<f64>,
}

/// Runs the node probes against `addr`; the direct calls also record
/// `client.send` / `client.wait` spans.
///
/// # Errors
///
/// Any failed call, as a message.
pub fn node(addr: SocketAddr, rng: &mut Rng, tracer: &mut Tracer) -> Result<NodeProbe, String> {
    let mut probe = NodeProbe::default();
    for _ in 0..ACCEPT_PROBES {
        let start = Instant::now();
        let mut client = tracer
            .time("client.connect", None, 0, || Client::connect(addr))
            .map_err(|e| format!("probe connect: {e}"))?;
        client
            .ping(b"probe")
            .map_err(|e| format!("probe ping: {e}"))?;
        probe
            .accept_wait_us
            .push(start.elapsed().as_secs_f64() * 1e6);
    }

    let key: [u8; 16] = rng.gen_array();
    let kek: [u8; 16] = rng.gen_array();
    let iv: [u8; 16] = rng.gen_array();
    let data = rng.gen_vec(SMALL_BYTES);
    let payload = [&iv[..], &data].concat();

    let mut direct = Client::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    direct
        .set_key(&key)
        .map_err(|e| format!("probe SET_KEY: {e}"))?;
    for i in 0..ROUTED_CALLS {
        let start = Instant::now();
        crate::load::call(&mut direct, Op::CtrApply, &payload, tracer, i as u64)?;
        probe.direct_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(direct);

    let mut router =
        ClusterClient::connect(&[addr], &kek).map_err(|e| format!("probe router: {e}"))?;
    let start = Instant::now();
    router
        .open_session(&key)
        .map_err(|e| format!("probe open_session: {e}"))?;
    probe.open_us.push(start.elapsed().as_secs_f64() * 1e6);
    for _ in 0..ROUTED_CALLS {
        let start = Instant::now();
        router
            .ctr_apply(&iv, &data)
            .map_err(|e| format!("probe routed call: {e}"))?;
        probe.routed_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(probe)
}

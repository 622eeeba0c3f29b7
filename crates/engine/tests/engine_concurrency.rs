//! Concurrency stress: the worker farm under simultaneous submission
//! from two keyed handles, elastic resize, hot-swap, and shutdown.
//!
//! The invariants the farm must hold whatever the interleaving:
//!
//! 1. **No lost completions** — every `JobId` that `try_submit` accepted
//!    surfaces exactly once from its handle's completion channel, even
//!    when the worker that held its shards was retired mid-job.
//! 2. **No duplicates** — a job never completes twice (a retirement or
//!    a swap must not double-deliver).
//! 3. **Ciphertext equivalence under its own key** — successful jobs
//!    byte-match the single-threaded `rijndael` reference under the key
//!    of the handle that submitted them (one handle holds a 16-byte key,
//!    the other a 32-byte one), regardless of which workers ran its
//!    shards or how often a worker re-keyed between them.
//!
//! The whole suite runs once per detected backend (the same sweep the
//! scheduler's own tests use), so the soft paths, the cycle-accurate IP
//! models, and — where the host has them — the hardware AES instructions
//! all take the beating.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use engine::{BackendSpec, JobId, Mode, PoolBuilder, WorkerPool};
use rijndael::modes::{Cbc, Ctr, Ecb};
use rijndael::Rijndael;

const KEY: [u8; 16] = [
    0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C,
];

/// The second handle's AES-256 key: the IP-core slots serve it through
/// the software fallback.
const LONG_KEY: [u8; 32] = [
    0x60, 0x3D, 0xEB, 0x10, 0x15, 0xCA, 0x71, 0xBE, 0x2B, 0x73, 0xAE, 0xF0, 0x85, 0x7D, 0x77, 0x81,
    0x1F, 0x35, 0x2C, 0x07, 0x3B, 0x61, 0x08, 0xD7, 0x2D, 0x98, 0x10, 0xA3, 0x09, 0x14, 0xDF, 0xF4,
];

const SUBMITTERS: usize = 4;
const JOBS_PER_SUBMITTER: usize = 40;
const WAIT: Duration = Duration::from_secs(30);

fn sample(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31) + i * 7) as u8)
        .collect()
}

/// The single-threaded reference result for the job a submitter derives
/// from `(thread, iteration)`, under `key`.
fn reference(key: &[u8], mode: &Mode, data: &[u8]) -> Vec<u8> {
    let cipher = Rijndael::<4>::new(key).unwrap();
    let mut out = data.to_vec();
    match mode {
        Mode::EcbEncrypt => Ecb::encrypt(&cipher, &mut out).unwrap(),
        Mode::EcbDecrypt => Ecb::decrypt(&cipher, &mut out).unwrap(),
        Mode::Ctr(nonce) => Ctr::apply(&cipher, nonce, &mut out),
        Mode::CbcEncrypt(iv) => Cbc::encrypt(&cipher, iv, &mut out).unwrap(),
        Mode::CbcDecrypt(iv) => Cbc::decrypt(&cipher, iv, &mut out).unwrap(),
        _ => unreachable!("stress uses ECB/CTR/CBC only"),
    }
    out
}

/// One submitter's job plan: parallel modes dominate (they shard across
/// workers), with a chained stream mixed in as one whole task. The
/// direction follows the farm's datapath — a decrypt-only IP farm gets
/// decrypt work.
fn plan(encrypt: bool, thread: usize, i: usize) -> (Mode, Vec<u8>) {
    let len = 16 * (1 + (thread + i) % 24);
    let data = sample(thread * 1000 + i, len);
    let mode = if encrypt {
        match i % 4 {
            0 | 1 => Mode::EcbEncrypt,
            2 => Mode::Ctr([thread as u8; 16]),
            _ => Mode::CbcEncrypt([i as u8; 16]),
        }
    } else {
        match i % 3 {
            0 | 1 => Mode::EcbDecrypt,
            _ => Mode::CbcDecrypt([i as u8; 16]),
        }
    };
    (mode, data)
}

/// Runs the full stress against one backend spec: submitters on two
/// handles with different keys race a chaos thread that grows, swaps,
/// and shrinks the farm until everyone is done, then shutdown drains the
/// rest.
fn stress(spec: BackendSpec) {
    let encrypt = spec.build(&KEY).supports(aes_ip::core::Direction::Encrypt);
    let farm = Arc::new(PoolBuilder::new().cores(&[spec; 2]).spawn().unwrap());
    let keys: [&'static [u8]; 2] = [&KEY, &LONG_KEY];
    let pools: Vec<Arc<WorkerPool>> = keys
        .iter()
        .map(|key| Arc::new(farm.handle(key, SUBMITTERS * 2, None)))
        .collect();
    // Receipts per handle: each handle's ids are its own.
    type Receipts = Arc<Mutex<BTreeMap<(usize, JobId), Vec<u8>>>>;
    let expected: Receipts = Arc::new(Mutex::new(BTreeMap::new()));
    let done = Arc::new(AtomicBool::new(false));

    let mut submitters = Vec::new();
    for t in 0..SUBMITTERS {
        let h = t % 2;
        let pool = Arc::clone(&pools[h]);
        let key = keys[h];
        let expected = Arc::clone(&expected);
        submitters.push(thread::spawn(move || {
            for i in 0..JOBS_PER_SUBMITTER {
                let (mode, data) = plan(encrypt, t, i);
                let want = reference(key, &mode, &data);
                loop {
                    match pool.try_submit(mode, data.clone()) {
                        Ok(id) => {
                            // Record *after* acceptance: the id is the
                            // receipt the farm must honor exactly once.
                            expected.lock().unwrap().insert((h, id), want);
                            break;
                        }
                        Err(engine::SubmitError::Busy { .. }) => {
                            thread::yield_now();
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            }
        }));
    }

    // Chaos: resize and hot-swap the farm while the submitters hammer it.
    let chaos = {
        let farm = Arc::clone(&farm);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let alternates = [BackendSpec::Software, BackendSpec::Ttable, spec];
            let mut round = 0usize;
            let mut grown: Vec<usize> = Vec::new();
            while !done.load(Ordering::Relaxed) {
                match round % 4 {
                    0 => grown.push(
                        farm.add_core(alternates[round % alternates.len()])
                            .expect("spawn a worker"),
                    ),
                    1 => {
                        farm.swap_core(round % 2, alternates[(round + 1) % alternates.len()]);
                    }
                    2 => {
                        if let Some(idx) = grown.pop() {
                            farm.remove_core(idx);
                        }
                    }
                    _ => {
                        // Let the run queue actually build.
                        thread::sleep(Duration::from_millis(1));
                    }
                }
                round += 1;
                thread::yield_now();
            }
            // Leave the farm in a sane shape for the drain.
            for idx in grown {
                farm.remove_core(idx);
            }
        })
    };

    // Collector: drain both handles concurrently so capacity keeps
    // turning over.
    let total = SUBMITTERS * JOBS_PER_SUBMITTER;
    let mut got: BTreeMap<(usize, JobId), Result<Vec<u8>, engine::JobError>> = BTreeMap::new();
    let deadline = std::time::Instant::now() + WAIT;
    while got.len() < total {
        assert!(
            std::time::Instant::now() < deadline,
            "a completion arrives while work is outstanding"
        );
        for (h, pool) in pools.iter().enumerate() {
            if let Some(out) = pool.collect_timeout(Duration::from_millis(1)) {
                assert!(
                    got.insert((h, out.id), out.data).is_none(),
                    "duplicate completion for {} on handle {h}",
                    out.id
                );
            }
        }
    }
    for s in submitters {
        s.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    chaos.join().unwrap();
    farm.shutdown();

    // Every accepted id completed exactly once, and nothing extra came
    // back.
    let expected = expected.lock().unwrap();
    assert_eq!(got.len(), expected.len(), "lost or phantom completions");
    let mut failures = 0usize;
    for (&(h, id), want) in expected.iter() {
        match got.get(&(h, id)).expect("accepted job completed") {
            Ok(bytes) => assert_eq!(
                bytes, want,
                "ciphertext mismatch for {id} on handle {h} under {spec:?}"
            ),
            // A job sharded onto a worker retired at the wrong moment may
            // legitimately fail typed when nobody else could serve it —
            // the chaos thread only guarantees at least one worker
            // remains, and slot-0 swaps keep full capability here, so
            // failures should be rare and typed, never silent.
            Err(engine::JobError::NoCapableCore { .. }) => failures += 1,
            Err(e) => panic!("unexpected job fault for {id}: {e}"),
        }
    }
    assert!(
        failures == 0,
        "farm always kept a capable worker, yet {failures} jobs failed"
    );
}

#[test]
fn stress_every_detected_backend() {
    for spec in BackendSpec::detected() {
        stress(spec);
    }
}

/// Shutdown racing live submission: whatever wins, every accepted id
/// still completes exactly once.
#[test]
fn shutdown_races_submitters_without_losing_receipts() {
    let pool = Arc::new(WorkerPool::with_farm(&KEY, &[BackendSpec::Ttable; 2], 16));
    let accepted = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for t in 0..SUBMITTERS {
        let pool = Arc::clone(&pool);
        let accepted = Arc::clone(&accepted);
        handles.push(thread::spawn(move || {
            for i in 0..JOBS_PER_SUBMITTER {
                match pool.try_submit(Mode::EcbEncrypt, sample(t * 100 + i, 64)) {
                    Ok(id) => accepted.lock().unwrap().push(id),
                    Err(_) => thread::yield_now(),
                }
            }
        }));
    }
    // Shut down mid-flight.
    thread::sleep(Duration::from_millis(2));
    pool.farm().shutdown();
    for h in handles {
        h.join().unwrap();
    }
    let accepted = accepted.lock().unwrap();
    let mut seen = BTreeMap::new();
    while let Some(out) = pool.try_collect() {
        assert!(seen.insert(out.id, ()).is_none(), "duplicate completion");
        assert!(out.data.is_ok());
    }
    assert_eq!(
        seen.len(),
        accepted.len(),
        "accepted receipts must all land"
    );
}

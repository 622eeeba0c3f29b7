//! Per-connection sessions: one key, one handle on the server's farm.
//!
//! A `SET_KEY` request creates a [`Session`]: a [`WorkerPool`] handle
//! keyed with the submitted key on the server's one worker [`Farm`], and
//! nothing else — no key schedule until the first keyed op. The handle
//! is the session's one executor: engine ops run on it as jobs, and
//! CMAC, GCM, XTS and key wrap run on its caller-runs lane
//! ([`WorkerPool::run_here_with`]) over the same lazily keyed backend,
//! so the farm's specs decide what computes every op and every block
//! lands in `engine.core.*`. Keys may be 16, 24 or 32 bytes
//! (AES-128/192/256); the modeled IP cores are AES-128-only, so longer
//! keys divert their farm slots to the software fallback backend, and an
//! op needing a direction no spec serves fails typed.
//!
//! The key is never echoed on the wire and the only raw copy kept is
//! the handle's: every bulk job carries it to the worker that runs it.
//! When the session is dropped — connection teardown, idle expiry, or a
//! re-key replacing it — that copy and the expanded schedules wipe
//! themselves (`rijndael::zeroize`), the hardware backends reload an
//! all-zero key, a worker still holding a schedule under the key drops
//! it once idle, and the session's bulk jobs still queued on the farm
//! are cancelled.
//!
//! The farm publishes into the server's [`telemetry::Registry`], so the
//! `engine.core.*` counters a `GET_STATS` reply carries aggregate over
//! every session the server ever keyed.
//!
//! The block-mode ops take one of the handle's two lanes (CMAC, GCM, XTS
//! and key wrap always take the caller's), and the size threshold that
//! picks the lane lives here and nowhere else:
//!
//! * below [`BULK_THRESHOLD`] bytes a job runs on the caller's thread
//!   ([`WorkerPool::run_here`]) — the shard's event loop — because
//!   handing it to a worker would cost more than computing it;
//! * at or above it, a job goes to the farm's worker threads, so the
//!   event loop returns to `poll(2)` at once and one large job never
//!   head-of-line-blocks the other connections on the shard.
//!
//! [`Session::submit`] tags each job with the request's correlation id,
//! and [`Session::collect`] returns the finished ones: caller-side
//! results first, then farm completions in **completion order** — which
//! across a multi-core farm is not submission order; that is the
//! out-of-order property the wire format's correlation id exists to
//! carry.

use std::sync::Arc;

use aes_ip::core::Direction;
use engine::{
    BackendSpec, Farm, JobError, JobId, Mode, Notifier, PoolBuilder, SubmitError, WorkerPool,
};
use rijndael::aead::{self, Aead, Gcm, Xts, NONCE_LEN};
use rijndael::cmac;
use telemetry::Registry;

/// Payload size (eight 16-byte blocks) from which pipelined engine ops
/// run on the farm's worker threads instead of the caller's.
pub const BULK_THRESHOLD: usize = 8 * 16;

/// One finished pipelined job: its correlation id and its bytes or
/// typed fault.
type Finished = (u32, Result<Vec<u8>, JobError>);

/// The forward cipher alone: CMAC, GCM, XTS encryption and key wrap.
const ENCRYPT: &[Direction] = &[Direction::Encrypt];

/// One keyed session: its handle on the farm and the bookkeeping for
/// pipelined jobs.
pub struct Session {
    id: u32,
    /// The session's handle on the farm, its one executor. Caller-side
    /// backends are keyed on the first small job or lane op, so a
    /// session holding only a key costs none.
    pool: WorkerPool,
    /// Caller-side results awaiting the next [`Session::collect`].
    parked: Vec<Finished>,
    /// Pool jobs not yet collected: `(job, correlation id)`.
    open: Vec<(JobId, u32)>,
}

impl Session {
    /// Keys a session on a farm of its own over `farm`, publishing into
    /// `registry`; the farm's threads are joined when the session drops.
    /// The server keys its sessions on its one farm with
    /// [`Session::on_farm`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16, 24 or 32 bytes, or a worker
    /// thread cannot spawn.
    #[must_use]
    pub fn new(
        id: u32,
        key: &[u8],
        farm: &[BackendSpec],
        queue_capacity: usize,
        registry: &Registry,
    ) -> Session {
        let farm = PoolBuilder::new()
            .cores(farm)
            .registry(registry.clone())
            .spawn()
            .expect("spawn engine worker threads");
        Session::on_farm(id, key, &Arc::new(farm), queue_capacity, None)
    }

    /// Keys a session on `farm`: its handle holds at most
    /// `queue_capacity` open jobs and fires `notifier` per delivered
    /// job. No key schedule is built here. The caller owns (and should
    /// wipe) its copy of the key; this type keeps only the handle's copy
    /// and the schedules its lane keys later, all of which self-wipe on
    /// drop.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16, 24 or 32 bytes — the server
    /// validates lengths at the protocol boundary
    /// (`ErrorCode::BadKeyLength`) before constructing a session — or on
    /// a zero `queue_capacity`.
    #[must_use]
    pub fn on_farm(
        id: u32,
        key: &[u8],
        farm: &Arc<Farm>,
        queue_capacity: usize,
        notifier: Option<Notifier>,
    ) -> Session {
        Session {
            id,
            pool: farm.handle(key, queue_capacity, notifier),
            parked: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Waits (up to `timeout`) for every bulk job of this session still
    /// queued or executing on the farm to finish, so a following
    /// [`Session::collect`] returns them. Returns `true` when they all
    /// did. The server's connection drain calls this before a re-key, a
    /// goodbye or the close after a half-close — `collect` never
    /// blocks, and dropping the session mid-execution would silently
    /// discard an accepted request's reply.
    #[must_use]
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        self.pool.wait_idle_timeout(timeout)
    }

    /// The server-assigned session id carried in every frame.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Pipelined jobs not yet delivered (parked caller-side results plus
    /// open farm jobs) — the per-session contribution to the server's
    /// in-flight gauge, and the server's cue to collect.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.parked.len() + self.open.len()
    }

    /// Accepts a pipelined job tagged with the request's correlation id;
    /// its result surfaces from a later [`Session::collect`].
    ///
    /// Payloads of [`BULK_THRESHOLD`] bytes or more go to the farm's
    /// worker threads. Smaller ones run right here on the caller's thread
    /// and their result is parked for the next collect.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] verbatim: `RaggedLength` for a ragged ECB/CBC
    /// buffer at any size, and `Busy` — the per-session backpressure
    /// signal the server forwards as a typed reply — when the session
    /// already holds its capacity of unfinished bulk jobs.
    pub fn submit(&mut self, corr: u32, mode: Mode, data: Vec<u8>) -> Result<(), SubmitError> {
        if data.len() >= BULK_THRESHOLD {
            let id = self.pool.try_submit(mode, data)?;
            self.open.push((id, corr));
            return Ok(());
        }
        let result = self.pool.run_here(mode, data)?;
        self.parked.push((corr, result));
        Ok(())
    }

    /// Returns every finished pipelined job, tagged with its
    /// correlation id: parked caller-side results first, then the farm
    /// completions ready right now, in completion order. Never blocks.
    pub fn collect(&mut self) -> Vec<Finished> {
        let mut done = std::mem::take(&mut self.parked);
        while !self.open.is_empty() {
            let Some(out) = self.pool.try_collect() else {
                break;
            };
            if let Some(pos) = self.open.iter().position(|&(id, _)| id == out.id) {
                let (_, corr) = self.open.swap_remove(pos);
                done.push((corr, out.data));
            }
        }
        done
    }

    /// Computes the AES-CMAC tag of `message` under the session key.
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`] (this holds for every op below): no farm
    /// spec serves the directions the op needs, or the backend faulted
    /// or panicked.
    pub fn cmac_tag(&self, message: &[u8]) -> Result<[u8; 16], JobError> {
        self.pool
            .run_here_with(ENCRYPT, |cipher| cmac::cmac(cipher, message))
    }

    /// Constant-time verification of an AES-CMAC tag.
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`].
    pub fn cmac_verify(&self, message: &[u8], tag: &[u8; 16]) -> Result<bool, JobError> {
        self.pool
            .run_here_with(ENCRYPT, |cipher| cmac::verify(cipher, message, tag))
    }

    /// AES-GCM seal under the session key: returns ciphertext ‖ tag.
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`].
    pub fn seal(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, JobError> {
        self.pool.run_here_with(ENCRYPT, |cipher| {
            Gcm::new(cipher).seal(nonce, aad, plaintext)
        })
    }

    /// AES-GCM open under the session key: verifies the tag in constant
    /// time before releasing any plaintext. The inner result is the
    /// open's own verdict: [`aead::Error::TagMismatch`] on
    /// authentication failure, [`aead::Error::Truncated`] when `sealed`
    /// is shorter than a tag.
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`].
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Result<Vec<u8>, aead::Error>, JobError> {
        self.pool
            .run_here_with(ENCRYPT, |cipher| Gcm::new(cipher).open(nonce, aad, sealed))
    }

    /// Applies AES-XTS (IEEE 1619) over consecutive sectors: sector `i`
    /// of `data` (chunks of `sector_size` bytes) uses tweak
    /// `sector_base + i`, wrapping at `u64::MAX`. Ragged sector sizes
    /// use ciphertext stealing, so the output length equals the input
    /// length. Single-key convention: the session key keys both the data
    /// and the tweak cipher (the wire carries exactly one key per
    /// session), so a client can reproduce the stream with
    /// `Xts::new(C::new(k), C::new(k))`. The caller validates that
    /// `sector_size >= 16` and that `data` is a non-empty whole number of
    /// sectors (the protocol boundary answers `BadSectorSize`
    /// otherwise); the inner result is
    /// [`aead::Error::SectorTooShort`] when a sector is under one block
    /// (unreachable after that validation).
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`]; decryption needs a backend with both
    /// directions.
    pub fn xts_apply(
        &self,
        sector_base: u64,
        sector_size: usize,
        mut data: Vec<u8>,
        decrypt: bool,
    ) -> Result<Result<Vec<u8>, aead::Error>, JobError> {
        let dirs = if decrypt {
            &[Direction::Encrypt, Direction::Decrypt]
        } else {
            ENCRYPT
        };
        let done = self.pool.run_here_with(dirs, |cipher| {
            let xts = Xts::new(cipher, cipher);
            for (i, sector) in data.chunks_mut(sector_size).enumerate() {
                let number = sector_base.wrapping_add(i as u64);
                if decrypt {
                    xts.decrypt_sector(number, sector)?;
                } else {
                    xts.encrypt_sector(number, sector)?;
                }
            }
            Ok(())
        })?;
        Ok(done.map(|()| data))
    }

    /// SP 800-38F / RFC 3394 key wrap with the session key as the KEK.
    /// The inner result is [`aead::Error::BadWrapLength`] unless
    /// `key_data` is at least 16 bytes and a multiple of 8.
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`].
    pub fn wrap_key(&self, key_data: &[u8]) -> Result<Result<Vec<u8>, aead::Error>, JobError> {
        self.pool
            .run_here_with(ENCRYPT, |cipher| aead::wrap(cipher, key_data))
    }

    /// RFC 3394 key unwrap with the session key as the KEK. The inner
    /// result is [`aead::Error::TagMismatch`] when the integrity check
    /// fails and [`aead::Error::BadWrapLength`] on an impossible blob
    /// length.
    ///
    /// # Errors
    ///
    /// The lane's [`JobError`]; unwrapping needs the inverse cipher.
    pub fn unwrap_key(&self, wrapped: &[u8]) -> Result<Result<Vec<u8>, aead::Error>, JobError> {
        self.pool.run_here_with(&[Direction::Decrypt], |cipher| {
            aead::unwrap(cipher, wrapped)
        })
    }
}

/// Test oracle: one ECB block under `key`, computed outside any
/// session so server tests can check the wire answer independently.
#[cfg(test)]
pub(crate) fn tests_expected_ecb(key: &[u8], block: &[u8; 16]) -> Vec<u8> {
    let mut out = *block;
    rijndael::Rijndael::<4>::new(key)
        .expect("an AES key length")
        .encrypt(&mut out);
    out.to_vec()
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// The one-session-per-connection slot: allocates session ids and
/// guarantees a re-key drops (and thereby wipes) the previous session
/// before the new one answers traffic.
#[derive(Debug, Default)]
pub struct SessionSlot {
    current: Option<Session>,
    next_id: u32,
}

impl SessionSlot {
    /// An empty slot; crypto ops fail with `NoSession` until a re-key.
    #[must_use]
    pub fn new() -> SessionSlot {
        SessionSlot {
            current: None,
            next_id: 1,
        }
    }

    /// Replaces the session with one keyed on `key` whose engine jobs
    /// run on `farm` (see [`Session::on_farm`]), and returns the new id
    /// (never 0, which the protocol reserves for "no session"). The old
    /// session is dropped with whatever it still owes, so a caller that
    /// has accepted requests on it collects them first (the server
    /// drains it).
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` is not 16, 24 or 32 bytes (validated at the
    /// protocol boundary), or on a zero `queue_capacity`.
    pub fn rekey(
        &mut self,
        key: &[u8],
        farm: &Arc<Farm>,
        queue_capacity: usize,
        notifier: Option<Notifier>,
    ) -> u32 {
        let id = self.next_id.max(1);
        self.next_id = id.wrapping_add(1);
        // Assigning drops the previous session first-class: its handle
        // and cipher schedules wipe their key material on drop.
        self.current = Some(Session::on_farm(id, key, farm, queue_capacity, notifier));
        id
    }

    /// The live session, if any.
    #[must_use]
    pub fn session_mut(&mut self) -> Option<&mut Session> {
        self.current.as_mut()
    }

    /// Drops the live session (wiping its key material).
    pub fn clear(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rijndael::modes::{Cbc, Ctr, Ecb};
    use rijndael::{Aes128, Aes256, BlockCipher, Rijndael};
    use std::time::{Duration, Instant};

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    fn farm() -> Vec<BackendSpec> {
        vec![BackendSpec::EncDecCore, BackendSpec::Software]
    }

    fn session(queue: usize) -> Session {
        Session::new(1, &KEY, &farm(), queue, &Registry::new())
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 13 + 1) as u8).collect()
    }

    /// Collects until `n` results arrived (pool jobs finish on other
    /// threads), failing after ten seconds.
    fn collect_n(s: &mut Session, n: usize) -> Vec<Finished> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < n && Instant::now() < deadline {
            got.extend(s.collect());
        }
        assert_eq!(got.len(), n, "every accepted job delivers");
        got
    }

    /// Submits one job and collects its bytes, on whichever lane its
    /// size picks.
    fn run(s: &mut Session, mode: Mode, data: Vec<u8>) -> Vec<u8> {
        s.submit(0, mode, data).unwrap();
        let (corr, result) = collect_n(s, 1).remove(0);
        assert_eq!(corr, 0);
        result.unwrap()
    }

    #[test]
    fn submit_matches_the_software_reference() {
        let mut s = session(8);
        let reference = Aes128::new(&KEY);

        let data = sample(4 * 16);
        let ct = run(&mut s, Mode::EcbEncrypt, data.clone());
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);

        let iv = [9u8; 16];
        let ct = run(&mut s, Mode::CbcEncrypt(iv), data.clone());
        let mut expect = data.clone();
        Cbc::encrypt(&reference, &iv, &mut expect).unwrap();
        assert_eq!(ct, expect);

        let ct = run(&mut s, Mode::Ctr(iv), sample(37));
        let mut expect = sample(37);
        Ctr::apply(&reference, &iv, &mut expect);
        assert_eq!(ct, expect);
    }

    #[test]
    fn bulk_payloads_match_the_reference_on_the_pool_lane() {
        let mut s = session(8);
        let reference = Aes128::new(&KEY);

        // 24 blocks: well past the threshold, with a ragged granule tail.
        let data = sample(24 * 16);
        let ct = run(&mut s, Mode::EcbEncrypt, data.clone());
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);
        let pt = run(&mut s, Mode::EcbDecrypt, ct);
        assert_eq!(pt, data);

        // CTR keeps its any-length contract at bulk sizes too.
        let nonce = [0xA5u8; 16];
        let data = sample(BULK_THRESHOLD + 5);
        let ct = run(&mut s, Mode::Ctr(nonce), data.clone());
        let mut expect = data;
        Ctr::apply(&reference, &nonce, &mut expect);
        assert_eq!(ct, expect);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn ragged_blocks_fail_typed_at_submit_on_both_lanes() {
        let mut s = session(2);
        for len in [17, BULK_THRESHOLD + 1] {
            assert_eq!(
                s.submit(1, Mode::CbcEncrypt([0; 16]), sample(len)),
                Err(SubmitError::RaggedLength { len })
            );
        }
        // Nothing was accepted, so nothing is owed.
        assert_eq!(s.in_flight(), 0);
        assert!(s.collect().is_empty());
    }

    #[test]
    fn submit_then_collect_returns_results_tagged_by_corr() {
        let mut s = session(8);
        let reference = Aes128::new(&KEY);
        s.submit(0xA1, Mode::EcbEncrypt, sample(32)).unwrap();
        s.submit(0xB2, Mode::Ctr([1; 16]), sample(5)).unwrap();
        assert_eq!(s.in_flight(), 2);

        // Small jobs ran caller-side: one collect returns both.
        let results = s.collect();
        assert_eq!(s.in_flight(), 0);
        let tags: Vec<u32> = results.iter().map(|&(c, _)| c).collect();
        assert_eq!(tags, vec![0xA1, 0xB2]);
        for (corr, data) in results {
            let data = data.unwrap();
            if corr == 0xA1 {
                let mut expect = sample(32);
                Ecb::encrypt(&reference, &mut expect).unwrap();
                assert_eq!(data, expect);
            } else {
                let mut expect = sample(5);
                Ctr::apply(&reference, &[1; 16], &mut expect);
                assert_eq!(data, expect);
            }
        }
        assert!(s.collect().is_empty(), "collect is idempotent once drained");
    }

    #[test]
    fn bulk_pipelined_jobs_take_the_pool_lane_and_match_the_reference() {
        let mut s = session(8);
        let reference = Aes128::new(&KEY);
        let big = sample(64 * 16);
        let small = sample(2 * 16);
        s.submit(0xB16, Mode::EcbEncrypt, big.clone()).unwrap();
        s.submit(0x5A1, Mode::EcbEncrypt, small.clone()).unwrap();
        assert_eq!(s.in_flight(), 2);

        let got = collect_n(&mut s, 2);
        assert_eq!(got[0].0, 0x5A1, "the caller-side result is ready first");
        assert_eq!(s.in_flight(), 0);
        for (corr, data) in got {
            let mut expect = if corr == 0xB16 {
                big.clone()
            } else {
                small.clone()
            };
            Ecb::encrypt(&reference, &mut expect).unwrap();
            assert_eq!(data.unwrap(), expect, "corr {corr:#x}");
        }
    }

    #[test]
    fn pool_lane_notifier_fires_on_bulk_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let farm = Arc::new(PoolBuilder::new().cores(&farm()).spawn().unwrap());
        let notifier: engine::Notifier = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let mut s = Session::on_farm(1, &KEY, &farm, 8, Some(notifier));
        s.submit(1, Mode::Ctr([0; 16]), sample(BULK_THRESHOLD))
            .unwrap();
        assert_eq!(collect_n(&mut s, 1).len(), 1);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quiesce_waits_out_pool_lane_jobs() {
        let mut s = session(8);
        s.submit(0xD1, Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        assert!(
            s.quiesce(Duration::from_secs(10)),
            "the pool lane goes quiet"
        );
        // After a successful quiesce one collect is enough — no
        // retry loop, which is what the shutdown drain relies on.
        let got = s.collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0xD1);
        assert!(got[0].1.is_ok());
    }

    #[test]
    fn busy_surfaces_at_the_submit_boundary_for_bulk_jobs_only() {
        // One paced core at 5 ms a block: each bulk job holds its slot
        // for 40 ms, far longer than the submissions below take.
        let farm = [BackendSpec::Paced {
            block_ns: 5_000_000,
        }];
        let mut s = Session::new(1, &KEY, &farm, 2, &Registry::new());
        let bulk = sample(BULK_THRESHOLD);
        s.submit(1, Mode::Ctr([0; 16]), bulk.clone()).unwrap();
        s.submit(2, Mode::EcbEncrypt, bulk.clone()).unwrap();
        assert_eq!(
            s.submit(3, Mode::EcbEncrypt, bulk.clone()),
            Err(SubmitError::Busy { capacity: 2 })
        );
        // A small job holds no slot, so it is never Busy.
        s.submit(4, Mode::EcbEncrypt, sample(16)).unwrap();
        let mut corrs: Vec<u32> = collect_n(&mut s, 3).iter().map(|&(c, _)| c).collect();
        corrs.sort_unstable();
        assert_eq!(corrs, vec![1, 2, 4]);
        // Collection freed the slots: the bounced job now goes through.
        s.submit(3, Mode::EcbEncrypt, bulk).unwrap();
        assert_eq!(collect_n(&mut s, 1)[0].0, 3);
    }

    #[test]
    fn sessions_sharing_a_registry_aggregate_their_engine_counters() {
        let reg = Registry::new();
        let mut a = Session::new(1, &KEY, &farm(), 8, &reg);
        let mut b = Session::new(2, &KEY, &farm(), 8, &reg);
        run(&mut a, Mode::EcbEncrypt, sample(4 * 16));
        run(&mut b, Mode::EcbEncrypt, sample(2 * 16));
        let snap = reg.snapshot();
        let stats = engine::FarmStats::from_snapshot(&snap);
        assert_eq!(stats.total_blocks(), 6);
        assert_eq!(snap.counter("engine.jobs.completed"), Some(2));
    }

    #[test]
    fn cmac_tag_and_verify_use_the_session_key() {
        let s = session(2);
        // RFC 4493 example 1: empty message.
        let tag = s.cmac_tag(b"").unwrap();
        assert_eq!(tag[..4], [0xBB, 0x1D, 0x69, 0x29]);
        assert_eq!(s.cmac_verify(b"", &tag), Ok(true));
        let mut bad = tag;
        bad[15] ^= 1;
        assert_eq!(s.cmac_verify(b"", &bad), Ok(false));
    }

    #[test]
    fn seal_and_open_roundtrip_for_every_key_size() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let s = Session::new(1, &key, &farm(), 8, &Registry::new());
            let nonce = [7u8; NONCE_LEN];
            let sealed = s.seal(&nonce, b"header", b"the plaintext").unwrap();
            assert_eq!(sealed.len(), 13 + 16);
            assert_eq!(
                s.open(&nonce, b"header", &sealed),
                Ok(Ok(b"the plaintext".to_vec()))
            );
            let mut tampered = sealed;
            tampered[0] ^= 1;
            assert_eq!(
                s.open(&nonce, b"header", &tampered),
                Ok(Err(aead::Error::TagMismatch))
            );
        }
    }

    #[test]
    fn seal_matches_the_direct_gcm_construction() {
        let key = [0x42u8; 32];
        let s = Session::new(1, &key, &farm(), 8, &Registry::new());
        let direct = Gcm::new(Aes256::new(&key));
        let nonce = [9u8; NONCE_LEN];
        assert_eq!(
            s.seal(&nonce, b"aad", b"payload"),
            Ok(direct.seal(&nonce, b"aad", b"payload"))
        );
    }

    #[test]
    fn xts_lane_matches_the_direct_construction_and_roundtrips() {
        // The reference is the golden cipher, whatever backend the farm
        // or a forced dispatch picks for the session.
        fn reference(key: &[u8]) -> Xts<Rijndael<4>> {
            let cipher = || Rijndael::<4>::new(key).unwrap();
            Xts::new(cipher(), cipher())
        }
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len as u8)
                .map(|i| i.wrapping_mul(7) ^ 0x3A)
                .collect();
            let s = Session::new(1, &key, &farm(), 8, &Registry::new());
            // Three 20-byte sectors starting at sector 5: ciphertext
            // stealing on every sector, consecutive tweaks.
            let data = sample(3 * 20);
            let ct = s.xts_apply(5, 20, data.clone(), false).unwrap().unwrap();
            assert_eq!(ct.len(), data.len());
            assert_ne!(ct, data);
            let mut expect = data.clone();
            let xts = reference(&key);
            for (i, sector) in expect.chunks_mut(20).enumerate() {
                xts.encrypt_sector(5 + i as u64, sector).unwrap();
            }
            assert_eq!(ct, expect, "key_len {key_len}");
            let pt = s.xts_apply(5, 20, ct, true).unwrap().unwrap();
            assert_eq!(pt, data);
        }
    }

    #[test]
    fn xts_sector_numbering_wraps_instead_of_panicking() {
        let s = session(8);
        let data = sample(2 * 16);
        let ct = s.xts_apply(u64::MAX, 16, data.clone(), false).unwrap();
        let pt = s.xts_apply(u64::MAX, 16, ct.unwrap(), true).unwrap();
        assert_eq!(pt, Ok(data));
    }

    #[test]
    fn key_wrap_roundtrips_and_authenticates() {
        let s = session(2);
        let secret = [0x55u8; 24];
        let wrapped = s.wrap_key(&secret).unwrap().unwrap();
        assert_eq!(wrapped.len(), secret.len() + 8);
        assert_eq!(s.unwrap_key(&wrapped), Ok(Ok(secret.to_vec())));
        let mut bad = wrapped;
        bad[3] ^= 0x80;
        assert_eq!(s.unwrap_key(&bad), Ok(Err(aead::Error::TagMismatch)));
        assert_eq!(
            s.wrap_key(&[0u8; 7]),
            Ok(Err(aead::Error::BadWrapLength { len: 7 }))
        );
    }

    #[test]
    fn long_keys_drive_both_lanes() {
        let key: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(9) ^ 0x6C).collect();
        let mut s = Session::new(1, &key, &farm(), 8, &Registry::new());
        let reference = Aes256::new(key.as_slice().try_into().unwrap());

        // Small payload, caller-side (the ip-core slot diverts to the
        // software fallback).
        let data = sample(2 * 16);
        let ct = run(&mut s, Mode::EcbEncrypt, data.clone());
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);

        // Bulk payload, on the worker threads.
        let data = sample(24 * 16);
        s.submit(7, Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data;
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(collect_n(&mut s, 1)[0].1.as_ref().unwrap(), &expect);
    }

    #[test]
    fn rekey_replaces_the_session_and_advances_the_id() {
        let farm = std::sync::Arc::new(PoolBuilder::new().cores(&farm()).spawn().unwrap());
        let mut slot = SessionSlot::new();
        assert!(slot.session_mut().is_none());
        let a = slot.rekey(&KEY, &farm, 4, None);
        slot.session_mut()
            .unwrap()
            .submit(1, Mode::EcbEncrypt, sample(16))
            .unwrap();
        let b = slot.rekey(&[5u8; 16], &farm, 4, None);
        assert_ne!(a, b);
        assert_ne!(b, 0);
        // The parked result went with the old session (the server drains
        // a session before it re-keys).
        assert_eq!(slot.session_mut().unwrap().in_flight(), 0);
        // And the new session really uses the new key, on both lanes.
        let ct = run(slot.session_mut().unwrap(), Mode::EcbEncrypt, vec![0u8; 16]);
        let mut expect = vec![0u8; 16];
        Aes128::new(&[5u8; 16]).encrypt_in_place(&mut expect);
        assert_eq!(ct, expect);
        let bulk = run(
            slot.session_mut().unwrap(),
            Mode::EcbEncrypt,
            vec![0u8; BULK_THRESHOLD],
        );
        assert!(bulk.chunks(16).all(|b| b == expect.as_slice()));
        slot.clear();
        assert!(slot.session_mut().is_none());
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<SessionSlot>();
    }
}

//! Job scheduling across a farm of [`Backend`]s: the cycle model.
//!
//! The paper sells the IP on *area*, not speed: one core occupies ~10% of
//! an EP20K300E, so a system integrator can stamp down several and scale
//! throughput linearly. The [`Engine`] models that deployment in virtual
//! time, and that is all it is for: the `engine_scaling` report, the
//! `engine_equivalence` suite and the engine bench measure Table-2
//! cycles through it. Real traffic runs on the
//! [`WorkerPool`](crate::WorkerPool), which shares this module's shard
//! planner (`Engine::shares_batched`) and span executor. Jobs are
//! whole mode operations (ECB/CBC/CTR/CFB/OFB over a byte buffer); the
//! scheduler shards counter-mode and ECB work evenly across every capable
//! core (each core pipelines its share through the decoupled bus at one
//! block per latency period) and routes chained modes — where block `i+1`
//! depends on block `i` — to the single least-loaded capable core.
//! Chained streams call the mode functions of [`rijndael::modes`] over
//! the chosen backend lent as a [`BackendCipher`].
//!
//! Submission is backpressured: the queue is bounded and
//! [`Engine::try_submit`] returns [`SubmitError::Busy`] instead of
//! growing without limit, mirroring the `data_ok` handshake one level up.
//!
//! Engines are built with [`EngineBuilder`] and publish their activity
//! into a [`telemetry::Registry`] — their own private one by default, or
//! a shared one via [`EngineBuilder::registry`] so several engines (e.g.
//! one per service session) aggregate into a single snapshot. Per-core
//! counters live under `engine.core.<index>.<backend>.<field>` and are
//! pushed as *deltas* from the backends' own cycle counters, so shared
//! instruments sum coherently; [`FarmStats::from_snapshot`] turns any
//! snapshot back into Table-2 figures.

use std::collections::VecDeque;
use std::fmt;

use aes_ip::core::Direction;
use rijndael::modes::{Cbc, Cfb, Ctr, Ofb};
use telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};

use crate::backend::{Backend, BackendCipher, BackendError, BackendSpec};
use crate::stats::{CoreTel, FarmStats};

/// AES block size in bytes.
const BLOCK: usize = 16;

/// A complete cipher-mode operation over one byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ECB encryption (parallel; requires whole blocks).
    EcbEncrypt,
    /// ECB decryption (parallel; requires whole blocks).
    EcbDecrypt,
    /// CBC encryption (chained; requires whole blocks).
    CbcEncrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// CBC decryption (chained here; requires whole blocks).
    CbcDecrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// CTR keystream application — encryption and decryption are the same
    /// operation (parallel; any length).
    Ctr(
        /// Initial counter block (NIST SP 800-38A convention).
        [u8; 16],
    ),
    /// CFB encryption (chained; any length).
    CfbEncrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// CFB decryption (chained here; any length).
    CfbDecrypt(
        /// Initialisation vector.
        [u8; 16],
    ),
    /// OFB keystream application — self-inverse (chained; any length).
    Ofb(
        /// Initialisation vector.
        [u8; 16],
    ),
}

impl Mode {
    /// Which core datapath the mode exercises. Only CBC decryption and
    /// ECB decryption need the inverse cipher; CTR, CFB and OFB run the
    /// *forward* datapath in both directions, so they schedule onto
    /// encrypt-only cores.
    #[must_use]
    pub fn direction(self) -> Direction {
        match self {
            Mode::EcbDecrypt | Mode::CbcDecrypt(_) => Direction::Decrypt,
            _ => Direction::Encrypt,
        }
    }

    /// `true` when blocks are independent and the job can be sharded
    /// across several cores.
    #[must_use]
    pub fn is_parallel(self) -> bool {
        matches!(self, Mode::EcbEncrypt | Mode::EcbDecrypt | Mode::Ctr(_))
    }

    /// `true` when the buffer must be a whole number of blocks.
    #[must_use]
    pub fn requires_full_blocks(self) -> bool {
        matches!(
            self,
            Mode::EcbEncrypt | Mode::EcbDecrypt | Mode::CbcEncrypt(_) | Mode::CbcDecrypt(_)
        )
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mode::EcbEncrypt => "ecb-encrypt",
            Mode::EcbDecrypt => "ecb-decrypt",
            Mode::CbcEncrypt(_) => "cbc-encrypt",
            Mode::CbcDecrypt(_) => "cbc-decrypt",
            Mode::Ctr(_) => "ctr",
            Mode::CfbEncrypt(_) => "cfb-encrypt",
            Mode::CfbDecrypt(_) => "cfb-decrypt",
            Mode::Ofb(_) => "ofb",
        };
        f.write_str(s)
    }
}

/// Opaque handle identifying a submitted job in [`Engine::run`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Crate-internal constructor so the thread [`pool`](crate::pool) can
    /// mint ids from its own allocator without widening the public API.
    pub(crate) const fn from_raw(raw: u64) -> JobId {
        JobId(raw)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Rejection at the submission boundary (the job never enters the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — drain with [`Engine::run`] and retry.
    Busy {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The mode requires whole 16-byte blocks but the buffer is ragged.
    RaggedLength {
        /// The offending buffer length.
        len: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy { capacity } => {
                write!(f, "engine queue full ({capacity} jobs); run() to drain")
            }
            SubmitError::RaggedLength { len } => {
                write!(f, "mode requires whole 16-byte blocks, got {len} bytes")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Failure of one accepted job (other jobs in the batch still run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// No core in the farm has a datapath for the job's direction.
    NoCapableCore {
        /// The direction nobody supports.
        dir: Direction,
    },
    /// A backend faulted mid-job.
    Backend(BackendError),
    /// The backend panicked while executing the job (on a pool worker or
    /// the pool's caller-runs lane); the panic was contained and the
    /// backend stays in service, but the job's bytes are gone.
    WorkerPanicked,
    /// The job's pool handle was dropped before a worker started it, so
    /// nobody could collect its output.
    Cancelled,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::NoCapableCore { dir } => {
                let verb = match dir {
                    Direction::Encrypt => "encrypt",
                    Direction::Decrypt => "decrypt",
                };
                write!(f, "no core in the farm can {verb}")
            }
            JobError::Backend(e) => write!(f, "{e}"),
            JobError::WorkerPanicked => write!(f, "a pool worker panicked mid-job"),
            JobError::Cancelled => write!(f, "the job's handle was dropped before it ran"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<BackendError> for JobError {
    fn from(e: BackendError) -> Self {
        JobError::Backend(e)
    }
}

/// One finished job from [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// The handle [`Engine::try_submit`] returned for this job.
    pub id: JobId,
    /// The processed buffer, or why the job failed.
    pub data: Result<Vec<u8>, JobError>,
}

struct QueuedJob {
    id: JobId,
    mode: Mode,
    data: Vec<u8>,
}

/// Configures and builds an [`Engine`].
///
/// Replaces the old `Engine::new(Vec<Box<dyn Backend>>, capacity)`
/// constructor: the builder owns farm composition (specs keyed at build
/// time, or pre-keyed boxed backends), the queue capacity, and the
/// telemetry [`Registry`] the engine publishes into.
///
/// # Examples
///
/// ```
/// use engine::{BackendSpec, EngineBuilder, Mode};
///
/// let reg = telemetry::Registry::new();
/// let mut engine = EngineBuilder::new()
///     .cores(&[BackendSpec::EncDecCore; 2])
///     .capacity(4)
///     .registry(reg.clone())
///     .build(&[0x2B; 16]);
/// engine.try_submit(Mode::EcbEncrypt, vec![0; 64]).unwrap();
/// engine.run();
/// assert_eq!(reg.snapshot().counter("engine.jobs.completed"), Some(1));
/// ```
#[derive(Default)]
pub struct EngineBuilder {
    specs: Vec<BackendSpec>,
    extra: Vec<Box<dyn Backend>>,
    capacity: Option<usize>,
    registry: Option<Registry>,
}

impl EngineBuilder {
    /// Starts an empty builder (no cores, default capacity 8, private
    /// registry).
    #[must_use]
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Adds one farm slot built from `spec` (keyed at [`build`] time; IP
    /// cores pay their real key-setup cycles there).
    ///
    /// [`build`]: EngineBuilder::build
    #[must_use]
    pub fn core(mut self, spec: BackendSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds one farm slot per spec, in order.
    #[must_use]
    pub fn cores(mut self, specs: &[BackendSpec]) -> Self {
        self.specs.extend_from_slice(specs);
        self
    }

    /// Adds an already-keyed backend after the spec-built slots.
    #[must_use]
    pub fn backend(mut self, worker: Box<dyn Backend>) -> Self {
        self.extra.push(worker);
        self
    }

    /// Sets the bounded queue capacity (default 8).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Publishes the engine's instruments into `registry` instead of a
    /// fresh private one. Engines sharing a registry (and farm layout)
    /// share instruments; their delta-pushed counters aggregate.
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Keys every spec-built slot with `key` and assembles the engine.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm or a zero-capacity queue — both would make
    /// every submission unroutable — and if `key.len()` is not 16, 24 or
    /// 32 bytes.
    #[must_use]
    pub fn build(self, key: &[u8]) -> Engine {
        let mut workers: Vec<Box<dyn Backend>> = self.specs.iter().map(|s| s.build(key)).collect();
        workers.extend(self.extra);
        assert!(!workers.is_empty(), "an engine needs at least one backend");
        let capacity = self.capacity.unwrap_or(8);
        assert!(capacity > 0, "a zero-capacity queue rejects every job");
        let registry = self.registry.unwrap_or_default();
        let cores_tel = workers
            .iter()
            .enumerate()
            .map(|(i, w)| CoreTel::register(&registry, i, w.name()))
            .collect();
        registry.gauge("engine.queue.capacity").set(capacity as i64);
        Engine {
            queue: VecDeque::new(),
            capacity,
            next_id: 0,
            cores_tel,
            submit_accepted: registry.counter("engine.submit.accepted"),
            submit_busy: registry.counter("engine.submit.busy"),
            submit_ragged: registry.counter("engine.submit.ragged"),
            jobs_completed: registry.counter("engine.jobs.completed"),
            jobs_failed: registry.counter("engine.jobs.failed"),
            queue_depth: registry.gauge("engine.queue.depth"),
            job_latency: registry.hist("engine.job.latency_cycles"),
            registry,
            workers,
        }
    }
}

impl fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("specs", &self.specs)
            .field("extra", &self.extra.len())
            .field("capacity", &self.capacity)
            .field("shared_registry", &self.registry.is_some())
            .finish()
    }
}

/// Multi-core throughput engine: a farm of backends, a bounded job
/// queue, and the shard/route scheduler.
///
/// # Examples
///
/// ```
/// use engine::{BackendSpec, Engine, Mode};
///
/// let key = [0x2B; 16];
/// let mut engine = Engine::with_farm(&key, &[BackendSpec::EncDecCore; 2], 8);
/// let id = engine.try_submit(Mode::Ctr([0; 16]), b"attack at dawn".to_vec()).unwrap();
/// let out = engine.run();
/// assert_eq!(out[0].id, id);
/// let ciphertext = out[0].data.clone().unwrap();
///
/// // CTR is self-inverse: a second pass recovers the plaintext.
/// engine.try_submit(Mode::Ctr([0; 16]), ciphertext).unwrap();
/// assert_eq!(engine.run()[0].data.clone().unwrap(), b"attack at dawn");
/// ```
pub struct Engine {
    workers: Vec<Box<dyn Backend>>,
    queue: VecDeque<QueuedJob>,
    capacity: usize,
    next_id: u64,
    registry: Registry,
    cores_tel: Vec<CoreTel>,
    submit_accepted: Counter,
    submit_busy: Counter,
    submit_ragged: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    queue_depth: Gauge,
    job_latency: Histogram,
}

impl Engine {
    /// Builds a farm from `specs` with a private registry, loading `key`
    /// into every member (IP cores pay their real key-setup cycles here;
    /// 24/32-byte keys divert IP-core specs to the software fallback).
    /// Shorthand for the common [`EngineBuilder`] case.
    #[must_use]
    pub fn with_farm(key: &[u8], specs: &[BackendSpec], capacity: usize) -> Self {
        EngineBuilder::new()
            .cores(specs)
            .capacity(capacity)
            .build(key)
    }

    /// Number of farm slots.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.workers.len()
    }

    /// Jobs waiting in the queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The queue bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The registry this engine publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Enqueues a mode operation over `data`, applying backpressure.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] when the queue is at capacity;
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks (caught here, before the job holds a slot).
    pub fn try_submit(&mut self, mode: Mode, data: Vec<u8>) -> Result<JobId, SubmitError> {
        if self.queue.len() >= self.capacity {
            self.submit_busy.incr();
            return Err(SubmitError::Busy {
                capacity: self.capacity,
            });
        }
        if mode.requires_full_blocks() && !data.len().is_multiple_of(BLOCK) {
            self.submit_ragged.incr();
            return Err(SubmitError::RaggedLength { len: data.len() });
        }
        self.submit_accepted.incr();
        self.queue_depth.add(1);
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(QueuedJob { id, mode, data });
        Ok(id)
    }

    /// Drains the queue in submission order, returning one output per
    /// job. A job that faults reports its [`JobError`]; the rest of the
    /// batch still runs.
    pub fn run(&mut self) -> Vec<JobOutput> {
        // An empty queue means nothing moved since the last sync: skip
        // the per-core delta bookkeeping entirely so pipelined collect
        // loops polling an idle engine stop paying snapshot churn.
        if self.queue.is_empty() {
            return Vec::new();
        }
        let mut outputs = Vec::with_capacity(self.queue.len());
        let mut before = vec![0u64; self.workers.len()];
        while let Some(job) = self.queue.pop_front() {
            self.queue_depth.sub(1);
            for (b, w) in before.iter_mut().zip(&self.workers) {
                *b = w.cycles();
            }
            let QueuedJob { id, mode, mut data } = job;
            let result = self.dispatch(mode, &mut data);
            // Submit-to-complete latency in virtual time: the cores clock
            // concurrently, so the job takes as long as its slowest share.
            let latency = self
                .workers
                .iter()
                .zip(&before)
                .map(|(w, b)| w.cycles().saturating_sub(*b))
                .max()
                .unwrap_or(0);
            self.job_latency.record(latency);
            let data = match result {
                Ok(()) => {
                    self.jobs_completed.incr();
                    Ok(data)
                }
                Err(e) => {
                    self.jobs_failed.incr();
                    Err(e)
                }
            };
            outputs.push(JobOutput { id, data });
        }
        self.sync_telemetry();
        outputs
    }

    /// Pushes each backend's counter growth since the last sync into the
    /// registry.
    fn sync_telemetry(&self) {
        for (w, t) in self.workers.iter().zip(&self.cores_tel) {
            t.sync(w.as_ref());
        }
    }

    /// Captures the registry after syncing this engine's core counters.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.sync_telemetry();
        self.registry.snapshot()
    }

    /// Table-2-style farm figures derived from [`Engine::snapshot`].
    #[must_use]
    pub fn stats(&self) -> FarmStats {
        FarmStats::from_snapshot(&self.snapshot())
    }

    /// Indices of workers that can process `dir`.
    fn eligible(&self, dir: Direction) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&i| self.workers[i].supports(dir))
            .collect()
    }

    fn dispatch(&mut self, mode: Mode, data: &mut [u8]) -> Result<(), JobError> {
        let dir = mode.direction();
        let eligible = self.eligible(dir);
        if eligible.is_empty() {
            return Err(JobError::NoCapableCore { dir });
        }
        if !mode.is_parallel() {
            // Chained modes: block `i+1` depends on block `i`, so the
            // whole stream goes to the single least-loaded eligible core.
            let w = *eligible
                .iter()
                .min_by_key(|&&i| self.workers[i].cycles())
                .expect("eligible is non-empty");
            return run_span(self.workers[w].as_mut(), mode, 0, data);
        }
        // Parallel modes: every eligible core takes its span of the
        // granule plan, through its widest batch path, in place.
        for (pos, first, share) in shard_plan(data.len().div_ceil(BLOCK), eligible.len()) {
            let end = data.len().min((first + share) * BLOCK);
            let span = &mut data[first * BLOCK..end];
            run_span(
                self.workers[eligible[pos]].as_mut(),
                mode,
                first as u128,
                span,
            )?;
        }
        Ok(())
    }

    /// Evenly shards `n` items across `k` shares: the first `n % k`
    /// shares get one extra item.
    fn shares(n: usize, k: usize) -> Vec<usize> {
        let base = n / k;
        (0..k).map(|i| base + usize::from(i < n % k)).collect()
    }

    /// Shards `n` blocks across `k` shares in multiples of the bitsliced
    /// 8-block granule: whole granules are distributed evenly, then the
    /// last non-empty share gives back the padding so the total is
    /// exactly `n`. Every share but possibly the last is a multiple of 8,
    /// which keeps the bitsliced backend's passes full; only one core
    /// ever sees a ragged (padded) granule. Shared with the thread
    /// [`pool`](crate::pool), which queues the same granule plan as one
    /// task per span.
    pub(crate) fn shares_batched(n: usize, k: usize) -> Vec<usize> {
        const GRANULE: usize = 8;
        let mut out: Vec<usize> = Self::shares(n.div_ceil(GRANULE), k)
            .into_iter()
            .map(|g| g * GRANULE)
            .collect();
        let mut excess = out.iter().sum::<usize>() - n;
        for share in out.iter_mut().rev() {
            if *share > 0 {
                *share -= excess;
                excess = 0;
                break;
            }
        }
        debug_assert_eq!(excess, 0);
        out
    }
}

/// The one shard planner: walks the [`Engine::shares_batched`] plan for
/// `n` blocks over `k` cores and yields `(core position, first block,
/// blocks)` for every non-empty share, in stream order. The engine runs
/// the spans in place; the thread [`pool`](crate::pool) queues them as
/// tasks on its run queue.
pub(crate) fn shard_plan(n: usize, k: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut first = 0;
    Engine::shares_batched(n, k)
        .into_iter()
        .enumerate()
        .filter(|&(_, share)| share > 0)
        .map(move |(pos, share)| {
            first += share;
            (pos, first - share, share)
        })
}

/// Runs one span of a job on one backend, in place — the single-backend
/// executor the virtual-time [`Engine`] and the thread
/// [`pool`](crate::pool) (workers and caller-runs lane) share.
///
/// * ECB pushes its whole blocks through the backend's widest batch
///   path.
/// * CTR generates the keystream for the span's contiguous counter
///   values (SP 800-38A increment; `first_block` is the span's offset
///   into the stream) into one scratch buffer and XORs it in.
/// * Chained modes are never split (`first_block` is 0): they call the
///   [`rijndael::modes`] functions over the backend lent as a
///   [`BackendCipher`].
pub(crate) fn run_span(
    backend: &mut dyn Backend,
    mode: Mode,
    first_block: u128,
    data: &mut [u8],
) -> Result<(), JobError> {
    let lent = match mode {
        Mode::EcbEncrypt | Mode::EcbDecrypt => {
            let (blocks, rest) = data.as_chunks_mut::<BLOCK>();
            debug_assert!(rest.is_empty(), "length validated at submission");
            backend.process_batch(blocks, mode.direction())?;
            return Ok(());
        }
        Mode::Ctr(nonce) => {
            let mut counters = vec![[0u8; 16]; data.len().div_ceil(BLOCK)];
            Ctr::fill_counter_blocks(&nonce, first_block, &mut counters);
            backend.process_batch(&mut counters, Direction::Encrypt)?;
            for (chunk, keystream) in data.chunks_mut(BLOCK).zip(&counters) {
                for (byte, k) in chunk.iter_mut().zip(keystream) {
                    *byte ^= k;
                }
            }
            return Ok(());
        }
        Mode::CbcEncrypt(iv) => BackendCipher::lend(backend, |c| {
            Cbc::encrypt(c, &iv, data).expect("length validated at submission");
        }),
        Mode::CbcDecrypt(iv) => BackendCipher::lend(backend, |c| {
            Cbc::decrypt(c, &iv, data).expect("length validated at submission");
        }),
        Mode::CfbEncrypt(iv) => BackendCipher::lend(backend, |c| Cfb::encrypt(c, &iv, data)),
        Mode::CfbDecrypt(iv) => BackendCipher::lend(backend, |c| Cfb::decrypt(c, &iv, data)),
        Mode::Ofb(iv) => BackendCipher::lend(backend, |c| Ofb::apply(c, &iv, data)),
    };
    // A latched backend fault trumps what the mode computed: the mode
    // kept going over stale bytes after it.
    Ok(lent?)
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("cores", &self.cores())
            .field("queued", &self.queue.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Drop for Engine {
    /// Returns queued-but-never-run jobs to the depth gauge and pushes
    /// the final counter deltas, so a shared registry stays coherent
    /// after per-session engines come and go.
    fn drop(&mut self) {
        if !self.queue.is_empty() {
            self.queue_depth.sub(self.queue.len() as i64);
        }
        self.sync_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aes_ip::core::LATENCY_CYCLES;
    use rijndael::modes::Ecb;
    use rijndael::Aes128;

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn shares_split_evenly() {
        assert_eq!(Engine::shares(10, 3), vec![4, 3, 3]);
        assert_eq!(Engine::shares(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(Engine::shares(0, 2), vec![0, 0]);
        assert_eq!(Engine::shares(8, 1), vec![8]);
    }

    #[test]
    fn shares_batched_deals_whole_granules_and_trims_the_tail() {
        // Whole granules spread evenly, exact total preserved.
        assert_eq!(Engine::shares_batched(24, 3), vec![8, 8, 8]);
        assert_eq!(Engine::shares_batched(64, 3), vec![24, 24, 16]);
        // Padding comes back out of the last non-empty share.
        assert_eq!(Engine::shares_batched(7, 3), vec![7, 0, 0]);
        assert_eq!(Engine::shares_batched(11, 4), vec![8, 3, 0, 0]);
        assert_eq!(Engine::shares_batched(65, 2), vec![40, 25]);
        assert_eq!(Engine::shares_batched(0, 2), vec![0, 0]);
        // Every share except the trimmed one is a granule multiple.
        for (n, k) in [(123, 5), (8, 4), (100, 3)] {
            let shares = Engine::shares_batched(n, k);
            assert_eq!(shares.iter().sum::<usize>(), n, "shares_batched({n},{k})");
            let ragged = shares.iter().filter(|s| *s % 8 != 0).count();
            assert!(ragged <= 1, "shares_batched({n},{k}) = {shares:?}");
        }
    }

    #[test]
    fn ecb_sharded_across_cores_matches_reference() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncryptCore; 3], 4);
        let data = sample(24 * 16);
        let id = engine.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
        let out = engine.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, id);

        let mut expected = data;
        Ecb::encrypt(&Aes128::new(&KEY), &mut expected).unwrap();
        assert_eq!(out[0].data.as_ref().unwrap(), &expected);

        // All three cores took part: one full 8-block granule each.
        let s = engine.stats();
        let blocks: Vec<u64> = s.per_core.iter().map(|c| c.blocks).collect();
        assert_eq!(blocks, vec![8, 8, 8]);
    }

    #[test]
    fn ctr_sharded_across_cores_matches_reference_including_partial_tail() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 4], 4);
        let nonce = [0xF0u8; 16];
        let data = sample(10 * 16 + 5);
        engine.try_submit(Mode::Ctr(nonce), data.clone()).unwrap();
        let out = engine.run();

        let mut expected = data;
        Ctr::apply(&Aes128::new(&KEY), &nonce, &mut expected);
        assert_eq!(out[0].data.as_ref().unwrap(), &expected);
    }

    #[test]
    fn chained_modes_run_on_one_core_and_match_reference() {
        let reference = Aes128::new(&KEY);
        let iv = [0x11u8; 16];
        for (mode, apply) in [
            (
                Mode::CbcEncrypt(iv),
                Box::new(|d: &mut [u8]| Cbc::encrypt(&reference, &iv, d).unwrap())
                    as Box<dyn Fn(&mut [u8])>,
            ),
            (
                Mode::CbcDecrypt(iv),
                Box::new(|d: &mut [u8]| Cbc::decrypt(&reference, &iv, d).unwrap()),
            ),
            (
                Mode::CfbEncrypt(iv),
                Box::new(|d: &mut [u8]| Cfb::encrypt(&reference, &iv, d)),
            ),
            (
                Mode::CfbDecrypt(iv),
                Box::new(|d: &mut [u8]| Cfb::decrypt(&reference, &iv, d)),
            ),
            (
                Mode::Ofb(iv),
                Box::new(|d: &mut [u8]| Ofb::apply(&reference, &iv, d)),
            ),
        ] {
            let len = if mode.requires_full_blocks() {
                5 * 16
            } else {
                77
            };
            let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 3], 2);
            let data = sample(len);
            engine.try_submit(mode, data.clone()).unwrap();
            let out = engine.run();

            let mut expected = data;
            apply(&mut expected);
            assert_eq!(out[0].data.as_ref().unwrap(), &expected, "{mode}");

            // Exactly one core did all the work.
            let active = engine
                .stats()
                .per_core
                .iter()
                .filter(|c| c.blocks > 0)
                .count();
            assert_eq!(active, 1, "{mode} must stay on a single core");
        }
    }

    #[test]
    fn backpressure_rejects_submissions_past_capacity() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 2);
        engine.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        engine.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
        let err = engine
            .try_submit(Mode::Ctr([0; 16]), sample(5))
            .unwrap_err();
        assert_eq!(err, SubmitError::Busy { capacity: 2 });

        // Draining frees the queue.
        assert_eq!(engine.run().len(), 2);
        assert!(engine.try_submit(Mode::Ctr([0; 16]), sample(5)).is_ok());
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        assert_send::<JobOutput>();
        assert_send::<SubmitError>();
    }

    #[test]
    fn backpressure_with_mixed_modes_drains_and_resubmits_in_order() {
        // Queue-full / drain / resubmit across a mix of parallel (ECB,
        // CTR) and chained (CBC, OFB) jobs: the submission boundary must
        // not care which scheduler path a queued job will take.
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 2], 3);
        let a = engine.try_submit(Mode::EcbEncrypt, sample(4 * 16)).unwrap();
        let b = engine
            .try_submit(Mode::CbcEncrypt([1; 16]), sample(2 * 16))
            .unwrap();
        let c = engine.try_submit(Mode::Ctr([2; 16]), sample(33)).unwrap();

        // Full: both a parallel and a chained submission bounce.
        assert_eq!(
            engine.try_submit(Mode::Ctr([3; 16]), sample(5)),
            Err(SubmitError::Busy { capacity: 3 })
        );
        assert_eq!(
            engine.try_submit(Mode::Ofb([4; 16]), sample(5)),
            Err(SubmitError::Busy { capacity: 3 })
        );
        // A rejected submission must not burn a job id.
        assert_eq!(engine.queued(), 3);

        // Drain: outputs come back in submission order, all successful.
        let out = engine.run();
        assert_eq!(out.iter().map(|o| o.id).collect::<Vec<_>>(), vec![a, b, c]);
        assert!(out.iter().all(|o| o.data.is_ok()));
        assert_eq!(engine.queued(), 0);

        // Resubmit: ids keep ascending past the drained batch and a full
        // second cycle (mixed modes again) drains in order too.
        let d = engine.try_submit(Mode::Ofb([5; 16]), sample(7)).unwrap();
        let e = engine.try_submit(Mode::EcbDecrypt, sample(16)).unwrap();
        assert!(c < d && d < e);
        let out = engine.run();
        assert_eq!(out.iter().map(|o| o.id).collect::<Vec<_>>(), vec![d, e]);
        assert!(out.iter().all(|o| o.data.is_ok()));
    }

    #[test]
    fn ragged_ecb_is_rejected_at_submission() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 2);
        let err = engine.try_submit(Mode::EcbEncrypt, sample(17)).unwrap_err();
        assert_eq!(err, SubmitError::RaggedLength { len: 17 });
        assert_eq!(engine.queued(), 0, "rejected jobs hold no queue slot");
        // CTR streams, so ragged lengths are fine.
        assert!(engine.try_submit(Mode::Ctr([0; 16]), sample(17)).is_ok());
    }

    #[test]
    fn decrypt_job_on_encrypt_only_farm_reports_instead_of_panicking() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncryptCore; 2], 2);
        engine.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        let out = engine.run();
        assert_eq!(
            out[0].data,
            Err(JobError::NoCapableCore {
                dir: Direction::Decrypt
            })
        );
        // But CTR decryption runs fine on the forward datapath.
        engine.try_submit(Mode::Ctr([3; 16]), sample(32)).unwrap();
        assert!(engine.run()[0].data.is_ok());
    }

    #[test]
    fn mixed_farm_routes_around_incapable_cores() {
        // Decrypt-only core must be skipped for encrypt work and vice
        // versa; output must still match the reference.
        let specs = [
            BackendSpec::EncryptCore,
            BackendSpec::DecryptCore,
            BackendSpec::Software,
        ];
        let mut engine = Engine::with_farm(&KEY, &specs, 4);
        let data = sample(6 * 16);
        engine.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
        engine.try_submit(Mode::EcbDecrypt, data.clone()).unwrap();
        let out = engine.run();

        let reference = Aes128::new(&KEY);
        let mut enc = data.clone();
        Ecb::encrypt(&reference, &mut enc).unwrap();
        let mut dec = data;
        Ecb::decrypt(&reference, &mut dec).unwrap();
        assert_eq!(out[0].data.as_ref().unwrap(), &enc);
        assert_eq!(out[1].data.as_ref().unwrap(), &dec);

        let s = engine.stats();
        // The encrypt job shards over {ip-encrypt, soft-ref}, the decrypt
        // job over {ip-decrypt, soft-ref}. Six blocks fit inside a single
        // 8-block granule, so the granule planner hands the whole job to
        // the first eligible core and the software core stays idle.
        let by_name: Vec<(&str, u64)> = s
            .per_core
            .iter()
            .map(|c| (c.name.as_str(), c.blocks))
            .collect();
        assert_eq!(
            by_name,
            vec![("ip-encrypt", 6), ("ip-decrypt", 6), ("soft-ref", 0)]
        );
    }

    #[test]
    fn ctr_wall_cycles_shrink_as_cores_are_added() {
        let blocks = 64usize;
        let mut last = u64::MAX;
        for cores in 1..=4 {
            let mut engine = Engine::with_farm(&KEY, &vec![BackendSpec::EncryptCore; cores], 2);
            engine
                .try_submit(Mode::Ctr([9; 16]), sample(blocks * 16))
                .unwrap();
            engine.run();
            let s = engine.stats();
            assert_eq!(s.total_blocks(), blocks as u64);
            // Each core's share costs 1 load edge + 50/block; shares are
            // dealt in 8-block granules (64 blocks = 8 granules).
            let biggest_share = (blocks.div_ceil(8).div_ceil(cores) * 8) as u64;
            assert_eq!(s.wall_cycles(), 1 + biggest_share * LATENCY_CYCLES);
            assert!(
                s.wall_cycles() < last,
                "{cores} cores must beat {}",
                cores - 1
            );
            assert!(
                s.min_occupancy_pct() >= 90.0,
                "cores must stay saturated, got {:.1}%",
                s.min_occupancy_pct()
            );
            last = s.wall_cycles();
        }
    }

    #[test]
    fn least_loaded_core_wins_chained_work() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore; 2], 4);
        // Load core 0 with a chained job, then submit another: it must
        // land on core 1 (cheaper virtual clock).
        engine
            .try_submit(Mode::CbcEncrypt([0; 16]), sample(4 * 16))
            .unwrap();
        engine
            .try_submit(Mode::CbcEncrypt([0; 16]), sample(4 * 16))
            .unwrap();
        engine.run();
        let s = engine.stats();
        assert_eq!(s.per_core[0].blocks, 4);
        assert_eq!(s.per_core[1].blocks, 4);
    }

    #[test]
    fn empty_buffer_jobs_complete_without_work() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncDecCore], 4);
        for mode in [
            Mode::EcbEncrypt,
            Mode::Ctr([0; 16]),
            Mode::CbcEncrypt([0; 16]),
        ] {
            engine.try_submit(mode, Vec::new()).unwrap();
        }
        for out in engine.run() {
            assert_eq!(out.data.unwrap(), Vec::<u8>::new());
        }
        assert_eq!(engine.stats().total_blocks(), 0);
    }

    #[test]
    fn job_ids_are_unique_and_ordered() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 8);
        let a = engine.try_submit(Mode::Ctr([0; 16]), sample(1)).unwrap();
        let b = engine.try_submit(Mode::Ctr([0; 16]), sample(1)).unwrap();
        assert!(a < b);
        let out = engine.run();
        assert_eq!(out[0].id, a);
        assert_eq!(out[1].id, b);
        assert_eq!(a.to_string(), "job#0");
    }

    #[test]
    fn submit_errors_format() {
        assert!(SubmitError::Busy { capacity: 2 }
            .to_string()
            .contains("full"));
        assert!(SubmitError::RaggedLength { len: 17 }
            .to_string()
            .contains("17"));
        let e = JobError::NoCapableCore {
            dir: Direction::Decrypt,
        };
        assert_eq!(e.to_string(), "no core in the farm can decrypt");
    }

    #[test]
    fn builder_publishes_every_instrument_into_a_shared_registry() {
        let reg = Registry::new();
        let mut engine = EngineBuilder::new()
            .cores(&[BackendSpec::EncryptCore; 2])
            .capacity(1)
            .registry(reg.clone())
            .build(&KEY);
        engine.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        // Queue full: the rejection is counted, and the accepted job is
        // visible on the depth gauge before run() drains it.
        assert_eq!(
            engine.try_submit(Mode::EcbEncrypt, sample(16)),
            Err(SubmitError::Busy { capacity: 1 })
        );
        assert_eq!(
            engine.try_submit(Mode::EcbEncrypt, sample(17)),
            Err(SubmitError::Busy { capacity: 1 })
        );
        assert_eq!(reg.snapshot().gauge("engine.queue.depth"), Some(1));
        engine.run();

        let snap = engine.snapshot();
        assert_eq!(snap.counter("engine.submit.accepted"), Some(1));
        assert_eq!(snap.counter("engine.submit.busy"), Some(2));
        assert_eq!(snap.counter("engine.submit.ragged"), Some(0));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(1));
        assert_eq!(snap.counter("engine.jobs.failed"), Some(0));
        assert_eq!(snap.gauge("engine.queue.depth"), Some(0));
        assert_eq!(snap.gauge("engine.queue.capacity"), Some(1));

        // Latency: 8 blocks on one core = 1 load edge + 8 × 50 cycles.
        let lat = snap.histogram("engine.job.latency_cycles").unwrap();
        assert_eq!((lat.count, lat.sum), (1, 1 + 8 * LATENCY_CYCLES));

        // Per-core counters reassemble into the same farm stats, via the
        // engine accessor and via the shared registry alike.
        let stats = FarmStats::from_snapshot(&snap);
        assert_eq!(stats.total_blocks(), 8);
        assert_eq!(stats.per_core.len(), 2);
        assert_eq!(engine.registry().snapshot().counter_sum("engine.core."), {
            snap.counter_sum("engine.core.")
        });
    }

    #[test]
    fn ragged_submissions_are_counted() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::Software], 2);
        let _ = engine.try_submit(Mode::EcbEncrypt, sample(17));
        assert_eq!(engine.snapshot().counter("engine.submit.ragged"), Some(1));
    }

    #[test]
    fn failed_jobs_count_separately_from_completed_ones() {
        let mut engine = Engine::with_farm(&KEY, &[BackendSpec::EncryptCore], 4);
        engine.try_submit(Mode::EcbDecrypt, sample(16)).unwrap();
        engine.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        engine.run();
        let snap = engine.snapshot();
        assert_eq!(snap.counter("engine.jobs.failed"), Some(1));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(1));
    }

    #[test]
    fn engines_sharing_a_registry_aggregate_core_counters() {
        let reg = Registry::new();
        for _ in 0..2 {
            let mut e = EngineBuilder::new()
                .core(BackendSpec::Software)
                .capacity(2)
                .registry(reg.clone())
                .build(&KEY);
            e.try_submit(Mode::EcbEncrypt, sample(4 * 16)).unwrap();
            e.run();
        }
        // Same farm layout, same instrument names: the two engines'
        // delta-pushed counters sum instead of clobbering each other.
        let stats = FarmStats::from_snapshot(&reg.snapshot());
        assert_eq!(stats.total_blocks(), 8);
        assert_eq!(reg.snapshot().counter("engine.jobs.completed"), Some(2));
    }

    #[test]
    fn dropping_an_engine_with_queued_jobs_restores_the_depth_gauge() {
        let reg = Registry::new();
        {
            let mut engine = EngineBuilder::new()
                .core(BackendSpec::Software)
                .capacity(4)
                .registry(reg.clone())
                .build(&KEY);
            engine.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
            engine.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
            assert_eq!(reg.snapshot().gauge("engine.queue.depth"), Some(2));
        }
        assert_eq!(reg.snapshot().gauge("engine.queue.depth"), Some(0));
    }

    #[test]
    fn prekeyed_backends_join_after_spec_built_slots() {
        let soft = BackendSpec::Software.build(&KEY);
        let mut engine = EngineBuilder::new()
            .core(BackendSpec::EncryptCore)
            .backend(soft)
            .capacity(2)
            .build(&KEY);
        assert_eq!(engine.cores(), 2);
        engine
            .try_submit(Mode::EcbEncrypt, sample(16 * 16))
            .unwrap();
        assert!(engine.run()[0].data.is_ok());
        let names: Vec<String> = engine
            .stats()
            .per_core
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(
            names,
            vec!["ip-encrypt".to_string(), "soft-ref".to_string()]
        );
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn builder_panics_on_an_empty_farm() {
        let _ = EngineBuilder::new().build(&KEY);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn builder_panics_on_a_zero_capacity_queue() {
        let _ = EngineBuilder::new()
            .core(BackendSpec::Software)
            .capacity(0)
            .build(&KEY);
    }

    /// A mock whose setup-cycle counter outruns its total-cycle counter
    /// between telemetry syncs (`setup_delta > cycle_delta`): an
    /// adversarial shape for [`Engine::sync_telemetry`], which must still
    /// push each counter's own growth.
    struct AdversarialCounters {
        blocks: u64,
        cycles: u64,
        setup: u64,
    }

    impl Backend for AdversarialCounters {
        fn name(&self) -> &'static str {
            "mock-adversarial"
        }

        fn supports(&self, _dir: Direction) -> bool {
            true
        }

        fn process_block(
            &mut self,
            _block: &mut [u8; 16],
            _dir: Direction,
        ) -> Result<(), BackendError> {
            // Each block grows setup cycles 10x faster than total cycles,
            // so every sync observes setup_delta > cycle_delta.
            self.blocks += 1;
            self.cycles += 2;
            self.setup += 20;
            Ok(())
        }

        fn blocks(&self) -> u64 {
            self.blocks
        }

        fn cycles(&self) -> u64 {
            self.cycles
        }

        fn setup_cycles(&self) -> u64 {
            self.setup
        }

        fn busy_cycles(&self) -> u64 {
            self.blocks
        }
    }

    #[test]
    fn occupancy_survives_setup_delta_exceeding_cycle_delta() {
        let reg = telemetry::Registry::new();
        let mut engine = EngineBuilder::new()
            .backend(Box::new(AdversarialCounters {
                blocks: 0,
                cycles: 0,
                setup: 0,
            }))
            .registry(reg.clone())
            .build(&KEY);
        // Two jobs, two syncs: each sync sees cycle_delta=2·n while
        // setup_delta=20·n. Every counter still takes exactly its own
        // growth, with no debug-build panic.
        for _ in 0..2 {
            engine.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
            let out = engine.run();
            assert!(out[0].data.is_ok());
        }
        let snap = engine.snapshot();
        assert_eq!(
            snap.counter("engine.core.0.mock-adversarial.setup_cycles"),
            Some(40)
        );
    }
}

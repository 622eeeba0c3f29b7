//! True thread-parallel execution: a work-stealing, elastic worker pool
//! with a caller-runs lane — the service's one executor.
//!
//! The [`Engine`](crate::Engine) is the paper's cycle model: cycle
//! counters advance in *virtual time* while every job executes inline on
//! the caller's thread. [`WorkerPool`] is what runs in wall-clock time,
//! in two lanes over one farm configuration:
//!
//! * the **worker lane** — each [`Backend`] core gets an owning OS worker
//!   thread with a local deque, submission goes through a shared `&self`
//!   handle with bounded [`SubmitError::Busy`] semantics, and finished
//!   jobs come back over a completion channel (plus an optional notifier
//!   callback, which the TCP service wires to a self-pipe so its
//!   `poll(2)` loops wake without spinning);
//! * the **caller-runs lane** — [`WorkerPool::run_here`] runs one job to
//!   completion on the calling thread and returns its bytes. Its
//!   backends come from the same farm specs and the pool's key, keyed
//!   lazily and picked by direction (the first spec whose datapath
//!   serves the job), so a split encrypt/decrypt farm serves both. It
//!   never spawns a thread and never queues; it runs through the same
//!   panic-containing executor as the workers and publishes into the
//!   same `engine.core.<i>.<backend>.*` and `engine.jobs.*` instruments.
//!   Small jobs belong here: handing a microsecond of crypto to another
//!   thread costs more than computing it.
//!
//! Worker scheduling follows the engine's plan: parallel modes (ECB, CTR)
//! are dealt across every eligible worker's deque in the same 8-block
//! granule spans ([`Engine::shares_batched`](crate::Engine::shares_batched)),
//! while chained modes (CBC, CFB, OFB) are *pinned* to the least-loaded
//! capable worker — block `i+1` depends on block `i`, so the stream must
//! not migrate mid-job. An idle worker first drains its own deque, then
//! the shared injector, then **steals** from the back of the longest
//! sibling deque (never a pinned task, never a direction its datapath
//! lacks).
//!
//! The farm is *elastic* — the software analog of partial FPGA
//! reconfiguration: [`WorkerPool::add_core`] and
//! [`WorkerPool::remove_core`] grow and shrink the worker set while jobs
//! are in flight, and [`WorkerPool::swap_core`] hot-swaps one worker's
//! backend between tasks without draining the farm. A retired slot's
//! pinned streams re-pin to a surviving capable worker; its parallel
//! shards fall back to the injector, and injector work the narrowed
//! farm can no longer serve fails typed instead of stranding.
//! [`WorkerPool::autoscale_tick`] drives resizing from the pool's own
//! open-job count and the published `engine.core.occupancy_bp`
//! histogram under a [`ResizePolicy`], and every decision is visible as
//! `engine.resize.*` counters and the `engine.workers` gauge.
//!
//! Worker threads spawn lazily on the first submission, so a pool that
//! never sees work (an idle service session holding only a key) costs no
//! threads.
//!
//! # Examples
//!
//! ```
//! use engine::{Mode, PoolBuilder, BackendSpec};
//!
//! let pool = PoolBuilder::new()
//!     .cores(&[BackendSpec::Software; 2])
//!     .capacity(8)
//!     .build(&[0x2B; 16]);
//! let id = pool.try_submit(Mode::EcbEncrypt, vec![0u8; 64]).unwrap();
//! let out = pool.collect_timeout(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(out.id, id);
//! assert!(out.data.is_ok());
//!
//! // Small jobs run on the calling thread instead.
//! let ct = pool.run_here(Mode::EcbEncrypt, vec![0u8; 16]).unwrap();
//! assert_eq!(ct.len(), 16);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aes_ip::core::Direction;
use telemetry::{Counter, Gauge, Histogram, Registry};

use crate::backend::{Backend, BackendSpec};
use crate::error::Error;
use crate::scheduler::{
    run_span, shard_plan, JobError, JobId, JobOutput, Mode, SubmitError, OCCUPANCY_BOUNDS,
};

/// AES block size in bytes.
const BLOCK: usize = 16;

/// Bucket bounds for the `engine.pool.job_us` histogram: wall-clock
/// submit-to-complete latency in microseconds, geometric steps from 50 µs
/// to a quarter second.
const JOB_US_BOUNDS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// What [`WorkerPool::autoscale_tick`] decided this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeAction {
    /// A worker was added at this slot index.
    Grew(usize),
    /// The worker at this slot index was retired.
    Shrank(usize),
}

/// Telemetry-driven resize policy for [`WorkerPool::autoscale_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizePolicy {
    /// Never shrink below this many live workers.
    pub min_workers: usize,
    /// Never grow past this many live workers.
    pub max_workers: usize,
    /// Grow when this pool has at least this many of its *own* jobs
    /// open (accepted, not yet delivered). The shared
    /// `engine.queue.depth` gauge is deliberately not consulted: every
    /// keyed session publishes into the same service registry, so a
    /// neighbor's backlog would over-grow unrelated pools.
    pub grow_depth: usize,
    /// Shrink only after this many *consecutive* idle ticks, so a burst
    /// gap does not flap the farm.
    pub shrink_after_ticks: u32,
    /// Treat the farm as saturated (and refuse to shrink) while the mean
    /// `engine.core.occupancy_bp` sample since the last tick is at or
    /// above this many basis points.
    pub busy_occupancy_bp: u64,
    /// The backend grown workers are built with.
    pub spec: BackendSpec,
}

impl Default for ResizePolicy {
    fn default() -> Self {
        ResizePolicy {
            min_workers: 1,
            max_workers: 4,
            grow_depth: 4,
            shrink_after_ticks: 8,
            busy_occupancy_bp: 8_000,
            spec: BackendSpec::Auto,
        }
    }
}

/// One unit of schedulable work: one span (or the whole) of a job.
struct Task {
    job: Arc<JobState>,
    /// Index into the job's `parts` this task produces.
    part: usize,
    /// Pinned tasks (chained streams) never migrate by stealing.
    pinned: bool,
    mode: Mode,
    /// The span's SP 800-38A counter offset (CTR shards; 0 otherwise).
    first_block: u128,
    data: Vec<u8>,
}

impl Task {
    fn dir(&self) -> Direction {
        self.mode.direction()
    }
}

/// Shared completion state of one job across its shards.
struct JobState {
    id: JobId,
    started: Instant,
    /// One slot per shard, reassembled in order at completion.
    parts: Mutex<Vec<Option<Vec<u8>>>>,
    /// Shards still outstanding; the worker that takes this to zero
    /// assembles and delivers the output.
    remaining: Mutex<usize>,
    /// First fault wins; the job reports it once every shard has landed.
    failed: Mutex<Option<JobError>>,
}

impl JobState {
    fn new(id: JobId, parts: usize) -> Arc<JobState> {
        Arc::new(JobState {
            id,
            started: Instant::now(),
            parts: Mutex::new(vec![None; parts]),
            remaining: Mutex::new(parts),
            failed: Mutex::new(None),
        })
    }
}

/// One configured farm spec as the caller-runs lane sees it: the
/// backend is built (and keyed) on the first job that needs it.
struct LocalCore {
    spec: BackendSpec,
    built: Option<(Box<dyn Backend>, CoreTel)>,
}

/// One farm slot's scheduler-visible state. The worker thread owns the
/// backend itself; the slot mirrors just what routing decisions need.
struct Slot {
    alive: bool,
    name: &'static str,
    enc: bool,
    dec: bool,
    queue: VecDeque<Task>,
    /// A pre-built replacement backend the worker installs before its
    /// next task (hot-swap without draining the farm).
    swap: Option<Box<dyn Backend>>,
    busy: bool,
}

impl Slot {
    fn supports(&self, dir: Direction) -> bool {
        match dir {
            Direction::Encrypt => self.enc,
            Direction::Decrypt => self.dec,
        }
    }

    fn load(&self) -> usize {
        self.queue.len() + usize::from(self.busy)
    }
}

struct State {
    slots: Vec<Slot>,
    injector: VecDeque<Task>,
    /// Specs waiting for the lazy first-submission spawn.
    pending: Vec<BackendSpec>,
    /// Jobs accepted and not yet delivered — the bounded-capacity count.
    open: usize,
    started: bool,
    shutdown: bool,
}

impl State {
    fn eligible(&self, dir: Direction) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive && self.slots[i].supports(dir))
            .collect()
    }

    fn least_loaded(&self, dir: Direction) -> Option<usize> {
        self.eligible(dir)
            .into_iter()
            .min_by_key(|&i| self.slots[i].load())
    }

    /// Removes and returns every injector task whose direction no live
    /// worker supports. Resizes that change the farm's capability set
    /// must call this: a lone parallel job lands in the injector, and a
    /// worker only ever takes injector work it can run — an unservable
    /// task would otherwise sit there forever, leaking its capacity
    /// slot and hanging `wait_idle`.
    fn drain_unservable_injector(&mut self) -> Vec<Task> {
        let can_enc = self.slots.iter().any(|s| s.alive && s.enc);
        let can_dec = self.slots.iter().any(|s| s.alive && s.dec);
        let mut stranded = Vec::new();
        let mut kept = VecDeque::with_capacity(self.injector.len());
        for t in self.injector.drain(..) {
            let ok = match t.dir() {
                Direction::Encrypt => can_enc,
                Direction::Decrypt => can_dec,
            };
            if ok {
                kept.push_back(t);
            } else {
                stranded.push(t);
            }
        }
        self.injector = kept;
        stranded
    }
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers when tasks arrive, a swap lands, or shutdown starts.
    work_cv: Condvar,
    /// Wakes [`WorkerPool::wait_idle`] when `open` returns to zero.
    idle_cv: Condvar,
    registry: Registry,
    capacity: usize,
    /// Key bytes for building grown / swapped backends; wiped on drop.
    key: Mutex<Vec<u8>>,
    tx: Mutex<Sender<JobOutput>>,
    notifier: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
    jobs_completed: Counter,
    jobs_failed: Counter,
    queue_depth: Gauge,
    job_us: Histogram,
}

impl Inner {
    /// Final delivery: publish counters, push the output down the
    /// channel, fire the notifier, and only then release the capacity
    /// slot — locks are never held across the callback.
    fn deliver(&self, out: JobOutput, started: Instant) {
        self.queue_depth.sub(1);
        match &out.data {
            Ok(_) => self.jobs_completed.incr(),
            Err(_) => self.jobs_failed.incr(),
        }
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.job_us.record(us);
        let _ = self.tx.lock().expect("sender poisoned").send(out);
        let notify = self.notifier.lock().expect("notifier poisoned").clone();
        if let Some(f) = notify {
            f();
        }
        // The capacity slot is released only after the output is on the
        // channel and the notifier has fired, so `wait_idle` returning
        // means every delivery side effect is visible.
        let mut st = self.state.lock().expect("pool state poisoned");
        st.open -= 1;
        if st.open == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Records one shard's result; the last shard in assembles the job
    /// and delivers it. Call *without* holding the state lock.
    fn finish_part(&self, job: &Arc<JobState>, part: usize, result: Result<Vec<u8>, JobError>) {
        match result {
            Ok(bytes) => {
                self.parts_slot(job, part, bytes);
            }
            Err(e) => {
                let mut failed = job.failed.lock().expect("job fault slot poisoned");
                if failed.is_none() {
                    *failed = Some(e);
                }
            }
        }
        let last = {
            let mut remaining = job.remaining.lock().expect("job remaining poisoned");
            *remaining -= 1;
            *remaining == 0
        };
        if !last {
            return;
        }
        let fault = job.failed.lock().expect("job fault slot poisoned").take();
        let data = match fault {
            Some(e) => Err(e),
            None => {
                let mut parts = job.parts.lock().expect("job parts poisoned");
                let total: usize = parts.iter().map(|p| p.as_ref().map_or(0, Vec::len)).sum();
                let mut buf = Vec::with_capacity(total);
                for p in parts.iter_mut() {
                    buf.extend_from_slice(&p.take().expect("every shard landed"));
                }
                Ok(buf)
            }
        };
        self.deliver(JobOutput { id: job.id, data }, job.started);
    }

    fn parts_slot(&self, job: &Arc<JobState>, part: usize, bytes: Vec<u8>) {
        job.parts.lock().expect("job parts poisoned")[part] = Some(bytes);
    }

    /// Fails every task in `tasks` (used when a remove/swap leaves a
    /// direction with no capable worker). Call without the state lock.
    fn fail_tasks(&self, tasks: Vec<Task>) {
        for t in tasks {
            let dir = t.dir();
            self.finish_part(&t.job, t.part, Err(JobError::NoCapableCore { dir }));
        }
    }
}

/// Builds a [`WorkerPool`] — farm composition, queue capacity, telemetry
/// registry — mirroring [`EngineBuilder`](crate::EngineBuilder).
#[derive(Default)]
pub struct PoolBuilder {
    specs: Vec<BackendSpec>,
    capacity: Option<usize>,
    registry: Option<Registry>,
}

impl PoolBuilder {
    /// Starts an empty builder (no cores, default capacity 8, private
    /// registry).
    #[must_use]
    pub fn new() -> Self {
        PoolBuilder::default()
    }

    /// Adds one worker slot built from `spec` (keyed at first
    /// submission, when the worker threads spawn).
    #[must_use]
    pub fn core(mut self, spec: BackendSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds one worker slot per spec, in order.
    #[must_use]
    pub fn cores(mut self, specs: &[BackendSpec]) -> Self {
        self.specs.extend_from_slice(specs);
        self
    }

    /// Sets the bounded open-job capacity (default 8).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Publishes the pool's instruments into `registry` instead of a
    /// fresh private one (the same sharing semantics as engine farms:
    /// delta-pushed counters aggregate).
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Assembles the pool. The key is retained (and wiped on drop) so
    /// grown and hot-swapped workers can be keyed at runtime; worker
    /// threads spawn lazily on the first submission.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm or a zero-capacity queue, like
    /// [`EngineBuilder::build`](crate::EngineBuilder::build).
    #[must_use]
    pub fn build(self, key: &[u8]) -> WorkerPool {
        assert!(!self.specs.is_empty(), "a pool needs at least one backend");
        let capacity = self.capacity.unwrap_or(8);
        assert!(capacity > 0, "a zero-capacity queue rejects every job");
        let registry = self.registry.unwrap_or_default();
        registry.gauge("engine.queue.capacity").set(capacity as i64);
        let workers_gauge = registry.gauge("engine.workers");
        workers_gauge.add(self.specs.len() as i64);
        let (tx, rx) = channel();
        let local = self
            .specs
            .iter()
            .map(|&spec| LocalCore { spec, built: None })
            .collect();
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    injector: VecDeque::new(),
                    pending: self.specs,
                    open: 0,
                    started: false,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                capacity,
                key: Mutex::new(key.to_vec()),
                tx: Mutex::new(tx),
                notifier: Mutex::new(None),
                jobs_completed: registry.counter("engine.jobs.completed"),
                jobs_failed: registry.counter("engine.jobs.failed"),
                queue_depth: registry.gauge("engine.queue.depth"),
                job_us: registry.histogram("engine.pool.job_us", &JOB_US_BOUNDS),
                registry: registry.clone(),
            }),
            rx: Mutex::new(rx),
            handles: Mutex::new(Vec::new()),
            local: Mutex::new(local),
            next_id: AtomicU64::new(0),
            submit_accepted: registry.counter("engine.submit.accepted"),
            submit_busy: registry.counter("engine.submit.busy"),
            submit_ragged: registry.counter("engine.submit.ragged"),
            steals: registry.counter("engine.pool.steals"),
            resize_grow: registry.counter("engine.resize.grow"),
            resize_shrink: registry.counter("engine.resize.shrink"),
            resize_swap: registry.counter("engine.resize.swap"),
            workers_gauge,
            occupancy_bp: registry.histogram("engine.core.occupancy_bp", &OCCUPANCY_BOUNDS),
            idle_streak: AtomicU32::new(0),
            last_occupancy: Mutex::new((0, 0)),
            registry,
        }
    }
}

impl fmt::Debug for PoolBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolBuilder")
            .field("specs", &self.specs)
            .field("capacity", &self.capacity)
            .field("shared_registry", &self.registry.is_some())
            .finish()
    }
}

/// The work-stealing elastic thread pool. See the [module docs](self).
pub struct WorkerPool {
    inner: Arc<Inner>,
    rx: Mutex<Receiver<JobOutput>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The caller-runs lane: one entry per configured farm spec.
    local: Mutex<Vec<LocalCore>>,
    next_id: AtomicU64,
    submit_accepted: Counter,
    submit_busy: Counter,
    submit_ragged: Counter,
    steals: Counter,
    resize_grow: Counter,
    resize_shrink: Counter,
    resize_swap: Counter,
    workers_gauge: Gauge,
    occupancy_bp: Histogram,
    idle_streak: AtomicU32,
    /// `(count, sum)` of the occupancy histogram at the last autoscale
    /// tick, for the per-tick mean.
    last_occupancy: Mutex<(u64, u64)>,
    registry: Registry,
}

impl WorkerPool {
    /// Shorthand: a pool over `specs` with a private registry.
    #[must_use]
    pub fn with_farm(key: &[u8], specs: &[BackendSpec], capacity: usize) -> WorkerPool {
        PoolBuilder::new()
            .cores(specs)
            .capacity(capacity)
            .build(key)
    }

    /// The registry this pool publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The bounded open-job capacity (the `Busy` detail value).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Jobs accepted and not yet delivered.
    #[must_use]
    pub fn open_jobs(&self) -> usize {
        self.inner.state.lock().expect("pool state poisoned").open
    }

    /// Live workers (configured-but-unspawned count before the lazy
    /// start, alive slots after).
    #[must_use]
    pub fn workers(&self) -> usize {
        let st = self.inner.state.lock().expect("pool state poisoned");
        if st.started {
            st.slots.iter().filter(|s| s.alive).count()
        } else {
            st.pending.len()
        }
    }

    /// Installs (or replaces) the completion notifier: called once per
    /// delivered job, after the output is in the channel. The service
    /// points this at a shard's wake pipe so `poll(2)` loops re-arm
    /// without polling the pool.
    pub fn set_notifier(&self, notifier: Arc<dyn Fn() + Send + Sync>) {
        *self.inner.notifier.lock().expect("notifier poisoned") = Some(notifier);
    }

    /// Enqueues a mode operation over `data`, applying backpressure, and
    /// wakes a worker. The first accepted submission spawns the worker
    /// threads.
    ///
    /// Parallel modes (ECB, CTR) are dealt across every eligible worker
    /// in 8-block granules; chained modes pin to the least-loaded capable
    /// worker. The completion surfaces from [`WorkerPool::try_collect`] /
    /// [`WorkerPool::collect_timeout`] in completion order.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] when `capacity` jobs are already open (or
    ///   the pool is shutting down);
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks.
    pub fn try_submit(&self, mode: Mode, data: Vec<u8>) -> Result<JobId, SubmitError> {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if st.shutdown || st.open >= self.inner.capacity {
            self.submit_busy.incr();
            return Err(SubmitError::Busy {
                capacity: self.inner.capacity,
            });
        }
        if mode.requires_full_blocks() && !data.len().is_multiple_of(BLOCK) {
            self.submit_ragged.incr();
            return Err(SubmitError::RaggedLength { len: data.len() });
        }
        self.ensure_started(&mut st);
        self.submit_accepted.incr();
        let id = JobId::from_raw(self.next_id.fetch_add(1, Ordering::Relaxed));

        let dir = mode.direction();
        let eligible = st.eligible(dir);
        if eligible.is_empty() || data.is_empty() {
            // Degenerate jobs complete on the submitting thread:
            // accepted-then-failed when the farm has no datapath for the
            // direction (like the engine), trivially done when there are
            // no bytes. Take the capacity slot first — deliver() releases
            // it.
            st.open += 1;
            drop(st);
            self.inner.queue_depth.add(1);
            let data = if eligible.is_empty() {
                Err(JobError::NoCapableCore { dir })
            } else {
                Ok(Vec::new())
            };
            self.inner.deliver(JobOutput { id, data }, Instant::now());
            return Ok(id);
        }

        st.open += 1;
        self.inner.queue_depth.add(1);
        if mode.is_parallel() && eligible.len() > 1 {
            self.deal_shards(&mut st, id, mode, data, &eligible);
        } else {
            let task = Task {
                job: JobState::new(id, 1),
                part: 0,
                pinned: !mode.is_parallel(),
                mode,
                first_block: 0,
                data,
            };
            if task.pinned {
                let target = st.least_loaded(dir).expect("eligible is non-empty");
                st.slots[target].queue.push_back(task);
            } else {
                // A lone parallel job: any capable worker may take it.
                st.injector.push_back(task);
            }
        }
        drop(st);
        self.inner.work_cv.notify_all();
        Ok(id)
    }

    /// Deals a parallel job's granule spans across the eligible
    /// workers' deques (the engine's [`shard_plan`]). Idle workers
    /// rebalance by stealing from the back.
    fn deal_shards(
        &self,
        st: &mut State,
        id: JobId,
        mode: Mode,
        mut data: Vec<u8>,
        eligible: &[usize],
    ) {
        let plan: Vec<(usize, usize, usize)> =
            shard_plan(data.len().div_ceil(BLOCK), eligible.len()).collect();
        let job = JobState::new(id, plan.len());
        // Split from the tail so each shard is one allocation and the
        // bytes are copied exactly once.
        for (part, &(pos, first, _)) in plan.iter().enumerate().rev() {
            let chunk = data.split_off((first * BLOCK).min(data.len()));
            st.slots[eligible[pos]].queue.push_back(Task {
                job: Arc::clone(&job),
                part,
                pinned: false,
                mode,
                first_block: first as u128,
                data: chunk,
            });
        }
    }

    /// Runs one job to completion on the calling thread and returns its
    /// bytes — the caller-runs lane (see the [module docs](self)).
    ///
    /// The backend is the first configured farm spec whose datapath
    /// serves the job's direction, built with the pool's key on first
    /// use and kept for later calls. The job runs through the same
    /// panic-containing executor as the workers and lands in the same
    /// `engine.core.*` / `engine.jobs.*` instruments. It holds no
    /// capacity slot and spawns no thread: the caller is the
    /// backpressure.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks (checked before anything runs);
    /// * [`JobError::NoCapableCore`] when no farm spec serves the
    ///   direction, [`JobError::Backend`] on a backend fault, and
    ///   [`JobError::WorkerPanicked`] when the backend panicked.
    pub fn run_here(&self, mode: Mode, data: Vec<u8>) -> Result<Vec<u8>, Error> {
        if mode.requires_full_blocks() && !data.len().is_multiple_of(BLOCK) {
            self.submit_ragged.incr();
            return Err(SubmitError::RaggedLength { len: data.len() }.into());
        }
        self.submit_accepted.incr();
        let dir = mode.direction();
        let mut local = self.local.lock().expect("caller lane poisoned");
        let result = match self.local_core(&mut local, dir) {
            None => Err(JobError::NoCapableCore { dir }),
            Some(_) if data.is_empty() => Ok(data),
            Some((backend, tel)) => {
                let result = execute(backend.as_mut(), mode, 0, data);
                tel.sync(backend.as_ref());
                result
            }
        };
        drop(local);
        match &result {
            Ok(_) => self.inner.jobs_completed.incr(),
            Err(_) => self.inner.jobs_failed.incr(),
        }
        result.map_err(Error::from)
    }

    /// The caller-runs backend for `dir`: walks the configured specs in
    /// farm order, keying each on first use, and returns the first whose
    /// datapath serves `dir`. Its counters share the worker slot's
    /// `engine.core.<index>.<backend>.*` names.
    fn local_core<'a>(
        &self,
        cores: &'a mut [LocalCore],
        dir: Direction,
    ) -> Option<&'a mut (Box<dyn Backend>, CoreTel)> {
        for (index, core) in cores.iter_mut().enumerate() {
            let spec = core.spec;
            let built = core.built.get_or_insert_with(|| {
                let backend = spec.build(&self.inner.key.lock().expect("pool key poisoned"));
                let tel = CoreTel::register(
                    &self.registry,
                    index,
                    backend.name(),
                    self.occupancy_bp.clone(),
                );
                (backend, tel)
            });
            if built.0.supports(dir) {
                return Some(built);
            }
        }
        None
    }

    /// Spawns the configured workers on the first submission.
    fn ensure_started(&self, st: &mut State) {
        if st.started {
            return;
        }
        st.started = true;
        let pending = std::mem::take(&mut st.pending);
        let key = self.inner.key.lock().expect("pool key poisoned").clone();
        for spec in pending {
            self.spawn_worker(st, spec.build(&key));
        }
    }

    /// Registers a slot for `backend` and spawns its owning thread.
    /// Returns the new slot index.
    fn spawn_worker(&self, st: &mut State, backend: Box<dyn Backend>) -> usize {
        let index = st.slots.len();
        st.slots.push(Slot {
            alive: true,
            name: backend.name(),
            enc: backend.supports(Direction::Encrypt),
            dec: backend.supports(Direction::Decrypt),
            queue: VecDeque::new(),
            swap: None,
            busy: false,
        });
        let inner = Arc::clone(&self.inner);
        let steals = self.steals.clone();
        let occupancy = self.occupancy_bp.clone();
        let handle = std::thread::Builder::new()
            .name(format!("engine-worker-{index}"))
            .spawn(move || worker_main(inner, index, backend, steals, occupancy))
            .expect("spawn engine worker thread");
        self.handles
            .lock()
            .expect("pool handles poisoned")
            .push(handle);
        index
    }

    /// Adds one worker built from `spec` (with the pool's key) to the
    /// live farm, returning its slot index. Counted as
    /// `engine.resize.grow`.
    pub fn add_core(&self, spec: BackendSpec) -> usize {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        let index = if st.started {
            let key = self.inner.key.lock().expect("pool key poisoned").clone();
            self.spawn_worker(&mut st, spec.build(&key))
        } else {
            st.pending.push(spec);
            st.pending.len() - 1
        };
        drop(st);
        self.workers_gauge.add(1);
        self.resize_grow.incr();
        self.inner.work_cv.notify_all();
        index
    }

    /// Retires the worker at `index`: its pinned streams re-pin to a
    /// surviving capable worker, its parallel shards fall back to the
    /// injector, and tasks no surviving worker can serve fail with
    /// [`JobError::NoCapableCore`]. Counted as `engine.resize.shrink`.
    /// Returns `false` for an unknown or already-retired slot.
    pub fn remove_core(&self, index: usize) -> bool {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if !st.started {
            if index < st.pending.len() {
                st.pending.remove(index);
                drop(st);
                self.workers_gauge.sub(1);
                self.resize_shrink.incr();
                return true;
            }
            return false;
        }
        if index >= st.slots.len() || !st.slots[index].alive {
            return false;
        }
        st.slots[index].alive = false;
        let orphans: Vec<Task> = st.slots[index].queue.drain(..).collect();
        let mut unroutable = reroute(&mut st, orphans);
        unroutable.extend(st.drain_unservable_injector());
        drop(st);
        self.inner.fail_tasks(unroutable);
        self.workers_gauge.sub(1);
        self.resize_shrink.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// Hot-swaps the backend of the worker at `index` to one freshly
    /// built from `spec` with the pool's key, *without* draining the
    /// farm: the worker installs the replacement before its next task;
    /// the task it is executing right now finishes on the old backend.
    /// Queued tasks the new backend cannot serve are re-routed first.
    /// Counted as `engine.resize.swap`. Returns `false` for an unknown
    /// or retired slot.
    pub fn swap_core(&self, index: usize, spec: BackendSpec) -> bool {
        let key = self.inner.key.lock().expect("pool key poisoned").clone();
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if !st.started {
            if index < st.pending.len() {
                st.pending[index] = spec;
                drop(st);
                self.resize_swap.incr();
                return true;
            }
            return false;
        }
        if index >= st.slots.len() || !st.slots[index].alive {
            return false;
        }
        let backend = spec.build(&key);
        let (enc, dec) = (
            backend.supports(Direction::Encrypt),
            backend.supports(Direction::Decrypt),
        );
        st.slots[index].name = backend.name();
        st.slots[index].enc = enc;
        st.slots[index].dec = dec;
        st.slots[index].swap = Some(backend);
        // The slot's queue may hold directions the new backend lacks
        // (e.g. encdec -> encrypt-only): migrate them before the worker
        // blindly pops its own deque.
        let stale: Vec<Task> = {
            let queue = &mut st.slots[index].queue;
            let mut kept = VecDeque::with_capacity(queue.len());
            let mut moved = Vec::new();
            for t in queue.drain(..) {
                let ok = match t.dir() {
                    Direction::Encrypt => enc,
                    Direction::Decrypt => dec,
                };
                if ok {
                    kept.push_back(t);
                } else {
                    moved.push(t);
                }
            }
            *queue = kept;
            moved
        };
        let mut unroutable = reroute(&mut st, stale);
        unroutable.extend(st.drain_unservable_injector());
        drop(st);
        self.inner.fail_tasks(unroutable);
        self.resize_swap.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// One supervisor tick of the elastic control plane: reads this
    /// pool's own open-job count (the per-pool analog of the
    /// `engine.queue.depth` gauge, which is registry-wide and would let
    /// a neighbor session's backlog grow this farm) and the
    /// `engine.core.occupancy_bp` histogram, and grows or shrinks the
    /// farm under `policy`. Growth requires this pool's own queue
    /// pressure; shrinking requires
    /// [`ResizePolicy::shrink_after_ticks`] consecutive idle ticks with
    /// the cores below the saturation bar.
    pub fn autoscale_tick(&self, policy: &ResizePolicy) -> Option<ResizeAction> {
        let (count, sum) = (self.occupancy_bp.count(), self.occupancy_bp.sum());
        let (dcount, dsum) = {
            let mut last = self.last_occupancy.lock().expect("occupancy watermark");
            let d = (count - last.0, sum - last.1);
            *last = (count, sum);
            d
        };
        let saturated = dcount > 0 && dsum / dcount >= policy.busy_occupancy_bp;
        let (own_open, workers) = {
            let st = self.inner.state.lock().expect("pool state poisoned");
            let live = if st.started {
                st.slots.iter().filter(|s| s.alive).count()
            } else {
                st.pending.len()
            };
            (st.open, live)
        };
        if own_open >= policy.grow_depth && workers < policy.max_workers {
            self.idle_streak.store(0, Ordering::Relaxed);
            return Some(ResizeAction::Grew(self.add_core(policy.spec)));
        }
        if own_open == 0 && !saturated && workers > policy.min_workers {
            let streak = self.idle_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= policy.shrink_after_ticks {
                self.idle_streak.store(0, Ordering::Relaxed);
                let victim = {
                    let st = self.inner.state.lock().expect("pool state poisoned");
                    (0..st.slots.len()).rev().find(|&i| st.slots[i].alive)
                };
                if let Some(i) = victim {
                    if self.remove_core(i) {
                        return Some(ResizeAction::Shrank(i));
                    }
                }
            }
        } else {
            self.idle_streak.store(0, Ordering::Relaxed);
        }
        None
    }

    /// A finished job, if one is ready — non-blocking, completion order.
    #[must_use]
    pub fn try_collect(&self) -> Option<JobOutput> {
        self.rx
            .lock()
            .expect("pool receiver poisoned")
            .try_recv()
            .ok()
    }

    /// A finished job, waiting up to `timeout` for one to complete.
    #[must_use]
    pub fn collect_timeout(&self, timeout: Duration) -> Option<JobOutput> {
        self.rx
            .lock()
            .expect("pool receiver poisoned")
            .recv_timeout(timeout)
            .ok()
    }

    /// Blocks until no jobs are open (all accepted work delivered).
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        while st.open > 0 {
            st = self.inner.idle_cv.wait(st).expect("pool state poisoned");
        }
    }

    /// Like [`WorkerPool::wait_idle`], but gives up after `timeout`.
    /// Returns `true` when the pool went idle (every accepted job
    /// delivered), `false` on timeout — the graceful-shutdown bound for
    /// callers that must not hang on a wedged backend.
    #[must_use]
    pub fn wait_idle_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        while st.open > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .inner
                .idle_cv
                .wait_timeout(st, left)
                .expect("pool state poisoned");
            st = guard;
        }
        true
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// finish everything they can serve, fails anything left over
    /// (typed, so no job is silently lost), and joins the threads.
    /// Already-delivered outputs stay collectable. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .handles
            .lock()
            .expect("pool handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            // Worker panics are contained by the catch_unwind in the
            // run loop (the held job already failed typed); joining
            // must not re-raise during teardown.
            let _ = h.join();
        }
        // Workers exit past injector tasks they cannot serve (e.g. a
        // decrypt stranded by an earlier capability-narrowing resize):
        // fail every leftover task so its job completes and `wait_idle`
        // callers — and the clients behind them — are released.
        let (live, leftovers) = {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            let live = st.slots.iter().filter(|s| s.alive).count() + st.pending.len();
            let mut leftovers: Vec<Task> = st.injector.drain(..).collect();
            for s in st.slots.iter_mut() {
                leftovers.extend(s.queue.drain(..));
                s.alive = false;
            }
            st.pending.clear();
            (live, leftovers)
        };
        if live > 0 {
            self.workers_gauge.sub(live as i64);
        }
        self.inner.fail_tasks(leftovers);
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("open_jobs", &self.open_jobs())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Ok(mut key) = self.key.lock() {
            rijndael::zeroize::wipe_bytes(&mut key);
        }
    }
}

/// Re-homes orphaned tasks: pinned streams to the least-loaded surviving
/// capable worker, parallel shards to the injector (when anyone can still
/// serve them). Returns the tasks nobody can run.
fn reroute(st: &mut State, tasks: Vec<Task>) -> Vec<Task> {
    let mut unroutable = Vec::new();
    for t in tasks {
        let dir = t.dir();
        if t.pinned {
            match st.least_loaded(dir) {
                Some(target) => st.slots[target].queue.push_back(t),
                None => unroutable.push(t),
            }
        } else if st.eligible(dir).is_empty() {
            unroutable.push(t);
        } else {
            st.injector.push_back(t);
        }
    }
    unroutable
}

/// What the worker loop decided to do next (chosen under the state lock,
/// acted on outside it).
enum Action {
    Run(Task),
    Install(Box<dyn Backend>),
    Exit,
}

/// Finds runnable work for worker `me`: own deque front, then the first
/// capable injector task, then a steal from the back of the longest
/// sibling deque (unpinned, capable tasks only). Returns whether the
/// task was stolen.
fn find_task(st: &mut State, me: usize) -> Option<(Task, bool)> {
    if let Some(t) = st.slots[me].queue.pop_front() {
        return Some((t, false));
    }
    let (enc, dec) = (st.slots[me].enc, st.slots[me].dec);
    let can = |dir: Direction| match dir {
        Direction::Encrypt => enc,
        Direction::Decrypt => dec,
    };
    if let Some(pos) = st.injector.iter().position(|t| can(t.dir())) {
        return st.injector.remove(pos).map(|t| (t, false));
    }
    let mut victims: Vec<usize> = (0..st.slots.len())
        .filter(|&i| i != me && st.slots[i].alive && !st.slots[i].queue.is_empty())
        .collect();
    victims.sort_by_key(|&i| std::cmp::Reverse(st.slots[i].queue.len()));
    for v in victims {
        let queue = &mut st.slots[v].queue;
        for pos in (0..queue.len()).rev() {
            if !queue[pos].pinned && can(queue[pos].dir()) {
                return queue.remove(pos).map(|t| (t, true));
            }
        }
    }
    None
}

/// Per-worker delta push of the owned backend's counters into the shared
/// registry — the same bookkeeping as `Engine::sync_telemetry`, owned by
/// the worker thread so no lock guards the authoritative counters.
struct CoreTel {
    blocks: Counter,
    cycles: Counter,
    setup_cycles: Counter,
    busy_cycles: Counter,
    occupancy: Histogram,
    last: (u64, u64, u64, u64),
}

impl CoreTel {
    fn register(registry: &Registry, index: usize, name: &str, occupancy: Histogram) -> CoreTel {
        let prefix = format!("engine.core.{index}.{name}");
        CoreTel {
            blocks: registry.counter(&format!("{prefix}.blocks")),
            cycles: registry.counter(&format!("{prefix}.cycles")),
            setup_cycles: registry.counter(&format!("{prefix}.setup_cycles")),
            busy_cycles: registry.counter(&format!("{prefix}.busy_cycles")),
            occupancy,
            last: (0, 0, 0, 0),
        }
    }

    fn sync(&mut self, backend: &dyn Backend) {
        let now = (
            backend.blocks(),
            backend.cycles(),
            backend.setup_cycles(),
            backend.busy_cycles(),
        );
        let last = self.last;
        self.last = now;
        self.blocks.add(now.0.saturating_sub(last.0));
        self.cycles.add(now.1.saturating_sub(last.1));
        self.setup_cycles.add(now.2.saturating_sub(last.2));
        self.busy_cycles.add(now.3.saturating_sub(last.3));
        let op_delta = now
            .1
            .saturating_sub(last.1)
            .saturating_sub(now.2.saturating_sub(last.2));
        let busy_delta = now.3.saturating_sub(last.3);
        if let Some(bp) = busy_delta.saturating_mul(10_000).checked_div(op_delta) {
            self.occupancy.record(bp);
        }
    }
}

fn worker_main(
    inner: Arc<Inner>,
    me: usize,
    mut backend: Box<dyn Backend>,
    steals: Counter,
    occupancy: Histogram,
) {
    let mut tel = CoreTel::register(&inner.registry, me, backend.name(), occupancy.clone());
    loop {
        let action = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            loop {
                if let Some(next) = st.slots[me].swap.take() {
                    break Action::Install(next);
                }
                if !st.slots[me].alive {
                    break Action::Exit;
                }
                if let Some((task, stolen)) = find_task(&mut st, me) {
                    st.slots[me].busy = true;
                    if stolen {
                        steals.incr();
                    }
                    break Action::Run(task);
                }
                if st.shutdown {
                    break Action::Exit;
                }
                st = inner.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        match action {
            Action::Run(task) => {
                let Task {
                    job,
                    part,
                    mode,
                    first_block,
                    data,
                    ..
                } = task;
                let result = execute(backend.as_mut(), mode, first_block, data);
                tel.sync(backend.as_ref());
                inner.state.lock().expect("pool state poisoned").slots[me].busy = false;
                inner.finish_part(&job, part, result);
            }
            Action::Install(next) => {
                // Push the retiring backend's final deltas, drop it (IP
                // cores zero-reload their key schedule on drop), and
                // re-register counters under the new backend's name.
                tel.sync(backend.as_ref());
                backend = next;
                tel = CoreTel::register(&inner.registry, me, backend.name(), occupancy.clone());
            }
            Action::Exit => {
                tel.sync(backend.as_ref());
                return;
            }
        }
    }
}

/// Runs one span on `backend` in place — the one executor behind both
/// the workers and the caller-runs lane. Backend panics are contained:
/// an unwind would strand a worker's held job (`wait_idle` hangs) and
/// poison the state mutex, or unwind the caller's thread. The panic
/// becomes [`JobError::WorkerPanicked`] and the backend stays in
/// service.
fn execute(
    backend: &mut dyn Backend,
    mode: Mode,
    first_block: u128,
    mut data: Vec<u8>,
) -> Result<Vec<u8>, JobError> {
    catch_unwind(AssertUnwindSafe(|| {
        run_span(backend, mode, first_block, &mut data)
    }))
    .unwrap_or(Err(JobError::WorkerPanicked))
    .map(|()| data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendError;
    use rijndael::modes::{Cbc, Ctr, Ecb};
    use rijndael::Aes128;
    use std::collections::BTreeMap;

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    const WAIT: Duration = Duration::from_secs(10);

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    fn collect_n(pool: &WorkerPool, n: usize) -> BTreeMap<JobId, Result<Vec<u8>, JobError>> {
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let o = pool.collect_timeout(WAIT).expect("job completes in time");
            assert!(out.insert(o.id, o.data).is_none(), "duplicate completion");
        }
        out
    }

    #[test]
    fn parallel_and_chained_jobs_match_the_reference() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncDecCore; 3], 8);
        let reference = Aes128::new(&KEY);
        let ecb_data = sample(24 * 16);
        let ctr_data = sample(10 * 16 + 5);
        let cbc_data = sample(5 * 16);
        let a = pool.try_submit(Mode::EcbEncrypt, ecb_data.clone()).unwrap();
        let b = pool
            .try_submit(Mode::Ctr([0xF0; 16]), ctr_data.clone())
            .unwrap();
        let c = pool
            .try_submit(Mode::CbcEncrypt([0x11; 16]), cbc_data.clone())
            .unwrap();
        let got = collect_n(&pool, 3);

        let mut expect = ecb_data;
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(got[&a].as_ref().unwrap(), &expect);
        let mut expect = ctr_data;
        Ctr::apply(&reference, &[0xF0; 16], &mut expect);
        assert_eq!(got[&b].as_ref().unwrap(), &expect);
        let mut expect = cbc_data;
        Cbc::encrypt(&reference, &[0x11; 16], &mut expect).unwrap();
        assert_eq!(got[&c].as_ref().unwrap(), &expect);
    }

    #[test]
    fn busy_and_ragged_surface_at_the_submit_boundary() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software], 2);
        assert_eq!(
            pool.try_submit(Mode::EcbEncrypt, sample(17)),
            Err(SubmitError::RaggedLength { len: 17 })
        );
        pool.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
        pool.try_submit(Mode::Ctr([0; 16]), sample(5)).unwrap();
        // The third submission may race the workers draining the first
        // two; only assert Busy when the pool is genuinely full.
        if pool.open_jobs() >= 2 {
            assert_eq!(
                pool.try_submit(Mode::Ctr([0; 16]), sample(5)),
                Err(SubmitError::Busy { capacity: 2 })
            );
        }
        pool.wait_idle();
        assert!(pool.try_submit(Mode::Ctr([0; 16]), sample(5)).is_ok());
        assert_eq!(collect_n(&pool, 3).len(), 3);
    }

    #[test]
    fn decrypt_on_an_encrypt_only_farm_fails_without_losing_the_job() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncryptCore; 2], 4);
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        let out = pool.collect_timeout(WAIT).unwrap();
        assert_eq!(out.id, id);
        assert_eq!(
            out.data,
            Err(JobError::NoCapableCore {
                dir: Direction::Decrypt
            })
        );
        // Forward-datapath CTR still runs.
        pool.try_submit(Mode::Ctr([3; 16]), sample(32)).unwrap();
        assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
    }

    #[test]
    fn empty_jobs_complete_immediately() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software], 2);
        let id = pool.try_submit(Mode::EcbEncrypt, Vec::new()).unwrap();
        let out = pool.collect_timeout(WAIT).unwrap();
        assert_eq!(out.id, id);
        assert_eq!(out.data.unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn grow_shrink_and_swap_under_load_lose_nothing() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let reference = Aes128::new(&KEY);
        let mut expected = BTreeMap::new();
        let mut submit = |pool: &WorkerPool, i: usize| {
            let data = sample(64 + (i % 7) * 16);
            let id = pool.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
            let mut e = data;
            Ecb::encrypt(&reference, &mut e).unwrap();
            expected.insert(id, e);
        };
        for i in 0..8 {
            submit(&pool, i);
        }
        let grown = pool.add_core(BackendSpec::Software);
        assert_eq!(pool.workers(), 2);
        for i in 8..16 {
            submit(&pool, i);
        }
        assert!(pool.swap_core(grown, BackendSpec::Bitsliced));
        for i in 16..24 {
            submit(&pool, i);
        }
        assert!(pool.remove_core(grown));
        assert_eq!(pool.workers(), 1);
        for i in 24..32 {
            submit(&pool, i);
        }
        let got = collect_n(&pool, 32);
        for (id, e) in &expected {
            assert_eq!(got[id].as_ref().unwrap(), e, "{id}");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.resize.grow"), Some(1));
        assert_eq!(snap.counter("engine.resize.shrink"), Some(1));
        assert_eq!(snap.counter("engine.resize.swap"), Some(1));
        assert_eq!(snap.gauge("engine.workers"), Some(1));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(32));
        assert_eq!(snap.counter("engine.jobs.failed"), Some(0));
    }

    #[test]
    fn removing_the_last_capable_worker_fails_orphaned_work_typed() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncDecCore], 16);
        // Force the worker to start, then retire it with work queued.
        pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        pool.wait_idle();
        for _ in 0..4 {
            pool.try_submit(Mode::CbcEncrypt([0; 16]), sample(16 * 16))
                .unwrap();
        }
        pool.remove_core(0);
        let mut seen = 0;
        let mut failed = 0;
        while let Some(out) = pool.collect_timeout(WAIT) {
            seen += 1;
            if out.data.is_err() {
                failed += 1;
            }
            if seen == 5 {
                break;
            }
        }
        // Every job completes (none lost); the ones the retirement
        // orphaned report NoCapableCore.
        assert_eq!(seen, 5);
        assert!(failed <= 4);
        // New submissions on the empty farm fail typed, immediately.
        let id = pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        let out = pool.collect_timeout(WAIT).unwrap();
        assert_eq!(out.id, id);
        assert!(matches!(out.data, Err(JobError::NoCapableCore { .. })));
    }

    #[test]
    fn removing_the_last_decryptor_fails_stranded_injector_work() {
        // A decrypt job with exactly one eligible worker goes to the
        // injector as an unpinned Whole task. Retiring that worker must
        // not strand it there: either the worker ran it first, or the
        // removal fails it typed — never a hang.
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::EncDecCore],
            16,
        );
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(pool.remove_core(1));
        let out = pool
            .collect_timeout(WAIT)
            .expect("the injector job completes despite the removal");
        assert_eq!(out.id, id);
        if let Err(e) = out.data {
            assert_eq!(
                e,
                JobError::NoCapableCore {
                    dir: Direction::Decrypt
                }
            );
        }
        pool.wait_idle(); // the capacity slot was released either way
    }

    #[test]
    fn swapping_away_the_last_decryptor_fails_stranded_injector_work() {
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::EncDecCore],
            16,
        );
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(pool.swap_core(1, BackendSpec::EncryptCore));
        let out = pool
            .collect_timeout(WAIT)
            .expect("the injector job completes despite the swap");
        assert_eq!(out.id, id);
        pool.wait_idle();
        // And shutdown still drains cleanly afterwards.
        pool.shutdown();
    }

    #[test]
    fn autoscale_ignores_neighbor_pool_backlog() {
        // Two session pools share one service registry. A's backlog
        // drives the shared engine.queue.depth gauge high; B, nearly
        // idle, must not grow on its neighbor's pressure.
        let reg = Registry::new();
        let a = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let b = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        for _ in 0..16 {
            a.try_submit(Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        }
        b.try_submit(Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        let policy = ResizePolicy {
            grow_depth: 4,
            spec: BackendSpec::Software,
            ..ResizePolicy::default()
        };
        assert_eq!(
            b.autoscale_tick(&policy),
            None,
            "one own open job is below grow_depth, whatever the shared gauge says"
        );
        a.wait_idle();
        b.wait_idle();
    }

    #[test]
    fn swap_is_visible_in_farm_stats_under_both_names() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(8)
            .registry(reg.clone())
            .build(&KEY);
        pool.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        pool.wait_idle();
        pool.swap_core(0, BackendSpec::Software);
        pool.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        pool.wait_idle();
        pool.shutdown();
        let stats = crate::FarmStats::from_snapshot(&reg.snapshot());
        let lines: Vec<(usize, &str, u64)> = stats
            .per_core
            .iter()
            .map(|c| (c.index, c.name.as_str(), c.blocks))
            .collect();
        assert_eq!(
            lines,
            vec![(0, "soft-ref", 8), (0, "soft-ttable", 8)],
            "both backends that lived in slot 0 report their own blocks"
        );
    }

    #[test]
    fn autoscale_grows_under_pressure_and_shrinks_when_idle() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let policy = ResizePolicy {
            min_workers: 1,
            max_workers: 3,
            grow_depth: 4,
            shrink_after_ticks: 2,
            busy_occupancy_bp: 10_001, // never block shrink in this test
            spec: BackendSpec::Software,
        };
        for _ in 0..16 {
            pool.try_submit(Mode::EcbEncrypt, sample(32 * 16)).unwrap();
        }
        // Depth is high: the tick must grow (possibly repeatedly).
        let grew = pool.autoscale_tick(&policy);
        assert!(matches!(grew, Some(ResizeAction::Grew(_))), "{grew:?}");
        pool.wait_idle();
        for _ in 0..16 {
            let _ = pool.try_collect();
        }
        // Idle: two consecutive ticks shrink back.
        assert_eq!(pool.autoscale_tick(&policy), None);
        assert!(matches!(
            pool.autoscale_tick(&policy),
            Some(ResizeAction::Shrank(_))
        ));
        assert_eq!(pool.workers(), 1);
        assert!(reg.snapshot().counter("engine.resize.grow") >= Some(1));
        assert_eq!(reg.snapshot().counter("engine.resize.shrink"), Some(1));
    }

    #[test]
    fn notifier_fires_once_per_completion() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software; 2], 8);
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        pool.set_notifier(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..5 {
            pool.try_submit(Mode::Ctr([0; 16]), sample(40)).unwrap();
        }
        assert_eq!(collect_n(&pool, 5).len(), 5);
        pool.wait_idle();
        assert_eq!(fired.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn shutdown_finishes_queued_work_and_refuses_new_jobs() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Ttable], 16);
        for _ in 0..6 {
            pool.try_submit(Mode::EcbEncrypt, sample(16 * 16)).unwrap();
        }
        pool.shutdown();
        assert_eq!(
            pool.try_submit(Mode::EcbEncrypt, sample(16)),
            Err(SubmitError::Busy { capacity: 16 })
        );
        assert_eq!(collect_n(&pool, 6).len(), 6);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<WorkerPool>();
        assert_both::<ResizePolicy>();
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn builder_panics_on_an_empty_farm() {
        let _ = PoolBuilder::new().build(&KEY);
    }

    #[test]
    fn caller_lane_serves_a_split_farm_in_both_directions_without_threads() {
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::DecryptCore],
            2,
        );
        let reference = Aes128::new(&KEY);
        let data = sample(4 * 16);
        let ct = pool.run_here(Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, expect);
        assert_eq!(pool.run_here(Mode::EcbDecrypt, ct).unwrap(), data);
        // CTR needs only the forward datapath: the encrypt core serves it.
        let ctr = pool.run_here(Mode::Ctr([0xF0; 16]), sample(37)).unwrap();
        let mut expect = sample(37);
        Ctr::apply(&reference, &[0xF0; 16], &mut expect);
        assert_eq!(ctr, expect);

        // No worker thread started and no capacity slot was taken.
        assert!(!pool.inner.state.lock().unwrap().started);
        assert_eq!(pool.open_jobs(), 0);
        let snap = pool.registry().snapshot();
        assert_eq!(snap.counter("engine.jobs.completed"), Some(3));
        let lines: Vec<(usize, String, u64)> = crate::FarmStats::from_snapshot(&snap)
            .per_core
            .into_iter()
            .map(|c| (c.index, c.name, c.blocks))
            .collect();
        assert_eq!(
            lines,
            vec![(0, "ip-encrypt".into(), 4 + 3), (1, "ip-decrypt".into(), 4)],
            "each direction ran on the worker slot's own counters"
        );
    }

    #[test]
    fn caller_lane_rejects_ragged_input_typed() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software], 2);
        assert_eq!(
            pool.run_here(Mode::EcbEncrypt, sample(17)),
            Err(Error::Submit(SubmitError::RaggedLength { len: 17 }))
        );
        assert_eq!(
            pool.run_here(Mode::CbcDecrypt([0; 16]), sample(31)),
            Err(Error::Submit(SubmitError::RaggedLength { len: 31 }))
        );
        // CTR streams, so ragged lengths are fine; empty jobs are done.
        assert!(pool.run_here(Mode::Ctr([0; 16]), sample(17)).is_ok());
        assert_eq!(pool.run_here(Mode::EcbEncrypt, Vec::new()), Ok(Vec::new()));
        let snap = pool.registry().snapshot();
        assert_eq!(snap.counter("engine.submit.ragged"), Some(2));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(2));
    }

    /// An encrypt-only backend that panics on every block.
    struct Panicky;

    impl Backend for Panicky {
        fn name(&self) -> &'static str {
            "mock-panicky"
        }

        fn supports(&self, dir: Direction) -> bool {
            dir == Direction::Encrypt
        }

        fn process_block(&mut self, _: &mut [u8; 16], _: Direction) -> Result<(), BackendError> {
            panic!("injected backend panic")
        }

        fn process_stream(&mut self, _: &mut [[u8; 16]], _: Direction) -> Result<(), BackendError> {
            panic!("injected backend panic")
        }

        fn blocks(&self) -> u64 {
            0
        }

        fn cycles(&self) -> u64 {
            0
        }

        fn setup_cycles(&self) -> u64 {
            0
        }

        fn busy_cycles(&self) -> u64 {
            0
        }
    }

    #[test]
    fn caller_lane_contains_a_backend_panic_and_stays_usable() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software; 2], 4);
        pool.local.lock().unwrap()[0].built = Some((
            Box::new(Panicky),
            CoreTel::register(
                pool.registry(),
                0,
                "mock-panicky",
                pool.occupancy_bp.clone(),
            ),
        ));
        assert_eq!(
            pool.run_here(Mode::EcbEncrypt, sample(32)),
            Err(Error::Job(JobError::WorkerPanicked))
        );
        // The lane is not poisoned: the next spec serves the direction
        // the panicking core lacks, and a second panic is contained too.
        let data = sample(32);
        let mut expect = data.clone();
        Ecb::decrypt(&Aes128::new(&KEY), &mut expect).unwrap();
        assert_eq!(pool.run_here(Mode::EcbDecrypt, data).unwrap(), expect);
        assert_eq!(
            pool.run_here(Mode::Ctr([0; 16]), sample(5)),
            Err(Error::Job(JobError::WorkerPanicked))
        );
        // The worker lane builds its own backends and is unaffected.
        pool.try_submit(Mode::EcbEncrypt, sample(32)).unwrap();
        assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
        assert_eq!(
            pool.registry().snapshot().counter("engine.jobs.failed"),
            Some(2)
        );
    }
}

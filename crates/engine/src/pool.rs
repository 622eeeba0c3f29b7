//! True thread-parallel execution: one elastic worker farm with one run
//! queue, and keyed handles that submit to it — the service's one
//! executor.
//!
//! The [`Engine`](crate::Engine) is the paper's cycle model: cycle
//! counters advance in *virtual time* while every job executes inline on
//! the caller's thread. This module is what runs in wall-clock time:
//!
//! * a [`Farm`] owns the worker threads — one per [`Backend`] slot — and
//!   the one run queue they all take from, and holds no key. Its workers
//!   spawn when it is built, and it grows, shrinks and hot-swaps them
//!   while jobs are in flight ([`Farm::add_core`],
//!   [`Farm::remove_core`], [`Farm::swap_core`]), by hand or from
//!   telemetry ([`Farm::autoscale_tick`] under a [`ResizePolicy`]),
//!   every decision visible as `engine.resize.*` counters and the
//!   `engine.workers` gauge;
//! * a [`WorkerPool`] is one keyed handle on a farm ([`Farm::handle`]).
//!   It owns its key (wiped on its last drop), its completion channel
//!   and notifier, and its bound on open jobs ([`SubmitError::Busy`]);
//!   dropping it cancels its queued jobs ([`JobError::Cancelled`]).
//!   Every job it submits carries its key, so handles with different
//!   keys share one farm. Its caller-runs lane runs work to completion
//!   on the calling thread, on backends the handle keys lazily from the
//!   farm's specs: [`WorkerPool::run_here`] runs one engine job there,
//!   and [`WorkerPool::run_here_with`] lends the same backend as a
//!   [`BackendCipher`] to any construction over the cipher traits (CMAC,
//!   GCM, XTS, key wrap). Small jobs belong there: handing a microsecond
//!   of crypto to another thread costs more than computing it.
//!
//! This is the paper's key discipline. Its IP serves every key from one
//! datapath: `Key_In` loads a key and `KStran` derives the round keys on
//! the fly, so a new key costs a setup, not a second core. A worker
//! keeps the backend it built and rebuilds it only when the next task's
//! key, or its slot's spec, differs. An idle worker that holds a
//! schedule for a dropped handle drops it, which wipes it.
//!
//! Which slots can serve a job is decided from each slot's spec and the
//! job's key length ([`BackendSpec::serves`]), without building
//! anything. A parallel job (ECB, CTR) is cut into one span of the
//! engine's 8-block granules (`Engine::shares_batched`) per eligible
//! worker; any other job — a chained stream (CBC, CFB, OFB), or a
//! parallel job with one eligible worker — is one task. Tasks join the
//! farm's FIFO run queue in arrival order, and an idle worker takes the
//! first task its spec can serve, so jobs are served in arrival order
//! across handles and a queued job runs on whichever capable worker
//! frees first. A task is taken whole by one worker and never moves.
//! Retiring or hot-swapping a slot moves nothing either: a task no live
//! worker can serve any more fails typed instead of stranding. A grown
//! worker reuses the lowest retired slot whose thread has exited, so the
//! `engine.core.<i>.*` names stay bounded however often the farm
//! resizes.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use engine::{Mode, PoolBuilder, BackendSpec};
//!
//! // A farm of its own, with one keyed handle on it.
//! let pool = PoolBuilder::new()
//!     .cores(&[BackendSpec::Software; 2])
//!     .capacity(8)
//!     .build(&[0x2B; 16]);
//! let id = pool.try_submit(Mode::EcbEncrypt, vec![0u8; 64]).unwrap();
//! let out = pool.collect_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!(out.id, id);
//! assert!(out.data.is_ok());
//!
//! // Small jobs run on the calling thread instead.
//! let ct = pool.run_here(Mode::EcbEncrypt, vec![0u8; 16]).unwrap().unwrap();
//! assert_eq!(ct.len(), 16);
//!
//! // A second handle, under another key, on the same worker threads.
//! let other = pool.farm().handle(&[0x11; 32], 8, None);
//! other.try_submit(Mode::EcbEncrypt, vec![0u8; 64]).unwrap();
//! assert!(other.collect_timeout(Duration::from_secs(5)).unwrap().data.is_ok());
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aes_ip::core::Direction;
use telemetry::{Counter, Gauge, Histogram, Registry};

use crate::backend::{Backend, BackendCipher, BackendSpec};
use crate::scheduler::{run_span, shard_plan, JobError, JobId, JobOutput, Mode, SubmitError};
use crate::stats::CoreTel;

/// AES block size in bytes.
const BLOCK: usize = 16;

/// What [`Farm::autoscale_tick`] decided this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeAction {
    /// A worker was added at this slot index.
    Grew(usize),
    /// The worker at this slot index was retired.
    Shrank(usize),
}

/// Telemetry-driven resize policy for [`Farm::autoscale_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizePolicy {
    /// Never shrink below this many live workers.
    pub min_workers: usize,
    /// Never grow past this many live workers.
    pub max_workers: usize,
    /// Grow when the farm has at least this many jobs open (accepted,
    /// not yet delivered), summed over every handle.
    pub grow_depth: usize,
    /// Shrink only after this many *consecutive* idle ticks — no job
    /// open, and none delivered since the previous tick — so a burst gap
    /// does not flap the farm.
    pub shrink_after_ticks: u32,
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
            spec: BackendSpec::Auto,
        }
    }
}

/// A completion callback, fired once per delivered job after its output
/// is on the handle's channel. The service points it at a shard's wake
/// pipe, so `poll(2)` loops re-arm without polling the farm.
pub type Notifier = Arc<dyn Fn() + Send + Sync>;

/// A handle's key, shared by the handle, its queued jobs and every
/// worker holding a schedule built from it; wiped on its last drop.
struct Key {
    bytes: Vec<u8>,
    /// Cleared when the handle drops: a worker holding this key's
    /// schedule drops it once idle.
    live: AtomicBool,
    /// Set once a worker builds a schedule from this key, so dropping
    /// the handle wakes the farm only when one may still hold it.
    on_worker: AtomicBool,
}

impl Drop for Key {
    fn drop(&mut self) {
        rijndael::zeroize::wipe_bytes(&mut self.bytes);
    }
}

/// Where a handle's jobs report: its channel, its notifier and its
/// open-job bound.
struct Sink {
    tx: Sender<JobOutput>,
    notifier: Option<Notifier>,
    capacity: usize,
    /// Jobs accepted and not yet delivered.
    open: Mutex<usize>,
    /// Wakes [`WorkerPool::wait_idle`] when `open` returns to zero.
    idle_cv: Condvar,
}

/// One unit of schedulable work: one span (or the whole) of a job.
struct Task {
    job: Arc<JobState>,
    /// Index into the job's parts this task produces.
    part: usize,
    mode: Mode,
    /// The span's SP 800-38A counter offset (CTR shards; 0 otherwise).
    first_block: u128,
    data: Vec<u8>,
}

impl Task {
    /// Whether a worker built from `spec` can run this task.
    fn fits(&self, spec: BackendSpec) -> bool {
        spec.serves(self.job.key.bytes.len(), self.mode.direction())
    }
}

/// Shared completion state of one job across its shards.
struct JobState {
    id: JobId,
    started: Instant,
    key: Arc<Key>,
    sink: Arc<Sink>,
    progress: Mutex<Progress>,
}

struct Progress {
    /// One slot per shard, reassembled in order at completion.
    parts: Vec<Option<Vec<u8>>>,
    /// Shards still outstanding; the worker that takes this to zero
    /// assembles and delivers the output.
    remaining: usize,
    /// First fault wins; the job reports it once every shard has landed.
    failed: Option<JobError>,
}

/// One farm slot. The worker thread owns the backend.
struct Slot {
    /// What the worker builds its backend from; `swap_core` changes it.
    spec: BackendSpec,
    alive: bool,
    /// The worker thread, joined when a retired slot is reused or at
    /// shutdown.
    thread: Option<JoinHandle<()>>,
}

struct State {
    slots: Vec<Slot>,
    /// The run queue every worker takes from, in arrival order.
    queue: VecDeque<Task>,
    shutdown: bool,
}

impl State {
    /// Live slots whose spec serves `dir` under a `key_len`-byte key.
    fn eligible(&self, key_len: usize, dir: Direction) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive && s.spec.serves(key_len, dir))
            .count()
    }

    /// Whether no live worker can run `task`: what a retired or swapped
    /// slot may leave queued.
    fn stranded(&self, task: &Task) -> bool {
        self.eligible(task.job.key.bytes.len(), task.mode.direction()) == 0
    }

    /// Takes the queued tasks `pick` selects, keeping the rest in order.
    fn take_queued(&mut self, pick: impl Fn(&State, &Task) -> bool) -> VecDeque<Task> {
        let queue = std::mem::take(&mut self.queue);
        let (taken, kept) = queue.into_iter().partition(|t| pick(self, t));
        self.queue = kept;
        taken
    }
}

/// What the workers and every handle share.
struct Inner {
    state: Mutex<State>,
    /// Wakes workers when tasks arrive, a slot changes, a handle whose
    /// key a worker may hold drops, or shutdown starts.
    work_cv: Condvar,
    registry: Registry,
    /// Jobs accepted and not yet delivered, over every handle.
    open: AtomicUsize,
    /// Jobs delivered, over every handle: what the shrink guard of
    /// [`Farm::autoscale_tick`] reads, rather than registry counters
    /// that sum every farm sharing the registry.
    delivered: AtomicU64,
    submit_accepted: Counter,
    submit_busy: Counter,
    submit_ragged: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    queue_depth: Gauge,
    queue_capacity: Gauge,
    job_us: Histogram,
}

impl Inner {
    /// Final delivery: publish counters, push the output down the
    /// handle's channel, fire its notifier, and only then release the
    /// open slot — locks are never held across the callback.
    fn deliver(&self, sink: &Sink, out: JobOutput, started: Instant) {
        self.queue_depth.sub(1);
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.delivered.fetch_add(1, Ordering::Relaxed);
        match &out.data {
            Ok(_) => self.jobs_completed.incr(),
            Err(_) => self.jobs_failed.incr(),
        }
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.job_us.record(us);
        // A dropped handle has no receiver left; its output is dropped.
        let _ = sink.tx.send(out);
        if let Some(notify) = &sink.notifier {
            notify();
        }
        // Released last, so `wait_idle` returning means every delivery
        // side effect is visible.
        let mut open = sink.open.lock().expect("handle open count poisoned");
        *open -= 1;
        if *open == 0 {
            sink.idle_cv.notify_all();
        }
    }

    /// Records one shard's result; the last shard in assembles the job
    /// and delivers it. Assembly appends parts 1.. onto part 0, which
    /// is the submitted buffer and kept its full capacity, so it never
    /// reallocates; a one-part job is delivered as it is. Call *without*
    /// holding the state lock.
    fn finish_part(&self, job: &JobState, part: usize, result: Result<Vec<u8>, JobError>) {
        let data = {
            let mut p = job.progress.lock().expect("job progress poisoned");
            match result {
                Ok(bytes) => p.parts[part] = Some(bytes),
                Err(e) => {
                    p.failed.get_or_insert(e);
                }
            }
            p.remaining -= 1;
            if p.remaining > 0 {
                return;
            }
            match p.failed.take() {
                Some(e) => Err(e),
                None => {
                    let mut parts = p.parts.iter_mut().map(|part| part.take());
                    let mut buf = parts.next().flatten().expect("every shard landed");
                    for part in parts {
                        buf.extend_from_slice(&part.expect("every shard landed"));
                    }
                    Ok(buf)
                }
            }
        };
        self.deliver(&job.sink, JobOutput { id: job.id, data }, job.started);
    }

    /// Fails every task in `tasks`, which no live worker can serve. Call
    /// without the state lock.
    fn fail_tasks(&self, tasks: impl IntoIterator<Item = Task>) {
        for t in tasks {
            let dir = t.mode.direction();
            self.finish_part(&t.job, t.part, Err(JobError::NoCapableCore { dir }));
        }
    }
}

/// Builds a [`Farm`] — its slots and telemetry registry — or a farm of
/// its own with one keyed handle on it, mirroring
/// [`EngineBuilder`](crate::EngineBuilder).
#[derive(Debug, Default)]
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

    /// Adds one worker slot built from `spec`.
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

    /// Sets the open-job bound of the handle [`PoolBuilder::build`]
    /// makes (default 8).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Publishes the farm's instruments into `registry` instead of a
    /// fresh private one (the same sharing semantics as engine farms:
    /// delta-pushed counters aggregate).
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Spawns the keyless farm, one worker thread per slot. Workers key
    /// their backends per job.
    ///
    /// # Errors
    ///
    /// A thread-spawn failure; the workers already spawned are joined.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm, like
    /// [`EngineBuilder::build`](crate::EngineBuilder::build).
    pub fn spawn(self) -> io::Result<Farm> {
        assert!(!self.specs.is_empty(), "a pool needs at least one backend");
        let registry = self.registry.unwrap_or_default();
        let farm = Farm {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                open: AtomicUsize::new(0),
                delivered: AtomicU64::new(0),
                submit_accepted: registry.counter("engine.submit.accepted"),
                submit_busy: registry.counter("engine.submit.busy"),
                submit_ragged: registry.counter("engine.submit.ragged"),
                jobs_completed: registry.counter("engine.jobs.completed"),
                jobs_failed: registry.counter("engine.jobs.failed"),
                queue_depth: registry.gauge("engine.queue.depth"),
                queue_capacity: registry.gauge("engine.queue.capacity"),
                job_us: registry.hist("engine.pool.job_us"),
                registry: registry.clone(),
            }),
            resize_grow: registry.counter("engine.resize.grow"),
            resize_shrink: registry.counter("engine.resize.shrink"),
            resize_swap: registry.counter("engine.resize.swap"),
            workers_gauge: registry.gauge("engine.workers"),
            idle_streak: AtomicU32::new(0),
            last_delivered: AtomicU64::new(0),
            specs: self.specs,
        };
        for &spec in &farm.specs {
            let mut st = farm.inner.state.lock().expect("pool state poisoned");
            farm.spawn_worker(&mut st, spec)?;
            farm.workers_gauge.add(1);
        }
        Ok(farm)
    }

    /// A farm of its own with one handle on it, keyed with `key`; the
    /// farm shuts down when the handle drops.
    ///
    /// # Panics
    ///
    /// Panics on an empty farm, a zero capacity, a key that is not 16,
    /// 24 or 32 bytes, or a thread-spawn failure.
    #[must_use]
    pub fn build(self, key: &[u8]) -> WorkerPool {
        let capacity = self.capacity.unwrap_or(8);
        let farm = Arc::new(self.spawn().expect("spawn engine worker threads"));
        farm.handle(key, capacity, None)
    }
}

/// The keyless worker farm. See the [module docs](self).
pub struct Farm {
    inner: Arc<Inner>,
    /// The configured slots' specs: every handle's caller-runs lane
    /// builds from these.
    specs: Vec<BackendSpec>,
    resize_grow: Counter,
    resize_shrink: Counter,
    resize_swap: Counter,
    workers_gauge: Gauge,
    idle_streak: AtomicU32,
    /// Jobs delivered as of the last autoscale tick.
    last_delivered: AtomicU64,
}

impl Farm {
    /// A handle keyed with `key`, holding at most `capacity` open jobs;
    /// `notifier`, if any, fires once per delivered job.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity, or a key that is not 16, 24 or 32
    /// bytes.
    #[must_use]
    pub fn handle(
        self: &Arc<Self>,
        key: &[u8],
        capacity: usize,
        notifier: Option<Notifier>,
    ) -> WorkerPool {
        assert!(capacity > 0, "a zero-capacity queue rejects every job");
        assert!(
            matches!(key.len(), 16 | 24 | 32),
            "key must be 16, 24, or 32 bytes"
        );
        self.inner.queue_capacity.set(capacity as i64);
        let (tx, rx) = channel();
        WorkerPool {
            farm: Arc::clone(self),
            key: Arc::new(Key {
                bytes: key.to_vec(),
                live: AtomicBool::new(true),
                on_worker: AtomicBool::new(false),
            }),
            sink: Arc::new(Sink {
                tx,
                notifier,
                capacity,
                open: Mutex::new(0),
                idle_cv: Condvar::new(),
            }),
            rx: Mutex::new(rx),
            local: Mutex::new(self.specs.iter().map(|_| None).collect()),
            next_id: AtomicU64::new(0),
        }
    }

    /// The registry this farm publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Live workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        let st = self.inner.state.lock().expect("pool state poisoned");
        st.slots.iter().filter(|s| s.alive).count()
    }

    /// Spawns a worker for `spec` into the lowest retired slot whose
    /// thread has exited (joining it), or a new slot. Returns the index.
    fn spawn_worker(&self, st: &mut State, spec: BackendSpec) -> io::Result<usize> {
        let reuse = st
            .slots
            .iter()
            .position(|s| !s.alive && s.thread.as_ref().is_none_or(JoinHandle::is_finished));
        let index = reuse.unwrap_or(st.slots.len());
        let inner = Arc::clone(&self.inner);
        let thread = thread::Builder::new()
            .name(format!("engine-worker-{index}"))
            .spawn(move || worker_main(&inner, index))?;
        let slot = Slot {
            spec,
            alive: true,
            thread: Some(thread),
        };
        // The new thread waits on the state lock the caller holds until
        // its slot is in place.
        if reuse.is_some() {
            if let Some(exited) = std::mem::replace(&mut st.slots[index], slot).thread {
                let _ = exited.join();
            }
        } else {
            st.slots.push(slot);
        }
        Ok(index)
    }

    /// Adds one worker built from `spec` to the live farm, returning its
    /// slot index. Counted as `engine.resize.grow`.
    ///
    /// # Errors
    ///
    /// A thread-spawn failure, or a farm already shut down.
    pub fn add_core(&self, spec: BackendSpec) -> io::Result<usize> {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if st.shutdown {
            return Err(io::Error::other("the farm is shut down"));
        }
        let index = self.spawn_worker(&mut st, spec)?;
        drop(st);
        self.workers_gauge.add(1);
        self.resize_grow.incr();
        Ok(index)
    }

    /// Retires the worker at `index`. The task it is running finishes
    /// first; queued tasks stay queued for the other workers, and those
    /// no survivor can serve fail with [`JobError::NoCapableCore`].
    /// Counted as `engine.resize.shrink`. Returns `false` for an unknown
    /// or already-retired slot.
    pub fn remove_core(&self, index: usize) -> bool {
        let removed = self.change_slot(index, |s| s.alive = false, &self.resize_shrink);
        if removed {
            self.workers_gauge.sub(1);
        }
        removed
    }

    /// Hot-swaps the worker at `index` to `spec` *without* draining the
    /// farm: the task it is running finishes on the old backend, and its
    /// next task builds from `spec` (dropping the old backend wipes its
    /// schedule). Queued tasks no live worker can serve any more fail as
    /// on a retirement. Counted as `engine.resize.swap`. Returns `false`
    /// for an unknown or retired slot.
    pub fn swap_core(&self, index: usize, spec: BackendSpec) -> bool {
        self.change_slot(index, |s| s.spec = spec, &self.resize_swap)
    }

    /// Applies `change` to the live slot at `index`, fails the queued
    /// tasks it stranded, counts it on `counter` and wakes the workers.
    /// Returns `false` for an unknown or retired slot.
    fn change_slot(&self, index: usize, change: impl FnOnce(&mut Slot), counter: &Counter) -> bool {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        let Some(slot) = st.slots.get_mut(index).filter(|s| s.alive) else {
            return false;
        };
        change(slot);
        let stranded = st.take_queued(State::stranded);
        drop(st);
        self.inner.fail_tasks(stranded);
        counter.incr();
        self.inner.work_cv.notify_all();
        true
    }

    /// One supervisor tick of the elastic control plane: reads the
    /// farm's open and delivered jobs over every handle, and grows or
    /// shrinks the farm under `policy`. Growth needs
    /// [`ResizePolicy::grow_depth`] open jobs; shrinking needs
    /// [`ResizePolicy::shrink_after_ticks`] consecutive idle ticks, each
    /// with no job open and none delivered since the tick before. A grow
    /// whose thread cannot spawn changes nothing.
    pub fn autoscale_tick(&self, policy: &ResizePolicy) -> Option<ResizeAction> {
        // Read before `open`: a job open now is delivered after this
        // watermark, so the next tick cannot count as idle.
        let delivered = self.inner.delivered.load(Ordering::Relaxed);
        let ran = self.last_delivered.swap(delivered, Ordering::Relaxed) != delivered;
        let open = self.inner.open.load(Ordering::Relaxed);
        let workers = self.workers();
        if open >= policy.grow_depth && workers < policy.max_workers {
            self.idle_streak.store(0, Ordering::Relaxed);
            return self.add_core(policy.spec).ok().map(ResizeAction::Grew);
        }
        if open == 0 && !ran && workers > policy.min_workers {
            let streak = self.idle_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= policy.shrink_after_ticks {
                self.idle_streak.store(0, Ordering::Relaxed);
                let victim = {
                    let st = self.inner.state.lock().expect("pool state poisoned");
                    (0..st.slots.len()).rev().find(|&i| st.slots[i].alive)
                };
                if let Some(i) = victim.filter(|&i| self.remove_core(i)) {
                    return Some(ResizeAction::Shrank(i));
                }
            }
        } else {
            self.idle_streak.store(0, Ordering::Relaxed);
        }
        None
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// finish every queued task, joins them, and fails anything left
    /// over typed, so no job is silently lost. Already-delivered outputs
    /// stay collectable. Idempotent.
    pub fn shutdown(&self) {
        let threads: Vec<JoinHandle<()>> = {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            st.slots
                .iter_mut()
                .filter_map(|s| s.thread.take())
                .collect()
        };
        self.inner.work_cv.notify_all();
        for t in threads {
            // Backend panics are contained per task (the held job
            // already failed typed); joining must not re-raise.
            let _ = t.join();
        }
        // Whatever is still queued, no worker will run: fail it so its
        // jobs, and the `wait_idle` callers behind them, complete.
        let (live, leftovers) = {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            let live = st.slots.iter().filter(|s| s.alive).count();
            for s in &mut st.slots {
                s.alive = false;
            }
            (live, std::mem::take(&mut st.queue))
        };
        self.workers_gauge.sub(live as i64);
        self.inner.fail_tasks(leftovers);
    }
}

impl fmt::Debug for Farm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Farm")
            .field("specs", &self.specs)
            .field("workers", &self.workers())
            .field("open_jobs", &self.inner.open.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A caller-runs backend and its counters.
type LocalCore = (Box<dyn Backend>, CoreTel);

/// One keyed handle on a [`Farm`]: the key, a completion channel and
/// notifier, an open-job bound and a caller-runs lane. See the
/// [module docs](self).
pub struct WorkerPool {
    farm: Arc<Farm>,
    key: Arc<Key>,
    sink: Arc<Sink>,
    rx: Mutex<Receiver<JobOutput>>,
    /// The caller-runs lane: one lazily keyed backend per farm spec.
    local: Mutex<Vec<Option<LocalCore>>>,
    next_id: AtomicU64,
}

impl WorkerPool {
    /// Shorthand: a farm of its own over `specs`, with a private
    /// registry, and one handle on it.
    #[must_use]
    pub fn with_farm(key: &[u8], specs: &[BackendSpec], capacity: usize) -> WorkerPool {
        PoolBuilder::new()
            .cores(specs)
            .capacity(capacity)
            .build(key)
    }

    /// The farm this handle submits to.
    #[must_use]
    pub fn farm(&self) -> &Arc<Farm> {
        &self.farm
    }

    /// The registry the farm publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        self.farm.registry()
    }

    /// This handle's jobs accepted and not yet delivered.
    #[must_use]
    pub fn open_jobs(&self) -> usize {
        *self.sink.open.lock().expect("handle open count poisoned")
    }

    /// Enqueues a mode operation over `data` under this handle's key,
    /// applying backpressure, and wakes the workers.
    ///
    /// A parallel mode (ECB, CTR) is cut into one span of 8-block
    /// granules per eligible worker; anything else is one task. Either
    /// joins the farm's run queue behind every task already there. The
    /// completion surfaces from
    /// [`WorkerPool::try_collect`] / [`WorkerPool::collect_timeout`] in
    /// completion order.
    ///
    /// # Errors
    ///
    /// * [`SubmitError::Busy`] when `capacity` of this handle's jobs are
    ///   already open (or the farm is shutting down);
    /// * [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    ///   number of blocks.
    pub fn try_submit(&self, mode: Mode, mut data: Vec<u8>) -> Result<JobId, SubmitError> {
        let inner = &self.farm.inner;
        let mut st = inner.state.lock().expect("pool state poisoned");
        {
            let mut open = self.sink.open.lock().expect("handle open count poisoned");
            if st.shutdown || *open >= self.sink.capacity {
                inner.submit_busy.incr();
                return Err(SubmitError::Busy {
                    capacity: self.sink.capacity,
                });
            }
            if mode.requires_full_blocks() && !data.len().is_multiple_of(BLOCK) {
                inner.submit_ragged.incr();
                return Err(SubmitError::RaggedLength { len: data.len() });
            }
            *open += 1;
        }
        inner.open.fetch_add(1, Ordering::Relaxed);
        inner.queue_depth.add(1);
        inner.submit_accepted.incr();
        let id = JobId::from_raw(self.next_id.fetch_add(1, Ordering::Relaxed));

        let dir = mode.direction();
        let eligible = st.eligible(self.key.bytes.len(), dir);
        if eligible == 0 || data.is_empty() {
            // Degenerate jobs complete on the submitting thread:
            // accepted-then-failed when no live worker serves the
            // direction under this key (like the engine), trivially done
            // when there are no bytes.
            drop(st);
            let data = if eligible == 0 {
                Err(JobError::NoCapableCore { dir })
            } else {
                Ok(data)
            };
            inner.deliver(&self.sink, JobOutput { id, data }, Instant::now());
            return Ok(id);
        }
        if mode.is_parallel() && eligible > 1 {
            // One granule span per eligible worker, split from the tail:
            // each later span is one allocation and one copy, and span 0
            // takes the submitted buffer itself, whose capacity assembly
            // then appends the others into. Queued in stream order.
            let plan: Vec<(usize, usize, usize)> =
                shard_plan(data.len().div_ceil(BLOCK), eligible).collect();
            let job = self.job(id, plan.len());
            let spans: Vec<Task> = (plan.iter().enumerate().rev())
                .map(|(part, &(_, first, _))| Task {
                    job: Arc::clone(&job),
                    part,
                    mode,
                    first_block: first as u128,
                    data: if first == 0 {
                        std::mem::take(&mut data)
                    } else {
                        data.split_off((first * BLOCK).min(data.len()))
                    },
                })
                .collect();
            st.queue.extend(spans.into_iter().rev());
        } else {
            st.queue.push_back(Task {
                job: self.job(id, 1),
                part: 0,
                mode,
                first_block: 0,
                data,
            });
        }
        drop(st);
        inner.work_cv.notify_all();
        Ok(id)
    }

    fn job(&self, id: JobId, parts: usize) -> Arc<JobState> {
        Arc::new(JobState {
            id,
            started: Instant::now(),
            key: Arc::clone(&self.key),
            sink: Arc::clone(&self.sink),
            progress: Mutex::new(Progress {
                parts: vec![None; parts],
                remaining: parts,
                failed: None,
            }),
        })
    }

    /// Runs one job to completion on the calling thread and returns its
    /// outcome — the caller-runs lane (see the [module docs](self)).
    ///
    /// The backend is the first farm spec that serves the job's
    /// direction under this handle's key, keyed on first use and kept
    /// for later calls. The job runs through the same panic-containing
    /// executor as the workers and lands in the same `engine.core.*` /
    /// `engine.jobs.*` instruments. It holds no open-job slot and
    /// spawns no thread: the caller is the backpressure.
    ///
    /// The inner result is the job's outcome, as in [`JobOutput::data`]:
    /// [`JobError::NoCapableCore`] when no farm spec serves the
    /// direction, [`JobError::Backend`] on a backend fault, and
    /// [`JobError::WorkerPanicked`] when the backend panicked.
    ///
    /// # Errors
    ///
    /// [`SubmitError::RaggedLength`] when an ECB/CBC job is not a whole
    /// number of blocks, checked before anything runs.
    pub fn run_here(
        &self,
        mode: Mode,
        mut data: Vec<u8>,
    ) -> Result<Result<Vec<u8>, JobError>, SubmitError> {
        let inner = &self.farm.inner;
        if mode.requires_full_blocks() && !data.len().is_multiple_of(BLOCK) {
            inner.submit_ragged.incr();
            return Err(SubmitError::RaggedLength { len: data.len() });
        }
        inner.submit_accepted.incr();
        let result = match self.serving(&[mode.direction()]) {
            Ok(_) if data.is_empty() => Ok(data),
            Ok(index) => self
                .on_local(index, |backend| run_span(backend, mode, 0, &mut data))
                .map(|()| data),
            Err(e) => Err(e),
        };
        match &result {
            Ok(_) => inner.jobs_completed.incr(),
            Err(_) => inner.jobs_failed.incr(),
        }
        Ok(result)
    }

    /// Lends the caller-runs lane's backend to `f` as a cipher, on the
    /// calling thread: the entry for work that is not an engine [`Mode`]
    /// (CMAC, GCM, XTS, key wrap over the lent [`BackendCipher`]).
    ///
    /// The backend is the one [`WorkerPool::run_here`] uses: the first
    /// farm spec that serves every direction in `dirs` under this
    /// handle's key, keyed on first use. `f` runs inside the same panic
    /// containment, and the blocks it computes land in that core's
    /// `engine.core.*` counters; `engine.jobs.*` counts engine jobs only.
    /// The lane is held while `f` runs, so `f` must not call back into
    /// this handle's lane.
    ///
    /// # Errors
    ///
    /// [`JobError::NoCapableCore`] when no farm spec serves every
    /// direction in `dirs`, [`JobError::Backend`] when the backend
    /// faulted (what `f` computed is discarded), and
    /// [`JobError::WorkerPanicked`] when the backend panicked.
    pub fn run_here_with<R>(
        &self,
        dirs: &[Direction],
        f: impl FnOnce(&BackendCipher<'_>) -> R,
    ) -> Result<R, JobError> {
        let index = self.serving(dirs)?;
        self.on_local(index, |backend| Ok(BackendCipher::lend(backend, f)?))
    }

    /// The first farm spec that serves every direction in `dirs` under
    /// this handle's key.
    fn serving(&self, dirs: &[Direction]) -> Result<usize, JobError> {
        let (specs, key_len) = (&self.farm.specs, self.key.bytes.len());
        let serves = |spec: &BackendSpec, dir: &Direction| spec.serves(key_len, *dir);
        specs
            .iter()
            .position(|s| dirs.iter().all(|d| serves(s, d)))
            .ok_or_else(|| {
                // Name a direction no spec serves; on a split farm, where
                // each is served by some spec, the last one asked for.
                let missing = dirs.iter().find(|d| !specs.iter().any(|s| serves(s, d)));
                let dir = *missing
                    .or(dirs.last())
                    .expect("every spec serves no direction");
                JobError::NoCapableCore { dir }
            })
    }

    /// Runs `op` on the caller-runs backend built from spec `index`
    /// (keyed now if this is its first use), contains a panic, and
    /// pushes the core's counters.
    fn on_local<R>(
        &self,
        index: usize,
        op: impl FnOnce(&mut dyn Backend) -> Result<R, JobError>,
    ) -> Result<R, JobError> {
        let mut local = self.local.lock().expect("caller lane poisoned");
        let (backend, tel) = local[index].get_or_insert_with(|| {
            let backend = self.farm.specs[index].build(&self.key.bytes);
            let tel = CoreTel::register(&self.farm.inner.registry, index, backend.name());
            (backend, tel)
        });
        let result = contained(|| op(backend.as_mut()));
        tel.sync(backend.as_ref());
        result
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

    /// Blocks until none of this handle's jobs are open.
    pub fn wait_idle(&self) {
        let mut open = self.sink.open.lock().expect("handle open count poisoned");
        while *open > 0 {
            open = self
                .sink
                .idle_cv
                .wait(open)
                .expect("handle open count poisoned");
        }
    }

    /// Like [`WorkerPool::wait_idle`], but gives up after `timeout`.
    /// Returns `true` when every accepted job was delivered, `false` on
    /// timeout — the graceful-shutdown bound for callers that must not
    /// hang on a wedged backend.
    #[must_use]
    pub fn wait_idle_timeout(&self, timeout: Duration) -> bool {
        let open = self.sink.open.lock().expect("handle open count poisoned");
        let (open, _) = self
            .sink
            .idle_cv
            .wait_timeout_while(open, timeout, |open| *open > 0)
            .expect("handle open count poisoned");
        *open == 0
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("open_jobs", &self.open_jobs())
            .field("capacity", &self.sink.capacity)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.key.live.store(false, Ordering::SeqCst);
        let inner = &self.farm.inner;
        // Nobody can collect this handle's queued jobs: they leave the
        // queue instead of waiting ahead of another handle's, and fail
        // so the farm's counts balance. Taking the lock also orders the
        // wake after any idle worker's check of `live`: none goes to
        // sleep holding the schedule.
        let mut st = inner.state.lock().expect("pool state poisoned");
        let cancelled = st.take_queued(|_, t| Arc::ptr_eq(&t.job.sink, &self.sink));
        drop(st);
        if self.key.on_worker.load(Ordering::SeqCst) {
            inner.work_cv.notify_all();
        }
        for t in cancelled {
            inner.finish_part(&t.job, t.part, Err(JobError::Cancelled));
        }
    }
}

/// A worker's backend and what it was built from: its slot's spec and
/// the key of the task that needed it.
struct Held {
    key: Arc<Key>,
    spec: BackendSpec,
    backend: Box<dyn Backend>,
    tel: CoreTel,
}

/// What the worker loop decided to do next (chosen under the state lock,
/// acted on outside it).
enum Action {
    /// Run this task on a backend built from this spec.
    Run(Task, BackendSpec),
    /// Drop the held schedule: its handle is gone.
    Evict,
    Exit,
}

fn worker_main(inner: &Inner, me: usize) {
    let mut held: Option<Held> = None;
    loop {
        let action = {
            let mut st = inner.state.lock().expect("pool state poisoned");
            loop {
                let Slot { spec, alive, .. } = st.slots[me];
                if !alive {
                    break Action::Exit;
                }
                if let Some(pos) = st.queue.iter().position(|t| t.fits(spec)) {
                    let task = st.queue.remove(pos).expect("a queued position");
                    break Action::Run(task, spec);
                }
                if st.shutdown {
                    break Action::Exit;
                }
                if held
                    .as_ref()
                    .is_some_and(|h| !h.key.live.load(Ordering::SeqCst))
                {
                    break Action::Evict;
                }
                st = inner.work_cv.wait(st).expect("pool state poisoned");
            }
        };
        let (task, spec) = match action {
            Action::Run(task, spec) => (task, spec),
            Action::Evict => {
                held = None;
                continue;
            }
            Action::Exit => return,
        };
        let Task {
            job,
            part,
            mode,
            first_block,
            mut data,
        } = task;
        if !held
            .as_ref()
            .is_some_and(|h| h.spec == spec && Arc::ptr_eq(&h.key, &job.key))
        {
            // Drop (and so wipe) the old schedule before keying the new
            // one; its counters carry over to a new backend of the same
            // name, which counts from zero. A spec that cannot build
            // fails the task, not the worker.
            let old = held.take().map(|h| h.tel);
            held = catch_unwind(AssertUnwindSafe(|| {
                let backend = spec.build(&job.key.bytes);
                job.key.on_worker.store(true, Ordering::SeqCst);
                let tel = match old {
                    Some(tel) if tel.name == backend.name() => {
                        tel.restart();
                        tel
                    }
                    _ => CoreTel::register(&inner.registry, me, backend.name()),
                };
                Held {
                    key: Arc::clone(&job.key),
                    spec,
                    backend,
                    tel,
                }
            }))
            .ok();
        }
        let result = match held.as_mut() {
            Some(h) => {
                let result =
                    contained(|| run_span(h.backend.as_mut(), mode, first_block, &mut data));
                h.tel.sync(h.backend.as_ref());
                result.map(|()| data)
            }
            None => Err(JobError::WorkerPanicked),
        };
        inner.finish_part(&job, part, result);
    }
}

/// Runs `op` — a span on a worker's backend, or anything on the
/// caller-runs lane's — with backend panics contained: an unwind would
/// strand a worker's held job (`wait_idle` hangs) and poison the state
/// mutex, or unwind the caller's thread. The panic becomes
/// [`JobError::WorkerPanicked`] and the backend stays in service.
fn contained<R>(op: impl FnOnce() -> Result<R, JobError>) -> Result<R, JobError> {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or(Err(JobError::WorkerPanicked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendError;
    use aes_ip::bus::StreamError;
    use rijndael::modes::{Cbc, Ctr, Ecb};
    use rijndael::vectors::FIPS197_C1;
    use rijndael::{Aes128, BatchCipher, BlockCipher, Rijndael};
    use std::collections::{BTreeMap, BTreeSet};

    const KEY: [u8; 16] = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F,
        0x3C,
    ];

    const WAIT: Duration = Duration::from_secs(10);

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    fn farm(specs: &[BackendSpec]) -> Arc<Farm> {
        Arc::new(PoolBuilder::new().cores(specs).spawn().unwrap())
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
    fn handles_with_different_keys_share_one_farm() {
        // One worker: every alternation between the handles re-keys it.
        let farm = farm(&[BackendSpec::EncDecCore]);
        let long_key: Vec<u8> = (0..32u8).collect();
        let short = farm.handle(&KEY, 8, None);
        let long = farm.handle(&long_key, 8, None);
        for round in 0..4 {
            let data = sample(16 * (9 + round));
            short.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
            long.try_submit(Mode::EcbEncrypt, data.clone()).unwrap();
            for (pool, key) in [(&short, &KEY[..]), (&long, &long_key[..])] {
                let mut expect = data.clone();
                Ecb::encrypt(&Rijndael::<4>::new(key).unwrap(), &mut expect).unwrap();
                let out = pool.collect_timeout(WAIT).unwrap();
                assert_eq!(out.data.unwrap(), expect, "round {round}");
            }
        }
        // The 16-byte key keyed the IP core; the 32-byte one diverted the
        // same slot to the software fallback.
        let snap = farm.registry().snapshot();
        assert!(snap.counter("engine.core.0.ip-encdec.blocks") > Some(0));
        assert!(snap.counter("engine.core.0.soft-fallback.blocks") > Some(0));
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
        // two; only assert Busy when the handle is genuinely full.
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
    fn a_full_handle_does_not_hold_back_another() {
        // 50 ms a block: the first job is still open at the second submit.
        let farm = farm(&[BackendSpec::Paced {
            block_ns: 50_000_000,
        }]);
        let full = farm.handle(&KEY, 1, None);
        let other = farm.handle(&KEY, 1, None);
        full.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        assert_eq!(
            full.try_submit(Mode::EcbEncrypt, sample(16)),
            Err(SubmitError::Busy { capacity: 1 })
        );
        other.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        assert!(full.collect_timeout(WAIT).unwrap().data.is_ok());
        assert!(other.collect_timeout(WAIT).unwrap().data.is_ok());
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
        // A 32-byte key diverts the same slots to the software fallback,
        // which decrypts.
        let long = pool.farm().handle(&[7; 32], 4, None);
        long.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(long.collect_timeout(WAIT).unwrap().data.is_ok());
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
    fn a_lone_parallel_job_is_not_overtaken_by_later_chained_jobs() {
        // One worker, so the ECB job has exactly one eligible worker,
        // while each collected CBC stream is replaced by a new one.
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Paced { block_ns: 500_000 }], 64);
        let cbc = || {
            pool.try_submit(Mode::CbcEncrypt([1; 16]), sample(2 * 16))
                .unwrap()
        };
        for _ in 0..3 {
            cbc();
        }
        let ecb = pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        let mut cbcs = 3;
        let mut order = Vec::new();
        while order.len() < 41 {
            let out = pool.collect_timeout(WAIT).expect("a job completes");
            assert!(out.data.is_ok());
            order.push(out.id);
            if out.id != ecb && cbcs < 40 {
                cbc();
                cbcs += 1;
            }
        }
        let at = order.iter().position(|&id| id == ecb).unwrap();
        assert!(at < 4, "the ECB job completed {} of 41", at + 1);
    }

    #[test]
    fn a_chained_job_runs_on_the_first_free_worker() {
        // Two workers at 5 ms a block: the 64-block CBC stream holds one
        // for 320 ms, and both one-block streams run on the other.
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::Paced {
                block_ns: 5_000_000,
            }; 2],
            4,
        );
        let cbc = |blocks: usize| {
            pool.try_submit(Mode::CbcEncrypt([1; 16]), sample(blocks * 16))
                .unwrap()
        };
        let long = cbc(64);
        cbc(1);
        cbc(1);
        let order: Vec<JobId> = (0..3)
            .map(|_| {
                let out = pool.collect_timeout(WAIT).expect("a job completes");
                assert!(out.data.is_ok());
                out.id
            })
            .collect();
        assert_eq!(order[2], long, "completion order {order:?}");
    }

    #[test]
    fn grow_shrink_and_swap_under_load_lose_nothing() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .capacity(64)
            .registry(reg.clone())
            .build(&KEY);
        let farm = pool.farm();
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
        let grown = farm.add_core(BackendSpec::Software).unwrap();
        assert_eq!(farm.workers(), 2);
        for i in 8..16 {
            submit(&pool, i);
        }
        assert!(farm.swap_core(grown, BackendSpec::Bitsliced));
        for i in 16..24 {
            submit(&pool, i);
        }
        assert!(farm.remove_core(grown));
        assert_eq!(farm.workers(), 1);
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
    fn grow_shrink_cycles_reuse_retired_slots() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::Ttable)
            .registry(reg.clone())
            .build(&KEY);
        let farm = pool.farm();
        let thread_exited = |i: usize| {
            let st = farm.inner.state.lock().unwrap();
            st.slots[i]
                .thread
                .as_ref()
                .is_none_or(JoinHandle::is_finished)
        };
        for cycle in 0..20 {
            let grown = farm.add_core(BackendSpec::Software).unwrap();
            // Sixteen blocks deal one granule span to each worker, so
            // the grown slot names its counters.
            pool.try_submit(Mode::EcbEncrypt, sample(16 * 16)).unwrap();
            assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
            assert!(farm.remove_core(grown));
            while !thread_exited(grown) {
                thread::yield_now();
            }
            let named: BTreeSet<usize> = crate::FarmStats::from_snapshot(&reg.snapshot())
                .per_core
                .iter()
                .map(|c| c.index)
                .collect();
            assert!(named.len() <= 2, "cycle {cycle}: cores {named:?}");
            let st = farm.inner.state.lock().unwrap();
            let kept = st.slots.iter().filter(|s| s.thread.is_some()).count();
            assert!(kept <= 2, "cycle {cycle}: {kept} join handles kept");
        }
    }

    #[test]
    fn removing_the_last_capable_worker_fails_orphaned_work_typed() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::EncDecCore], 16);
        pool.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        pool.wait_idle();
        for _ in 0..4 {
            pool.try_submit(Mode::CbcEncrypt([0; 16]), sample(16 * 16))
                .unwrap();
        }
        pool.farm().remove_core(0);
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
    fn removing_the_last_decryptor_fails_its_queued_work_typed() {
        // A decrypt job with exactly one eligible worker queues on that
        // worker. Retiring it must not strand the job: either the worker
        // ran it first, or the removal fails it typed — never a hang.
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::EncDecCore],
            16,
        );
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(pool.farm().remove_core(1));
        let out = pool
            .collect_timeout(WAIT)
            .expect("the queued job completes despite the removal");
        assert_eq!(out.id, id);
        if let Err(e) = out.data {
            assert_eq!(
                e,
                JobError::NoCapableCore {
                    dir: Direction::Decrypt
                }
            );
        }
        pool.wait_idle(); // the open slot was released either way
    }

    #[test]
    fn swapping_away_the_last_decryptor_fails_its_queued_work_typed() {
        let pool = WorkerPool::with_farm(
            &KEY,
            &[BackendSpec::EncryptCore, BackendSpec::EncDecCore],
            16,
        );
        let id = pool.try_submit(Mode::EcbDecrypt, sample(32)).unwrap();
        assert!(pool.farm().swap_core(1, BackendSpec::EncryptCore));
        let out = pool
            .collect_timeout(WAIT)
            .expect("the queued job completes despite the swap");
        assert_eq!(out.id, id);
        pool.wait_idle();
        // And shutdown still drains cleanly afterwards.
        pool.farm().shutdown();
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
        pool.farm().swap_core(0, BackendSpec::Software);
        pool.try_submit(Mode::EcbEncrypt, sample(8 * 16)).unwrap();
        pool.wait_idle();
        pool.farm().shutdown();
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
        let farm = pool.farm();
        let policy = ResizePolicy {
            min_workers: 1,
            max_workers: 3,
            grow_depth: 4,
            shrink_after_ticks: 2,
            spec: BackendSpec::Software,
        };
        for _ in 0..16 {
            pool.try_submit(Mode::EcbEncrypt, sample(32 * 16)).unwrap();
        }
        // Depth is high: the tick must grow (possibly repeatedly).
        let grew = farm.autoscale_tick(&policy);
        assert!(matches!(grew, Some(ResizeAction::Grew(_))), "{grew:?}");
        pool.wait_idle();
        // The first tick after the backlog sees the jobs delivered since
        // the grow, so it is not idle; then two idle ticks shrink back.
        assert_eq!(farm.autoscale_tick(&policy), None);
        assert_eq!(farm.autoscale_tick(&policy), None);
        assert!(matches!(
            farm.autoscale_tick(&policy),
            Some(ResizeAction::Shrank(_))
        ));
        assert_eq!(farm.workers(), 1);
        assert!(reg.snapshot().counter("engine.resize.grow") >= Some(1));
        assert_eq!(reg.snapshot().counter("engine.resize.shrink"), Some(1));
    }

    #[test]
    fn autoscale_ignores_neighbor_pool_backlog() {
        // Two farms share one registry. A's backlog drives the shared
        // engine.queue.depth gauge high; B, nearly idle, must not grow
        // on its neighbor's pressure.
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
            b.farm().autoscale_tick(&policy),
            None,
            "one own open job is below grow_depth, whatever the shared gauge says"
        );
        a.wait_idle();
        b.wait_idle();
    }

    #[test]
    fn notifier_fires_once_per_completion() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let notifier: Notifier = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let pool = farm(&[BackendSpec::Software; 2]).handle(&KEY, 8, Some(notifier));
        for _ in 0..5 {
            pool.try_submit(Mode::Ctr([0; 16]), sample(40)).unwrap();
        }
        assert_eq!(collect_n(&pool, 5).len(), 5);
        pool.wait_idle();
        assert_eq!(fired.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn a_dropped_handles_key_dies_once_the_farm_is_idle() {
        let farm = farm(&[BackendSpec::Software; 2]);
        let pool = farm.handle(&KEY, 8, None);
        let key = Arc::downgrade(&pool.key);
        pool.try_submit(Mode::EcbEncrypt, sample(64 * 16)).unwrap();
        assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
        pool.wait_idle();
        // The workers that ran the job keep its schedule for the next
        // job under this key.
        assert!(key.strong_count() > 1, "a worker holds the key");
        drop(pool);
        let deadline = Instant::now() + WAIT;
        while key.strong_count() > 0 {
            assert!(Instant::now() < deadline, "a worker kept the key");
            thread::yield_now();
        }
        assert_eq!(farm.workers(), 2);
    }

    #[test]
    fn a_dropped_handles_queued_jobs_leave_the_farm() {
        // One worker at 20 ms a block: A fills its capacity and drops
        // while its first job runs. B's job then waits for that job at
        // most, not for the three A queued behind it.
        let farm = farm(&[BackendSpec::Paced {
            block_ns: 20_000_000,
        }]);
        let a = farm.handle(&KEY, 4, None);
        for _ in 0..4 {
            a.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        }
        drop(a);
        let b = farm.handle(&KEY, 4, None);
        b.try_submit(Mode::EcbEncrypt, sample(16)).unwrap();
        assert!(b.collect_timeout(WAIT).unwrap().data.is_ok());
        let snap = farm.registry().snapshot();
        let completed = snap.counter("engine.jobs.completed").unwrap_or(0);
        assert!(
            completed <= 2,
            "{completed} jobs ran, B's after A's backlog"
        );
        assert!(snap.counter("engine.jobs.failed") >= Some(3));
        // The cancelled jobs left the farm's counts balanced.
        assert_eq!(farm.inner.open.load(Ordering::Relaxed), 0);
        assert_eq!(snap.gauge("engine.queue.depth"), Some(0));
    }

    #[test]
    fn counters_stay_exact_when_one_worker_rekeys() {
        // One worker alternates between two keys, rebuilding a backend
        // of the same name each time; every block is counted once.
        let reg = Registry::new();
        let farm = Arc::new(
            PoolBuilder::new()
                .core(BackendSpec::Software)
                .registry(reg.clone())
                .spawn()
                .unwrap(),
        );
        let a = farm.handle(&KEY, 4, None);
        let b = farm.handle(&[9; 16], 4, None);
        for _ in 0..4 {
            for (pool, blocks) in [(&a, 3), (&b, 5)] {
                pool.try_submit(Mode::EcbEncrypt, sample(blocks * 16))
                    .unwrap();
                assert!(pool.collect_timeout(WAIT).unwrap().data.is_ok());
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.core.0.soft-ref.blocks"), Some(32));
    }

    #[test]
    fn shutdown_finishes_queued_work_and_refuses_new_jobs() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Ttable], 16);
        for _ in 0..6 {
            pool.try_submit(Mode::EcbEncrypt, sample(16 * 16)).unwrap();
        }
        pool.farm().shutdown();
        assert_eq!(
            pool.try_submit(Mode::EcbEncrypt, sample(16)),
            Err(SubmitError::Busy { capacity: 16 })
        );
        assert_eq!(collect_n(&pool, 6).len(), 6);
        assert!(pool.farm().add_core(BackendSpec::Ttable).is_err());
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<WorkerPool>();
        assert_both::<Farm>();
        assert_both::<ResizePolicy>();
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn builder_panics_on_an_empty_farm() {
        let _ = PoolBuilder::new().build(&KEY);
    }

    #[test]
    fn caller_lane_serves_a_split_farm_in_both_directions() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .cores(&[BackendSpec::EncryptCore, BackendSpec::DecryptCore])
            .capacity(2)
            .registry(reg.clone())
            .build(&KEY);
        let reference = Aes128::new(&KEY);
        let data = sample(4 * 16);
        let ct = pool.run_here(Mode::EcbEncrypt, data.clone()).unwrap();
        let mut expect = data.clone();
        Ecb::encrypt(&reference, &mut expect).unwrap();
        assert_eq!(ct, Ok(expect));
        assert_eq!(pool.run_here(Mode::EcbDecrypt, ct.unwrap()), Ok(Ok(data)));
        // CTR needs only the forward datapath: the encrypt core serves it.
        let ctr = pool.run_here(Mode::Ctr([0xF0; 16]), sample(37)).unwrap();
        let mut expect = sample(37);
        Ctr::apply(&reference, &[0xF0; 16], &mut expect);
        assert_eq!(ctr, Ok(expect));

        // No job was queued and no open slot was taken.
        assert_eq!(pool.open_jobs(), 0);
        let snap = reg.snapshot();
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
            Err(SubmitError::RaggedLength { len: 17 })
        );
        assert_eq!(
            pool.run_here(Mode::CbcDecrypt([0; 16]), sample(31)),
            Err(SubmitError::RaggedLength { len: 31 })
        );
        // CTR streams, so ragged lengths are fine; empty jobs are done.
        assert!(matches!(
            pool.run_here(Mode::Ctr([0; 16]), sample(17)),
            Ok(Ok(_))
        ));
        assert_eq!(
            pool.run_here(Mode::EcbEncrypt, Vec::new()),
            Ok(Ok(Vec::new()))
        );
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
        let tel = CoreTel::register(pool.registry(), 0, "mock-panicky");
        pool.local.lock().unwrap()[0] = Some((Box::new(Panicky), tel));
        assert_eq!(
            pool.run_here(Mode::EcbEncrypt, sample(32)),
            Ok(Err(JobError::WorkerPanicked))
        );
        // The lane is not poisoned: a second panic is contained too.
        assert_eq!(
            pool.run_here(Mode::Ctr([0; 16]), sample(5)),
            Ok(Err(JobError::WorkerPanicked))
        );
        // The worker lane builds its own backends and is unaffected.
        let data = sample(32);
        let mut expect = data.clone();
        Ecb::encrypt(&Aes128::new(&KEY), &mut expect).unwrap();
        pool.try_submit(Mode::EcbEncrypt, data).unwrap();
        assert_eq!(pool.collect_timeout(WAIT).unwrap().data, Ok(expect));
        assert_eq!(
            pool.registry().snapshot().counter("engine.jobs.failed"),
            Some(2)
        );
    }

    /// A backend that computes nothing and faults on its third block, as
    /// a core that wedges mid-stream would, then stays wedged.
    struct FaultsOnThirdBlock {
        blocks: u64,
    }

    impl Backend for FaultsOnThirdBlock {
        fn name(&self) -> &'static str {
            "mock-faulty"
        }

        fn supports(&self, _: Direction) -> bool {
            true
        }

        fn process_block(&mut self, _: &mut [u8; 16], _: Direction) -> Result<(), BackendError> {
            if self.blocks == 2 {
                return Err(BackendError::Bus(StreamError::Wedged {
                    completed: 2,
                    idle_cycles: 801,
                }));
            }
            self.blocks += 1;
            Ok(())
        }

        fn blocks(&self) -> u64 {
            self.blocks
        }

        fn cycles(&self) -> u64 {
            self.blocks
        }

        fn setup_cycles(&self) -> u64 {
            0
        }

        fn busy_cycles(&self) -> u64 {
            self.blocks
        }
    }

    /// Every engine mode, each over an eight-block job.
    const EVERY_MODE: [Mode; 8] = [
        Mode::EcbEncrypt,
        Mode::EcbDecrypt,
        Mode::CbcEncrypt([1; 16]),
        Mode::CbcDecrypt([2; 16]),
        Mode::Ctr([3; 16]),
        Mode::CfbEncrypt([4; 16]),
        Mode::CfbDecrypt([5; 16]),
        Mode::Ofb([6; 16]),
    ];

    #[test]
    fn a_backend_fault_mid_job_fails_the_engine_job_typed() {
        let reg = Registry::new();
        for mode in EVERY_MODE {
            let mut engine = crate::EngineBuilder::new()
                .backend(Box::new(FaultsOnThirdBlock { blocks: 0 }))
                .registry(reg.clone())
                .build(&KEY);
            engine.try_submit(mode, sample(8 * 16)).unwrap();
            let out = engine.run();
            assert!(
                matches!(out[0].data, Err(JobError::Backend(BackendError::Bus(_)))),
                "{mode}: {:?}",
                out[0].data
            );
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.jobs.failed"), Some(8));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(0));
    }

    #[test]
    fn a_backend_fault_mid_job_fails_the_caller_lane_job_typed() {
        let pool = WorkerPool::with_farm(&KEY, &[BackendSpec::Software], 2);
        for mode in EVERY_MODE {
            let tel = CoreTel::register(pool.registry(), 0, "mock-faulty");
            let mock = FaultsOnThirdBlock { blocks: 0 };
            pool.local.lock().unwrap()[0] = Some((Box::new(mock), tel));
            let out = pool.run_here(mode, sample(8 * 16));
            assert!(
                matches!(out, Ok(Err(JobError::Backend(BackendError::Bus(_))))),
                "{mode}: {out:?}"
            );
        }
        let snap = pool.registry().snapshot();
        assert_eq!(snap.counter("engine.jobs.failed"), Some(8));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(0));
    }

    /// Encrypts the FIPS-197 C.1 plaintext on a lent cipher.
    fn fips_encrypt(cipher: &BackendCipher<'_>) -> [u8; 16] {
        let mut block = FIPS197_C1.plaintext;
        cipher.encrypt_in_place(&mut block);
        block
    }

    #[test]
    fn lane_closure_contains_a_panic_and_answers_the_next_call() {
        let pool = WorkerPool::with_farm(FIPS197_C1.key, &[BackendSpec::Software], 2);
        let encrypt = [Direction::Encrypt];
        assert_eq!(
            pool.run_here_with(&encrypt, |_| -> u8 { panic!("injected closure panic") }),
            Err(JobError::WorkerPanicked)
        );
        assert_eq!(
            pool.run_here_with(&encrypt, fips_encrypt),
            Ok(FIPS197_C1.ciphertext)
        );
        let tel = CoreTel::register(pool.registry(), 0, "mock-panicky");
        pool.local.lock().unwrap()[0] = Some((Box::new(Panicky), tel));
        assert_eq!(
            pool.run_here_with(&encrypt, fips_encrypt),
            Err(JobError::WorkerPanicked)
        );
        // The lane is not poisoned: the next call is answered.
        assert_eq!(pool.run_here_with(&encrypt, |_| 7), Ok(7));
    }

    #[test]
    fn lane_closure_needs_one_spec_serving_every_direction() {
        let split = WorkerPool::with_farm(
            FIPS197_C1.key,
            &[BackendSpec::EncryptCore, BackendSpec::DecryptCore],
            2,
        );
        let decrypted = split.run_here_with(&[Direction::Decrypt], |cipher| {
            let mut block = FIPS197_C1.ciphertext;
            cipher.decrypt_in_place(&mut block);
            block
        });
        assert_eq!(decrypted, Ok(FIPS197_C1.plaintext));
        let both = [Direction::Encrypt, Direction::Decrypt];
        let no_decrypt = Err(JobError::NoCapableCore {
            dir: Direction::Decrypt,
        });
        assert_eq!(split.run_here_with(&both, |_| ()), no_decrypt);
        let encrypt_only = WorkerPool::with_farm(FIPS197_C1.key, &[BackendSpec::EncryptCore], 2);
        assert_eq!(encrypt_only.run_here_with(&both, |_| ()), no_decrypt);
        // A block the lent backend cannot compute is a latched fault.
        let fault = encrypt_only.run_here_with(&[Direction::Encrypt], |cipher| {
            cipher.decrypt_in_place(&mut [0u8; 16]);
        });
        assert!(matches!(fault, Err(JobError::Backend(_))), "{fault:?}");
        // A 32-byte key diverts the core to the fallback, which has both.
        let long = encrypt_only.farm().handle(&[7; 32], 2, None);
        assert_eq!(long.run_here_with(&both, |_| ()), Ok(()));
    }

    #[test]
    fn lane_closure_shares_run_heres_backend_and_counts_its_blocks() {
        let reg = Registry::new();
        let pool = PoolBuilder::new()
            .core(BackendSpec::EncDecCore)
            .registry(reg.clone())
            .build(FIPS197_C1.key);
        pool.run_here(Mode::EcbEncrypt, sample(16))
            .unwrap()
            .unwrap();
        let ct = pool.run_here_with(&[Direction::Encrypt], |cipher| {
            let mut blocks = [FIPS197_C1.plaintext; 5];
            cipher.encrypt_blocks(&mut blocks);
            blocks[4]
        });
        assert_eq!(ct, Ok(FIPS197_C1.ciphertext));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.core.0.ip-encdec.blocks"), Some(6));
        let one_setup = BackendSpec::EncDecCore.build(FIPS197_C1.key).setup_cycles();
        assert_eq!(
            snap.counter("engine.core.0.ip-encdec.setup_cycles"),
            Some(one_setup)
        );
        // Only the engine job is an engine job.
        assert_eq!(snap.counter("engine.jobs.completed"), Some(1));
    }
}

//! The event-driven server: a readiness loop over nonblocking sockets,
//! per-connection state machines, request pipelining, typed-error
//! dispatch, idle timeouts and graceful drain-on-shutdown.
//!
//! # Topology
//!
//! One **acceptor** thread polls the listener, admits connections up to
//! [`ServiceConfig::max_connections`] (refusing the rest with a typed
//! [`ErrorCode::TooManyConnections`] goodbye instead of a silent drop),
//! and hands admitted sockets round-robin to
//! [`ServiceConfig::event_threads`] **shard** threads, waking the shard
//! a socket lands on so a new connection is served at once. Each shard
//! runs a readiness loop ([`crate::net::PollSet`], the std-only
//! `poll(2)` shim) over its connections: there are no per-connection
//! threads, so the connection budget is bounded by descriptors, not
//! stacks — tens of thousands of mostly-idle connections cost two file
//! descriptors and a `Conn` struct each.
//!
//! # Per-connection state machine
//!
//! Each connection owns a [`crate::protocol::RecvBuffer`] (incremental
//! reassembly: a slow peer that trickles bytes never desynchronises the
//! stream), an outgoing reply queue, and a [`SessionSlot`]. Readable →
//! read until the socket is drained or a byte budget is spent, and
//! after every read dispatch the frames it completed; writable → flush
//! the reply queue with `writev`. When a peer stops reading, the queue
//! grows until the write-backpressure cap, at which point the server
//! stops *reading* from that peer until the queue drains — slow
//! consumers throttle themselves without unbounded buffering.
//!
//! # Buffers
//!
//! A bulk body crosses the shard once. A frame whose head has arrived
//! but whose body has not reads its body straight into a payload buffer
//! taken from the shard's spare list; the payload is encrypted in place,
//! queued as the reply's payload beside its 19-byte head (moved, never
//! copied), written from where it lies, and then parked in the spare
//! list for the next body. Request payloads an op does not send back
//! are parked too; a key load's never is. The list keeps buffers of at
//! least one 64 KiB read and at most the write-backpressure cap of
//! capacity per shard; a body that finds no fitting spare reserves what
//! has arrived plus one read and grows as bytes arrive. Frames that
//! arrive whole are parsed from the scratch read as before.
//!
//! # Pipelining
//!
//! `Server::spawn` builds one worker [`engine::Farm`] from
//! [`ServiceConfig::farm`], and every keyed session submits to it
//! through its own [`engine::WorkerPool`] handle, which carries the
//! session's key: the thread count is fixed however many sessions are
//! open. Every engine op is **submitted, not awaited**: the request's
//! correlation id rides into [`crate::session::Session::submit`] and
//! the reply is emitted when the job completes. Small jobs run right
//! away on the shard thread (the handle's caller-runs lane) and are
//! answered after the current batch of frames; bulk jobs go to the
//! farm's workers, never running crypto on the shard thread, and
//! complete in completion order, which across a multi-core farm is not
//! submission order. A client may therefore keep an arbitrary pipeline
//! depth per connection. Each shard parks a self-pipe wake fd in its
//! poll set. A farm completion and a connection hand-off both write to
//! it, so either one cuts the poll short: the reply goes out, or the
//! new connection is admitted, at once. Every request's reserved
//! `flags` byte must be 0; anything else earns a typed
//! [`ErrorCode::Malformed`] and the connection stays open.
//!
//! # Replies
//!
//! `dispatch` hands each frame to one op arm, which returns the reply's
//! bytes, an accepted engine job, or a typed `(ErrorCode, detail)`. One
//! exit, `push_reply`, turns an outcome into the reply frame and the
//! `service.error.<code>` tally; pipelined completions and goodbyes
//! leave through it too. The decoder refuses broken framing — an
//! oversized or undersized length prefix, a version other than
//! [`crate::protocol::PROTOCOL_VERSION`] — and the connection gets a
//! typed goodbye, then closes; `dispatch` itself never closes one.
//! Before a re-key replaces a session, before any goodbye, and when the
//! peer half-closes, the connection **drains**: it waits (bounded) for
//! the session's bulk jobs — behind whatever the farm queued before
//! them — and answers every one, so no accepted request is dropped with
//! its session or answered after the goodbye.
//!
//! # Telemetry
//!
//! Every server owns a [`telemetry::Registry`]: per-opcode request
//! counters (`service.op.<op>.requests`), error-code tallies
//! (`service.error.<code>`), connection gauges, the pipelined in-flight
//! gauge (`service.pipeline.inflight`), readiness-loop histograms
//! (`service.loop.events_per_poll`, `service.loop.dispatch_micros`), a
//! request frame-size histogram, admission refusals, the hand-off wait
//! from `accept()` to shard admission (`service.admission.handoff_us`),
//! the shards' socket calls (`service.io.syscalls`), the bytes buffered
//! in connections (`service.conn.buffered_bytes`) and parked in spare
//! lists (`service.buffers.spare_bytes`), and — because the farm is
//! built against the same registry — the full
//! `engine.*` instrument set, describing the one farm. `GET_STATS`
//! serialises one snapshot of that registry as the `telemetry/1` JSON
//! document; [`ServiceHandle::registry`] exposes the same registry
//! in-process, so there is exactly one counter path. `dispatch` resolves each opcode's
//! counter and the frame-size histogram once, so the per-frame path
//! never takes the registry's map lock.
//!
//! Shutdown is graceful: the acceptor stops admitting, every shard
//! waits out each connection's in-flight bulk jobs, answers every
//! pipelined job, sends an [`ErrorCode::ShuttingDown`] goodbye, and
//! exits;
//! [`ServiceHandle::shutdown`] joins the acceptor, which joins every
//! shard and then the farm's workers — no threads outlive the handle.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use engine::{BackendSpec, Farm, JobError, Notifier, PoolBuilder, ResizePolicy, SubmitError};
use rijndael::aead;
use telemetry::{Counter, Gauge, Histogram, Registry};

use crate::net::{self, PollSet};
use crate::protocol::{
    encode_head, error_payload, ErrorCode, Frame, Op, RecvBuffer, RecvError, Status, HEADER_LEN,
    HEAD_LEN, MAX_PAYLOAD, READ_CHUNK,
};
use crate::session::{Session, SessionSlot};

/// Readiness-poll timeout: the housekeeping tick on which an idle shard
/// checks the shutdown flag and the idle budgets. Connection hand-offs
/// and farm completions wake a shard through its wake pipe, so no
/// request waits on this tick.
const POLL: Duration = Duration::from_millis(10);

/// How long the acceptor waits in its listener poll.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Poll token reserved for a shard's wake pipe. Connection tokens are
/// slot indices, so the all-ones pattern can never collide with one.
const WAKE_TOKEN: usize = usize::MAX;

/// How often the acceptor runs the elastic policy over the farm when
/// [`ServiceConfig::elastic`] is set.
const AUTOSCALE_TICK: Duration = Duration::from_millis(100);

/// How long a connection's drain (before a re-key, a goodbye or the
/// close after a half-close) waits for its session's bulk jobs on the
/// farm — generous next to real job times, but bounded so a wedged
/// backend cannot hold the shard hostage.
const DRAIN_POOL_TIMEOUT: Duration = Duration::from_secs(5);

/// Write-backpressure cap: once a connection's outgoing queue holds
/// this many bytes the server stops reading from that peer until the
/// queue drains below it again. It also bounds the capacity a shard
/// keeps in its spare payload buffers.
const OUTBUF_SOFT_CAP: usize = 1 << 20;

/// Bytes read from one socket per readiness event before yielding to
/// the other connections: 64 scratch-sized reads' worth, whether they
/// land in the scratch buffer or straight in a body.
const READ_BUDGET: usize = 64 * READ_CHUNK;

/// Most queued replies one `writev` gathers (two slices each: head and
/// payload).
const WRITE_BATCH: usize = 32;

/// Server tuning knobs.
///
/// Construct through [`ServiceConfig::builder`], which validates the
/// knobs and rejects contradictions with typed [`ConfigError`]s, or
/// start from [`ServiceConfig::default`]. The struct is
/// `#[non_exhaustive]`: direct struct-literal construction outside this
/// crate is not supported (it silently skipped validation and broke on
/// every added field), which is exactly the misuse the builder
/// replaces.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// The server's one worker farm: one worker thread per slot, spawned
    /// by [`Server::spawn`] and shared by every session, each job keyed
    /// with its session's key. The default is [`BackendSpec::Auto`]
    /// slots: the runtime dispatch decision, so a portable binary still
    /// lands on AES-NI/AVX2 where the serving CPU has them.
    pub farm: Vec<BackendSpec>,
    /// Bound on each session's unfinished bulk jobs; exceeding it earns
    /// a typed [`ErrorCode::Busy`] reply. The farm serves jobs FIFO
    /// across sessions, so this also bounds how many of one session's
    /// jobs can sit ahead of another's; a closed session's queued jobs
    /// are cancelled.
    pub queue_capacity: usize,
    /// Connection admission cap.
    pub max_connections: usize,
    /// How long a connection may sit without a complete request before
    /// the server sends [`ErrorCode::IdleTimeout`] and closes.
    pub idle_timeout: Duration,
    /// Shard event-loop threads the connections are spread across
    /// (clamped to at least 1).
    pub event_threads: usize,
    /// Elastic farm supervision: when set, the acceptor ticks the farm
    /// against this policy (~10×/s), growing it under queue pressure
    /// and shrinking it when idle; the decisions surface as
    /// `engine.resize.*` / `engine.workers` telemetry in `GET_STATS`.
    /// `None` (the default) leaves the farm at its configured size.
    pub elastic: Option<ResizePolicy>,
}

impl ServiceConfig {
    /// A validating builder seeded with the default knobs — the blessed
    /// construction path, mirroring `engine::PoolBuilder`.
    #[must_use]
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            farm: vec![BackendSpec::Auto; 4],
            queue_capacity: 32,
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            event_threads: 2,
            elastic: None,
        }
    }
}

/// Typed rejection from [`ServiceConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The engine farm has no backend slots: sessions could never run a
    /// job.
    EmptyFarm,
    /// Zero shard event-loop threads: no thread would ever service a
    /// connection.
    ZeroShards,
    /// Zero per-session queue capacity: every submission would bounce
    /// `Busy`.
    ZeroQueueCapacity,
    /// Zero connection admission cap: every connect would be refused.
    ZeroConnections,
    /// Contradictory elastic bounds: the farm could never hold a legal
    /// worker count.
    ElasticBounds {
        /// The policy's floor (zero, or above the ceiling).
        min_workers: usize,
        /// The policy's ceiling.
        max_workers: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyFarm => f.write_str("farm must have at least one backend slot"),
            ConfigError::ZeroShards => f.write_str("event_threads must be at least 1"),
            ConfigError::ZeroQueueCapacity => f.write_str("queue_capacity must be at least 1"),
            ConfigError::ZeroConnections => f.write_str("max_connections must be at least 1"),
            ConfigError::ElasticBounds {
                min_workers,
                max_workers,
            } => write!(
                f,
                "elastic bounds are contradictory: min_workers {min_workers}, \
                 max_workers {max_workers}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ServiceConfig`]; see
/// [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// The server's worker farm (one backend slot per entry).
    #[must_use]
    pub fn farm(mut self, farm: &[BackendSpec]) -> Self {
        self.config.farm = farm.to_vec();
        self
    }

    /// Bound on each session's unfinished bulk jobs.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Connection admission cap.
    #[must_use]
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.config.max_connections = cap;
        self
    }

    /// Idle budget before a typed [`ErrorCode::IdleTimeout`] goodbye.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.config.idle_timeout = timeout;
        self
    }

    /// Shard event-loop threads the connections are spread across.
    #[must_use]
    pub fn event_threads(mut self, threads: usize) -> Self {
        self.config.event_threads = threads;
        self
    }

    /// Elastic farm supervision policy (see
    /// [`ServiceConfig::elastic`]).
    #[must_use]
    pub fn elastic(mut self, policy: ResizePolicy) -> Self {
        self.config.elastic = Some(policy);
        self
    }

    /// Validates the knobs and produces the config.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] naming the first contradiction: an empty
    /// farm, zero shards/capacity/connections, or elastic bounds that
    /// admit no legal worker count.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        let c = &self.config;
        if c.farm.is_empty() {
            return Err(ConfigError::EmptyFarm);
        }
        if c.event_threads == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if c.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if c.max_connections == 0 {
            return Err(ConfigError::ZeroConnections);
        }
        if let Some(policy) = &c.elastic {
            if policy.min_workers == 0 || policy.min_workers > policy.max_workers {
                return Err(ConfigError::ElasticBounds {
                    min_workers: policy.min_workers,
                    max_workers: policy.max_workers,
                });
            }
        }
        Ok(self.config)
    }
}

/// The typed-timeout reply detail: the idle budget in milliseconds,
/// **saturating** at `u32::MAX` — a budget of 50 days or more used to
/// wrap silently in the `as u32` cast and report a bogus number.
fn idle_timeout_detail(idle_timeout: Duration) -> u32 {
    u32::try_from(idle_timeout.as_millis()).unwrap_or(u32::MAX)
}

/// Counters and flags shared by the acceptor, the shards and the
/// handle.
struct Shared {
    config: ServiceConfig,
    registry: Registry,
    /// The one worker farm every session submits to.
    farm: Arc<Farm>,
    shutdown: AtomicBool,
    /// `service.connections.active` — connections currently served.
    active: Gauge,
    /// `service.connections.served` — connections admitted since start.
    served: Counter,
    /// `service.admission.refused` — connections bounced at the cap.
    refused: Counter,
    /// `service.pipeline.inflight` — pipelined jobs submitted and not
    /// yet answered, across every connection.
    inflight: Gauge,
    /// `service.op.<op>.requests`, indexed by wire opcode. Each is
    /// registered on its opcode's first request, so `GET_STATS` names
    /// only the ops that were used.
    op_requests: [OnceLock<Counter>; 256],
    /// `service.frame.request_bytes` — whole request frames, header
    /// included.
    request_bytes: Histogram,
    /// `service.io.syscalls` — socket reads and writes the shards issued.
    syscalls: Counter,
    /// `service.conn.buffered_bytes` — request bytes received and not
    /// yet dispatched, plus reply bytes queued and not yet written, over
    /// every connection.
    buffered: Gauge,
    /// `service.buffers.spare_bytes` — capacity parked in the shards'
    /// spare payload buffers.
    spare_bytes: Gauge,
}

impl Shared {
    /// The `service.op.<op>.requests` counter: the registry's map lock
    /// is taken on the opcode's first request only.
    fn op_requests(&self, op: Op) -> &Counter {
        self.op_requests[op as usize].get_or_init(|| {
            self.registry
                .counter(&format!("service.op.{}.requests", op.name()))
        })
    }

    /// Tallies `service.error.<code>` for a typed error reply.
    fn count_error(&self, code: ErrorCode) {
        self.registry
            .counter(&format!("service.error.{}", code.name()))
            .incr();
    }
}

/// The service entry point: configure, then [`Server::spawn`].
#[derive(Debug, Default)]
pub struct Server {
    config: ServiceConfig,
}

impl Server {
    /// A server with the given tuning knobs.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Server {
        Server { config }
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// farm's workers, the acceptor and the shard threads. The returned
    /// handle owns every thread the server will ever start; only an
    /// elastic grow adds a worker later, from the acceptor.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a failure to open a shard's wake
    /// pipe, or a thread-spawn failure.
    pub fn spawn<A: ToSocketAddrs>(self, addr: A) -> io::Result<ServiceHandle> {
        // One descriptor per connection: ask for the hard limit up
        // front (best-effort; a refusal just lowers effective
        // admission).
        let _ = net::raise_nofile_limit();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let registry = Registry::new();
        // Mirror the process-wide dispatch decision (published into the
        // global registry at probe time) so GET_STATS shows which
        // implementation serves bulk traffic without a read of the
        // global registry.
        let dispatch = rijndael::dispatch::selection();
        registry
            .counter(&format!(
                "rijndael.dispatch.backend.{}",
                dispatch.bulk.token()
            ))
            .incr();
        registry
            .gauge("rijndael.dispatch.forced")
            .set(i64::from(dispatch.forced));
        let farm = PoolBuilder::new()
            .cores(&self.config.farm)
            .registry(registry.clone())
            .spawn()?;
        let shared = Arc::new(Shared {
            farm: Arc::new(farm),
            shutdown: AtomicBool::new(false),
            active: registry.gauge("service.connections.active"),
            served: registry.counter("service.connections.served"),
            refused: registry.counter("service.admission.refused"),
            inflight: registry.gauge("service.pipeline.inflight"),
            op_requests: std::array::from_fn(|_| OnceLock::new()),
            request_bytes: registry.hist("service.frame.request_bytes"),
            syscalls: registry.counter("service.io.syscalls"),
            buffered: registry.gauge("service.conn.buffered_bytes"),
            spare_bytes: registry.gauge("service.buffers.spare_bytes"),
            config: self.config,
            registry,
        });
        let shard_count = shared.config.event_threads.max(1);
        let mut inboxes = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            // The shard polls the pipe's read end; its inbox keeps the
            // waking half for the acceptor.
            let wake = net::WakePipe::new()?;
            let inbox = Arc::new(Inbox {
                queue: Mutex::new(Vec::new()),
                wake: wake.notifier(),
            });
            let shard_shared = Arc::clone(&shared);
            let shard_inbox = Arc::clone(&inbox);
            shards.push(
                thread::Builder::new()
                    .name(format!("service-shard-{i}"))
                    .spawn(move || shard_loop(&shard_shared, &shard_inbox, wake))?,
            );
            inboxes.push(inbox);
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("service-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &inboxes, shards))?
        };
        Ok(ServiceHandle {
            addr: local,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

/// Owning handle for a running server; dropping it shuts the server
/// down and joins every thread.
pub struct ServiceHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry registry — the same one `GET_STATS`
    /// snapshots, and the one the farm publishes into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Connections currently being served.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.shared.active.get().max(0) as usize
    }

    /// Connections admitted since the server started.
    #[must_use]
    pub fn connections_served(&self) -> u64 {
        self.shared.served.get()
    }

    /// Stops accepting, answers every connection's in-flight pipelined
    /// jobs, sends each peer a typed goodbye, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------

/// One shard's hand-off queue: admitted sockets, each stamped with the
/// moment `accept()` returned it, waiting for the shard to drain them.
struct Inbox {
    queue: Mutex<Vec<(TcpStream, Instant)>>,
    /// The waking half of the shard's wake pipe.
    wake: net::WakeNotifier,
}

impl Inbox {
    /// Queues an admitted socket and wakes the shard when this push is
    /// the one that made the queue non-empty. A connect storm thus costs
    /// one pipe write per shard drain, not one per socket. The emptiness
    /// check happens under the lock; the wake is written after it.
    fn hand_off(&self, stream: TcpStream, accepted: Instant) {
        let was_empty = {
            let mut queue = self.queue.lock().expect("inbox lock");
            queue.push((stream, accepted));
            queue.len() == 1
        };
        if was_empty {
            self.wake.wake();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    inboxes: &[Arc<Inbox>],
    shards: Vec<JoinHandle<()>>,
) {
    let mut poll = PollSet::new();
    let mut next_shard = 0usize;
    let mut last_scale = Instant::now();
    while !shared.shutdown.load(Ordering::Acquire) {
        // Burst-accept everything pending; a sequential connect storm
        // must drain faster than the kernel backlog fills.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let accepted = Instant::now();
                    if shared.active.get() >= shared.config.max_connections as i64 {
                        refuse_connection(&stream, shared);
                        continue;
                    }
                    shared.active.add(1);
                    shared.served.incr();
                    inboxes[next_shard].hand_off(stream, accepted);
                    next_shard = (next_shard + 1) % inboxes.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    thread::sleep(ACCEPT_POLL);
                    break;
                }
            }
        }
        // Elastic supervision: tick the farm against the configured
        // policy roughly ten times a second.
        if let Some(policy) = &shared.config.elastic {
            if last_scale.elapsed() >= AUTOSCALE_TICK {
                last_scale = Instant::now();
                let _ = shared.farm.autoscale_tick(policy);
            }
        }
        // Sleep until the next pending connection (or the poll tick).
        poll.clear();
        poll.register(net::socket_fd(listener), 0, true, false);
        let _ = poll.poll(ACCEPT_POLL);
    }
    for shard in shards {
        let _ = shard.join();
    }
    shared.farm.shutdown();
}

/// Best-effort typed refusal for connections over the admission cap.
fn refuse_connection(mut stream: &TcpStream, shared: &Shared) {
    shared.refused.incr();
    shared.count_error(ErrorCode::TooManyConnections);
    let cap = shared.config.max_connections as u32;
    let _ = Frame::error(ErrorCode::TooManyConnections, cap, 0, 0).write_to(&mut stream);
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

/// A shard's spare payload buffers. A reply's payload lands here once
/// it has been written, and so does a request payload the op did not
/// send back; the next body that arrives in pieces takes one instead of
/// a fresh allocation, so a bulk body reuses memory the shard has
/// already touched rather than page-faulting through new pages. Only
/// buffers of at least one scratch read (64 KiB) are kept, at most
/// [`OUTBUF_SOFT_CAP`] bytes of capacity in all; a buffer keeps its
/// length, so its old contents serve as the initialized filler a body
/// reads over (see [`RecvBuffer::fill_body`]) and it is never zeroed
/// again. A key load's payload never comes here. The shard loop owns
/// the list.
struct Spares {
    bufs: Vec<Vec<u8>>,
    /// Capacity held in `bufs`, mirrored into `service.buffers.spare_bytes`.
    bytes: usize,
    gauge: Gauge,
}

impl Spares {
    fn new(gauge: Gauge) -> Spares {
        Spares {
            bufs: Vec::new(),
            bytes: 0,
            gauge,
        }
    }

    /// Parks `buf` if it is large enough to serve a body and the list
    /// has room for it; drops it otherwise.
    fn give(&mut self, buf: Vec<u8>) {
        let capacity = buf.capacity();
        if capacity >= READ_CHUNK && self.bytes + capacity <= OUTBUF_SOFT_CAP {
            self.bytes += capacity;
            self.gauge.add(capacity as i64);
            self.bufs.push(buf);
        }
    }

    /// A buffer for a body of `len` payload bytes, `buffered` of which
    /// have arrived: the most recently parked spare that can hold it, or
    /// else a fresh one with room for the buffered bytes plus one more
    /// scratch read (never more than `len`), which grows as more bytes
    /// arrive. A bare header therefore never reserves a whole frame.
    fn take(&mut self, len: usize, buffered: usize) -> Vec<u8> {
        match self.bufs.iter().rposition(|b| b.capacity() >= len) {
            Some(i) => {
                let buf = self.bufs.swap_remove(i);
                self.bytes -= buf.capacity();
                self.gauge.sub(buf.capacity() as i64);
                buf
            }
            None => Vec::with_capacity(len.min(buffered + READ_CHUNK)),
        }
    }
}

impl Drop for Spares {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes as i64);
    }
}

/// The outgoing queue: each reply's head beside its payload, which is
/// moved in whole and never copied, consumed through an offset into the
/// front reply and written with `writev`.
#[derive(Debug, Default)]
struct OutBuf {
    replies: VecDeque<([u8; HEAD_LEN], Vec<u8>)>,
    /// Bytes of the front reply already written.
    sent: usize,
    /// Unwritten bytes over every queued reply.
    len: usize,
}

impl OutBuf {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues a reply frame. `false` only when the reply itself is
    /// unsendable (payload over the wire limit); the queue is then
    /// unchanged.
    fn push(
        &mut self,
        status: Status,
        (seq, corr, session): (u32, u32, u32),
        payload: Vec<u8>,
    ) -> bool {
        let Ok(head) = encode_head(status as u8, 0, seq, session, corr, payload.len()) else {
            return false;
        };
        self.len += HEAD_LEN + payload.len();
        self.replies.push_back((head, payload));
        true
    }

    /// Writes as much of the queue as the socket accepts right now,
    /// [`WRITE_BATCH`] replies per `writev`, and hands each fully written
    /// payload to `spares`. `Ok(())` leaves any unwritten remainder
    /// queued for the next writable event.
    fn flush(
        &mut self,
        mut stream: &TcpStream,
        shared: &Shared,
        spares: &mut Spares,
    ) -> io::Result<()> {
        while !self.is_empty() {
            let mut slices = [IoSlice::new(&[]); 2 * WRITE_BATCH];
            let mut used = 0;
            let mut skip = self.sent;
            for (head, payload) in self.replies.iter().take(WRITE_BATCH) {
                for part in [&head[..], &payload[..]] {
                    if skip >= part.len() {
                        skip -= part.len();
                    } else {
                        slices[used] = IoSlice::new(&part[skip..]);
                        skip = 0;
                        used += 1;
                    }
                }
            }
            shared.syscalls.incr();
            match stream.write_vectored(&slices[..used]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.consume(n, spares),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Advances past `n` written bytes, retiring the replies they finish.
    fn consume(&mut self, mut n: usize, spares: &mut Spares) {
        self.len -= n;
        while n > 0 {
            let (_, payload) = self.replies.front().expect("written bytes were queued");
            let left = HEAD_LEN + payload.len() - self.sent;
            if n < left {
                self.sent += n;
                return;
            }
            n -= left;
            self.sent = 0;
            let (_, payload) = self.replies.pop_front().expect("checked above");
            spares.give(payload);
        }
    }
}

/// One connection's entire state: socket, reassembly buffer, outgoing
/// queue, session slot and liveness bookkeeping.
struct Conn {
    stream: TcpStream,
    inbuf: RecvBuffer,
    out: OutBuf,
    slot: SessionSlot,
    /// When the last *complete frame* was answered (the idle budget
    /// counts frames, not bytes, so a byte-trickling peer cannot stay
    /// alive for free). The idle sweep measures from here to the instant
    /// the shard's `poll` returned, so neither the op's own compute nor
    /// a stall on another connection's op counts as idleness.
    last_frame: Instant,
    /// Set once a goodbye is queued or the peer half-closed: no more
    /// reads; drop once `out` drains.
    closing: bool,
    /// The owning shard's wake-pipe callback, given to each newly keyed
    /// session's farm handle so bulk completions un-park the shard's
    /// `poll(2)` immediately.
    notifier: Notifier,
    /// This connection's share of `service.conn.buffered_bytes` as last
    /// published.
    buffered: usize,
}

impl Conn {
    fn new(stream: TcpStream, notifier: Notifier) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            inbuf: RecvBuffer::new(),
            out: OutBuf::default(),
            slot: SessionSlot::new(),
            last_frame: Instant::now(),
            closing: false,
            notifier,
            buffered: 0,
        })
    }

    fn live_session(&mut self) -> u32 {
        self.slot.session_mut().map_or(0, |s| s.id())
    }

    /// Moves `service.conn.buffered_bytes` by the change in this
    /// connection's unanswered request bytes and unwritten reply bytes
    /// since it last published.
    fn publish_buffered(&mut self, shared: &Shared) {
        let now = self.inbuf.len() + self.out.len();
        shared.buffered.add(now as i64 - self.buffered as i64);
        self.buffered = now;
    }

    /// Answers everything the session still owes: waits (bounded) for
    /// its bulk jobs still on the farm, then queues every finished reply
    /// under the session's own id. It runs before a re-key replaces the
    /// session, before any goodbye, and when the peer half-closes, so no
    /// accepted request is dropped with its session.
    fn drain(&mut self, shared: &Shared) {
        if let Some(session) = self.slot.session_mut().filter(|s| s.in_flight() > 0) {
            let _ = session.quiesce(DRAIN_POOL_TIMEOUT);
        }
        collect_pipelined(self, shared);
    }

    /// Drains the session, queues an unsolicited goodbye (`seq` and
    /// `corr` 0) and stops reading.
    fn say_goodbye(&mut self, shared: &Shared, code: ErrorCode, detail: u32) {
        self.drain(shared);
        let sid = self.live_session();
        push_reply(&mut self.out, shared, (0, 0, sid), Err((code, detail)));
        self.closing = true;
    }

    /// Replaces the session with one keyed on `key`, once the old one
    /// has answered what it owes. Its farm handle carries the shard's
    /// wake pipe, so a finished bulk job interrupts the poll instead of
    /// waiting out its timeout.
    fn rekey(&mut self, key: &[u8], shared: &Shared) {
        self.drain(shared);
        let capacity = shared.config.queue_capacity;
        self.slot
            .rekey(key, &shared.farm, capacity, Some(self.notifier.clone()));
    }
}

/// Drops the connection in `slot`, if any. What its session still owes
/// (only after an I/O error or a timed-out drain) leaves the in-flight
/// gauge with it, its buffered bytes leave the buffered gauge, and its
/// jobs still queued on the farm are cancelled.
fn release(slot: &mut Option<Conn>, shared: &Shared) {
    if let Some(mut conn) = slot.take() {
        let owed = conn.slot.session_mut().map_or(0, |s| s.in_flight());
        shared.inflight.sub(owed as i64);
        shared.buffered.sub(conn.buffered as i64);
        shared.active.sub(1);
    }
}

// ---------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------

fn shard_loop(shared: &Arc<Shared>, inbox: &Inbox, mut wake: net::WakePipe) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut poll = PollSet::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut spares = Spares::new(shared.spare_bytes.clone());
    let events_hist = shared.registry.hist("service.loop.events_per_poll");
    let dispatch_hist = shared.registry.hist("service.loop.dispatch_micros");
    let handoff_hist = shared.registry.hist("service.admission.handoff_us");

    // Self-pipe wakeup: the acceptor writes to it when a hand-off lands
    // in an empty inbox, and the farm calls a session's notifier when
    // one of its bulk jobs finishes. Either makes the pipe readable so a parked
    // poll(2) returns immediately instead of waiting out its timeout.
    // The pipe is registered under a reserved token no connection slot
    // can reach.
    let shard_notifier: Notifier = {
        let n = wake.notifier();
        Arc::new(move || n.wake())
    };

    loop {
        // Admit handed-off sockets into free slots. This drain runs every
        // iteration, woken or not: a wake only cuts the poll short, so a
        // lost wake byte costs at most one tick, never a connection.
        for (stream, accepted) in inbox.queue.lock().expect("inbox lock").drain(..) {
            match Conn::new(stream, Arc::clone(&shard_notifier)) {
                Ok(conn) => {
                    handoff_hist
                        .record(u64::try_from(accepted.elapsed().as_micros()).unwrap_or(u64::MAX));
                    if let Some(slot) = conns.iter_mut().find(|c| c.is_none()) {
                        *slot = Some(conn);
                    } else {
                        conns.push(Some(conn));
                    }
                }
                Err(_) => {
                    shared.active.sub(1);
                }
            }
        }

        if shared.shutdown.load(Ordering::Acquire) {
            for slot in &mut conns {
                if let Some(conn) = slot.as_mut() {
                    // The loop is exiting, so backpressure no longer
                    // matters, only delivery: flush with blocking writes.
                    conn.say_goodbye(shared, ErrorCode::ShuttingDown, 0);
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.out.flush(&conn.stream, shared, &mut spares);
                }
                release(slot, shared);
            }
            return;
        }

        // Interest set: read unless backpressured or closing, write
        // when bytes are queued. The wake pipe rides along under its
        // reserved token so hand-offs and completions can cut a poll
        // short.
        poll.clear();
        for (token, conn) in conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let read = !conn.closing && conn.out.len() < OUTBUF_SOFT_CAP;
            let write = !conn.out.is_empty();
            poll.register(net::socket_fd(&conn.stream), token, read, write);
        }
        poll.register(wake.fd(), WAKE_TOKEN, true, false);
        let ready = match poll.poll(POLL) {
            Ok(ready) => ready,
            Err(_) => {
                thread::sleep(POLL);
                continue;
            }
        };
        let woken = ready.iter().any(|r| r.token == WAKE_TOKEN);
        let socket_events = ready.len() - usize::from(woken);
        if socket_events > 0 {
            events_hist.record(socket_events as u64);
        }

        let started = Instant::now();
        for r in ready {
            let Some(conn) = conns.get_mut(r.token).and_then(Option::as_mut) else {
                continue;
            };
            let mut alive = true;
            if r.writable && !conn.out.is_empty() {
                alive = conn.out.flush(&conn.stream, shared, &mut spares).is_ok();
            }
            if alive && (r.readable || r.error) && !conn.closing {
                alive = service_readable(conn, shared, &mut scratch, &mut spares);
            } else if alive && r.error && conn.closing {
                // Peer vanished while we were flushing its goodbye.
                alive = false;
            }
            if alive {
                // Push replies at the socket now instead of waiting
                // for the next writable event.
                alive = conn.out.flush(&conn.stream, shared, &mut spares).is_ok();
            }
            if !alive {
                release(&mut conns[r.token], shared);
            }
        }
        if !ready.is_empty() {
            dispatch_hist.record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        }

        // Crypto completion sweep. Drain the pipe *first* so a wake
        // written after this point is never lost — it just cuts the
        // next poll short. A hand-off whose wake is drained here is
        // still admitted: the inbox drain at the top of the loop comes
        // after this one. Then emit replies for every session with
        // finished pipelined work and push them at the socket. The
        // sweep runs every iteration (not only on a wake) so the
        // non-unix fallback and engine-lane leftovers stay covered.
        if woken {
            wake.drain();
        }
        for slot in &mut conns {
            let Some(conn) = slot.as_mut() else { continue };
            let owes = conn.slot.session_mut().is_some_and(|s| s.in_flight() > 0);
            if !owes {
                continue;
            }
            collect_pipelined(conn, shared);
            if !conn.out.is_empty() && conn.out.flush(&conn.stream, shared, &mut spares).is_err() {
                release(slot, shared);
            }
        }

        // Idle sweep, buffered-bytes accounting and closing-drain
        // cleanup. Idleness runs to the instant `poll` returned: a frame
        // that arrived while this pass held the shard on another
        // connection's op is not read yet, and the stall is not idleness.
        for slot in &mut conns {
            let Some(conn) = slot.as_mut() else { continue };
            let idle = started.saturating_duration_since(conn.last_frame);
            if !conn.closing && idle >= shared.config.idle_timeout {
                let detail = idle_timeout_detail(shared.config.idle_timeout);
                conn.say_goodbye(shared, ErrorCode::IdleTimeout, detail);
                let _ = conn.out.flush(&conn.stream, shared, &mut spares);
            }
            conn.publish_buffered(shared);
            if conn.closing && conn.out.is_empty() {
                release(slot, shared);
            }
        }
        // Trim trailing empty slots so long-gone bursts don't pin the
        // table size forever.
        while matches!(conns.last(), Some(None)) {
            conns.pop();
        }
    }
}

/// Reads what the socket holds — into the scratch buffer, or straight
/// into a body in progress — and dispatches the frames each read
/// completes, until the socket is drained, [`READ_BUDGET`] bytes have
/// been read, the reply queue reaches the backpressure cap or a goodbye
/// is queued; then collects pipelined completions. Returns `false` when
/// the connection must be dropped.
fn service_readable(
    conn: &mut Conn,
    shared: &Shared,
    scratch: &mut [u8],
    spares: &mut Spares,
) -> bool {
    let mut budget = READ_BUDGET;
    let mut eof = false;
    while budget > 0 && !conn.closing && conn.out.len() < OUTBUF_SOFT_CAP {
        let in_body = conn.inbuf.body_missing() > 0;
        shared.syscalls.incr();
        let read = if in_body {
            conn.inbuf.fill_body(&conn.stream)
        } else {
            (&conn.stream).read(scratch)
        };
        let n = match read {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        if !in_body {
            conn.inbuf.extend_from_slice(&scratch[..n]);
        }
        budget = budget.saturating_sub(n);
        if !dispatch_buffered(conn, shared, spares) {
            return false;
        }
        // A read that came back short drained the socket: another would
        // only block.
        let drained = if in_body {
            conn.inbuf.body_missing() > 0
        } else {
            n < scratch.len()
        };
        if drained {
            break;
        }
    }

    if eof {
        // The peer half-closed: nothing more will arrive. Answer what
        // its session owes, then flush and drop.
        conn.drain(shared);
        conn.closing = true;
    } else {
        collect_pipelined(conn, shared);
    }
    true
}

/// Dispatches every complete frame the receive buffer holds; broken
/// framing ends the conversation with a typed goodbye. A frame whose
/// head has arrived but whose body has not then starts its body in a
/// buffer from the shard's spare list, and later reads go straight into
/// it. Returns `false` when the connection must be dropped.
fn dispatch_buffered(conn: &mut Conn, shared: &Shared, spares: &mut Spares) -> bool {
    let broken = loop {
        match conn.inbuf.next_frame() {
            Ok(Some(frame)) => {
                dispatch(frame, conn, shared, spares);
                // Stamped once the op has run, so an inline op slower
                // than the idle budget does not time out its own
                // connection.
                conn.last_frame = Instant::now();
            }
            Ok(None) => break None,
            Err(RecvError::TooLarge { len }) => break Some((ErrorCode::FrameTooLarge, len)),
            Err(RecvError::TooShort { len }) => break Some((ErrorCode::Malformed, len)),
            Err(RecvError::BadVersion { version }) => {
                break Some((ErrorCode::BadVersion, u32::from(version)))
            }
            Err(RecvError::Io(_)) => return false,
        }
    };
    match broken {
        Some((code, detail)) => conn.say_goodbye(shared, code, detail),
        None => {
            conn.inbuf
                .start_body(|len, buffered| spares.take(len, buffered));
        }
    }
    true
}

/// Queues a reply for every pipelined job the session has finished:
/// caller-side results first, then farm completions in completion
/// order.
fn collect_pipelined(conn: &mut Conn, shared: &Shared) {
    let Some(session) = conn.slot.session_mut().filter(|s| s.in_flight() > 0) else {
        return;
    };
    let sid = session.id();
    for (corr, result) in session.collect() {
        shared.inflight.sub(1);
        // Pipelined replies mirror `corr` into `seq`: correlation is the
        // contract, `seq` is diagnostics.
        let outcome = result.map_err(job_error_code);
        push_reply(&mut conn.out, shared, (corr, corr, sid), outcome);
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// A typed failure on its way to the wire: the code and its detail.
type Failure = (ErrorCode, u32);

/// What an op arm hands the reply exit: the reply's bytes, `None` for
/// an engine job the session accepted (its reply follows from
/// [`collect_pipelined`]), or the typed error the request earned.
type Answer = Result<Option<Vec<u8>>, Failure>;

/// Where a submission refusal becomes a wire error code, keeping its
/// typed identity: `Busy` carries the capacity, `RaggedLength` the
/// offending length.
fn submit_error_code(e: SubmitError) -> Failure {
    match e {
        SubmitError::Busy { capacity } => (ErrorCode::Busy, capacity as u32),
        SubmitError::RaggedLength { len } => (ErrorCode::RaggedLength, len as u32),
    }
}

/// Anything that failed *after* admission — an engine job, or a CMAC,
/// GCM, XTS or key-wrap op on the session's lane — is a
/// [`ErrorCode::JobFailed`].
fn job_error_code(_: JobError) -> Failure {
    (ErrorCode::JobFailed, 0)
}

/// The one place GCM and key-wrap failures become wire error codes: an
/// authentication failure is a [`ErrorCode::TagMismatch`], anything else
/// a payload that does not parse (detail: its length).
fn aead_error_code(e: aead::Error, payload_len: u32) -> Failure {
    match e {
        aead::Error::TagMismatch => (ErrorCode::TagMismatch, 0),
        _ => (ErrorCode::Malformed, payload_len),
    }
}

/// The one reply exit: turns an outcome into a reply frame — its bytes,
/// or a typed error tallied under `service.error.<code>` — echoing
/// `(seq, corr, session)`, and queues it. Every reply a shard sends
/// leaves through here: dispatch's answers, pipelined completions and
/// goodbyes.
fn push_reply(
    out: &mut OutBuf,
    shared: &Shared,
    (seq, corr, session): (u32, u32, u32),
    outcome: Result<Vec<u8>, Failure>,
) {
    let (status, payload) = match outcome {
        Ok(payload) => (Status::Ok, payload),
        Err((code, detail)) => {
            shared.count_error(code);
            (Status::Error, error_payload(code, detail))
        }
    };
    let _ = out.push(status, (seq, corr, session), payload);
}

/// Routes one request to its op arm and sends the answer through
/// [`push_reply`]. The reply echoes the request's `seq` and `corr` and
/// carries the session id that is live once the op has run. A request
/// payload the op did not keep — as its reply, or as its job's buffer —
/// goes to the spare list, unless it loaded a key.
fn dispatch(mut frame: Frame, conn: &mut Conn, shared: &Shared, spares: &mut Spares) {
    shared
        .request_bytes
        .record((HEADER_LEN + frame.payload.len()) as u64);
    let answer = match frame.op() {
        None => Err((ErrorCode::BadOp, u32::from(frame.kind))),
        Some(op) => {
            shared.op_requests(op).incr();
            if frame.flags == 0 {
                run_op(op, &mut frame, conn, shared)
            } else {
                Err((ErrorCode::Malformed, u32::from(frame.flags)))
            }
        }
    };
    match answer.transpose() {
        None => {
            shared.inflight.add(1);
        }
        Some(outcome) => {
            let sid = conn.live_session();
            push_reply(&mut conn.out, shared, (frame.seq, frame.corr, sid), outcome);
        }
    }
    if !matches!(frame.op(), Some(Op::SetKey | Op::SetKeyWrapped)) {
        spares.give(std::mem::take(&mut frame.payload));
    }
}

/// The live session a request names: [`ErrorCode::NoSession`] before
/// any `SET_KEY`, [`ErrorCode::StaleSession`] (detail: the live id) when
/// the request carries another id.
fn live<'c>(conn: &'c mut Conn, frame: &Frame) -> Result<&'c mut Session, Failure> {
    let session = conn.slot.session_mut().ok_or((ErrorCode::NoSession, 0))?;
    if session.id() == frame.session {
        Ok(session)
    } else {
        Err((ErrorCode::StaleSession, session.id()))
    }
}

/// One op arm per request op (`flags` already checked).
fn run_op(op: Op, frame: &mut Frame, conn: &mut Conn, shared: &Shared) -> Answer {
    let len = frame.payload.len() as u32;
    let malformed = (ErrorCode::Malformed, len);
    match op {
        Op::Ping => Ok(Some(std::mem::take(&mut frame.payload))),
        Op::GetStats if !frame.payload.is_empty() => Err(malformed),
        Op::GetStats => Ok(Some(shared.registry.snapshot().to_json().into_bytes())),
        Op::SetKey => {
            if !matches!(len, 16 | 24 | 32) {
                return Err((ErrorCode::BadKeyLength, len));
            }
            conn.rekey(&frame.payload, shared);
            rijndael::zeroize::wipe_bytes(&mut frame.payload);
            // The reply carries the new id in the header only — key
            // material never appears in any reply payload.
            Ok(Some(Vec::new()))
        }
        Op::SetKeyWrapped => {
            // The live session's key is the KEK the blob was wrapped
            // under. Every failure leaves that session live so the
            // client can retry with a corrected blob.
            let session = live(conn, frame)?;
            let mut key = session
                .unwrap_key(&frame.payload)
                .map_err(job_error_code)?
                .map_err(|e| aead_error_code(e, len))?;
            let answer = if matches!(key.len(), 16 | 24 | 32) {
                conn.rekey(&key, shared);
                Ok(Some(Vec::new()))
            } else {
                Err((ErrorCode::BadKeyLength, key.len() as u32))
            };
            rijndael::zeroize::wipe_bytes(&mut key);
            answer
        }
        Op::CmacTag => {
            let tag = live(conn, frame)?.cmac_tag(&frame.payload);
            Ok(Some(tag.map_err(job_error_code)?.to_vec()))
        }
        Op::CmacVerify => {
            let session = live(conn, frame)?;
            let (tag, message) = frame.payload.split_first_chunk().ok_or(malformed)?;
            let verified = session.cmac_verify(message, tag);
            if verified.map_err(job_error_code)? {
                Ok(Some(Vec::new()))
            } else {
                Err((ErrorCode::BadTag, 0))
            }
        }
        Op::Seal | Op::Open => {
            let session = live(conn, frame)?;
            let (nonce, aad, body) = split_aead_payload(&frame.payload).ok_or(malformed)?;
            if op == Op::Seal {
                session
                    .seal(&nonce, aad, body)
                    .map(Some)
                    .map_err(job_error_code)
            } else {
                let plaintext = session.open(&nonce, aad, body).map_err(job_error_code)?;
                plaintext.map(Some).map_err(|e| aead_error_code(e, len))
            }
        }
        Op::WrapKey | Op::UnwrapKey => {
            let session = live(conn, frame)?;
            let result = if op == Op::UnwrapKey {
                session.unwrap_key(&frame.payload)
            } else if frame.payload.len() > MAX_PAYLOAD - 8 {
                // The blob is 8 bytes longer than its input, and the
                // reply must fit a frame.
                return Err(malformed);
            } else {
                session.wrap_key(&frame.payload)
            };
            let result = result.map_err(job_error_code)?;
            result.map(Some).map_err(|e| aead_error_code(e, len))
        }
        Op::XtsEncrypt | Op::XtsDecrypt => {
            let session = live(conn, frame)?;
            let (sector_base, sector_size, body) =
                split_xts_payload(&frame.payload).ok_or(malformed)?;
            if sector_size < 16 {
                return Err((ErrorCode::BadSectorSize, sector_size));
            }
            if body.is_empty() || body.len() % sector_size as usize != 0 {
                return Err((ErrorCode::BadSectorSize, body.len() as u32));
            }
            // Validated: the sectors are processed in the request's own
            // payload, which then travels back as the reply's.
            let mut data = std::mem::take(&mut frame.payload);
            data.drain(..12);
            let decrypt = op == Op::XtsDecrypt;
            session
                .xts_apply(sector_base, sector_size as usize, data, decrypt)
                .map_err(job_error_code)?
                .map(Some)
                // Unreachable after the validation above, but kept typed
                // rather than panicking in the event loop.
                .map_err(|_| (ErrorCode::BadSectorSize, sector_size))
        }
        // The five engine ops: the IV comes off the payload in place,
        // and the job is submitted, not awaited.
        _ => {
            let session = live(conn, frame)?;
            let mut data = std::mem::take(&mut frame.payload);
            let mut iv = [0u8; 16];
            if op.takes_iv() {
                iv = *data.first_chunk().ok_or(malformed)?;
                data.drain(..16);
            }
            let mode = op.engine_mode(iv).expect("every other op has an arm");
            session
                .submit(frame.corr, mode, data)
                .map_err(submit_error_code)?;
            Ok(None)
        }
    }
}

/// Splits an XTS payload — `sector_base: u64 BE` ‖ `sector_size: u32
/// BE` ‖ body — returning `None` when even the fixed header is missing.
fn split_xts_payload(payload: &[u8]) -> Option<(u64, u32, &[u8])> {
    let body = payload.get(12..)?;
    let sector_base = u64::from_be_bytes(payload[..8].try_into().ok()?);
    let sector_size = u32::from_be_bytes(payload[8..12].try_into().ok()?);
    Some((sector_base, sector_size, body))
}

/// Splits a SEAL/OPEN payload — 12-byte nonce ‖ `aad_len: u32 BE` ‖ AAD
/// ‖ body — returning `None` when the lengths cannot be honoured.
fn split_aead_payload(payload: &[u8]) -> Option<([u8; aead::NONCE_LEN], &[u8], &[u8])> {
    let rest = payload.get(aead::NONCE_LEN + 4..)?;
    let nonce: [u8; aead::NONCE_LEN] = payload[..aead::NONCE_LEN].try_into().ok()?;
    let aad_len = u32::from_be_bytes(
        payload[aead::NONCE_LEN..aead::NONCE_LEN + 4]
            .try_into()
            .ok()?,
    ) as usize;
    if aad_len > rest.len() {
        return None;
    }
    let (aad, body) = rest.split_at(aad_len);
    Some((nonce, aad, body))
}

/// The scalar per-block XTS reference, shared with the workspace's
/// AEAD known-answer suite, that the wire tests check answers against.
#[cfg(test)]
#[path = "../../../tests/support/xts_oracle.rs"]
mod xts_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME_LEN;
    use crate::session::BULK_THRESHOLD;
    use crate::transport::Transport;

    fn tiny_config() -> ServiceConfig {
        ServiceConfig::builder()
            .farm(&[BackendSpec::Software])
            .queue_capacity(2)
            .max_connections(2)
            .idle_timeout(Duration::from_millis(200))
            .event_threads(1)
            .build()
            .expect("tiny config is valid")
    }

    fn tiny_server() -> ServiceHandle {
        Server::new(tiny_config())
            .spawn("127.0.0.1:0")
            .expect("bind ephemeral port")
    }

    fn call(stream: &TcpStream, frame: &Frame) -> Frame {
        let mut w = stream;
        frame.write_to(&mut w).unwrap();
        let mut r = stream;
        Frame::read_from(&mut r).unwrap()
    }

    #[test]
    fn idle_timeout_detail_saturates_instead_of_wrapping() {
        assert_eq!(idle_timeout_detail(Duration::from_millis(200)), 200);
        assert_eq!(
            idle_timeout_detail(Duration::from_millis(u64::from(u32::MAX))),
            u32::MAX
        );
        // One past the boundary used to wrap to 0; now it pins.
        assert_eq!(
            idle_timeout_detail(Duration::from_millis(u64::from(u32::MAX) + 1)),
            u32::MAX
        );
        assert_eq!(
            idle_timeout_detail(Duration::from_secs(100 * 24 * 3600)),
            u32::MAX
        );
    }

    /// Partial writes retire replies exactly at their boundaries; a
    /// retired payload large enough to serve a body is parked, and the
    /// spare list keeps to its byte bound.
    #[test]
    fn the_reply_queue_retires_payloads_into_the_spare_list() {
        let registry = Registry::new();
        let mut spares = Spares::new(registry.gauge("spare"));
        let mut out = OutBuf::default();
        let big = 250_000;
        let sizes = [0, big, 5, READ_CHUNK, big, big, big, big];
        for (i, &size) in sizes.iter().enumerate() {
            assert!(out.push(Status::Ok, (i as u32, i as u32, 1), vec![7; size]));
        }
        let total: usize = sizes.iter().map(|s| HEAD_LEN + s).sum();
        assert_eq!(out.len(), total);
        let mut written = 0;
        for chunk in [HEAD_LEN, 1, big - 1, HEAD_LEN + 17, 3] {
            out.consume(chunk, &mut spares);
            written += chunk;
            assert_eq!(out.len(), total - written);
        }
        // Two replies retired whole; only the big payload is worth
        // keeping.
        assert_eq!(out.replies.len(), sizes.len() - 2);
        assert_eq!(spares.bufs.len(), 1);
        out.consume(total - written, &mut spares);
        assert!(out.is_empty() && out.replies.is_empty());
        assert!(spares.bytes <= OUTBUF_SOFT_CAP);
        assert_eq!(spares.bufs.len(), 4, "three big ones and one of 64 KiB");
        assert_eq!(
            registry.snapshot().gauge("spare"),
            Some(spares.bytes as i64)
        );
        // A body takes the most recent spare that fits, else a fresh
        // buffer sized to what has arrived plus one read.
        assert!(spares.take(200_000, 10).capacity() >= 200_000);
        assert_eq!(spares.take(400_000, 10).capacity(), 10 + READ_CHUNK);
        drop(spares);
        assert_eq!(registry.snapshot().gauge("spare"), Some(0));
    }

    #[test]
    fn ping_echoes_and_shutdown_joins_cleanly() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 41, 0, vec![1, 2, 3]));
        assert_eq!(reply.status(), Some(Status::Ok));
        assert_eq!(reply.seq, 41);
        assert_eq!(reply.corr, 41);
        assert_eq!(reply.payload, vec![1, 2, 3]);
        server.shutdown();
        // After shutdown the port no longer accepts (the goodbye may or
        // may not arrive first depending on scheduling, so only the
        // join mattered here).
    }

    /// Writes `wire` verbatim and expects a `BadVersion` goodbye naming
    /// `version`, then EOF.
    fn expect_bad_version_goodbye(server: &ServiceHandle, wire: &[u8], version: u8) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        (&stream).write_all(wire).unwrap();
        let mut r = &stream;
        let reply = Frame::read_from(&mut r).unwrap();
        assert_eq!(
            reply.error_body(),
            Some((ErrorCode::BadVersion, u32::from(version)))
        );
        // The server closed: the next read sees EOF.
        let mut rest = Vec::new();
        assert_eq!((&stream).read_to_end(&mut rest).unwrap(), 0);
    }

    #[test]
    fn a_v1_ping_gets_bad_version_then_close() {
        let server = tiny_server();
        // The retired 11-byte layout: len, version 1, kind, flags, seq,
        // session — and a one-byte payload.
        let mut v1_ping = 12u32.to_be_bytes().to_vec();
        v1_ping.extend_from_slice(&[1, Op::Ping as u8, 0]);
        v1_ping.extend_from_slice(&9u32.to_be_bytes());
        v1_ping.extend_from_slice(&0u32.to_be_bytes());
        v1_ping.push(7);
        expect_bad_version_goodbye(&server, &v1_ping, 1);
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("service.error.bad_version"), Some(1));
        server.shutdown();
    }

    #[test]
    fn crypto_before_set_key_is_a_typed_no_session_error() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(
            &stream,
            &Frame::request(Op::EcbEncrypt, 0, 7, 0, vec![0u8; 16]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::NoSession, 0)));
        // The connection survives a typed error: ping still answers.
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 8, 0, Vec::new()));
        assert_eq!(reply.status(), Some(Status::Ok));
        // Both requests and the error all landed in the registry.
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("service.op.ping.requests"), Some(1));
        assert_eq!(snap.counter("service.op.ecb_encrypt.requests"), Some(1));
        assert_eq!(snap.counter("service.error.no_session"), Some(1));
        server.shutdown();
    }

    #[test]
    fn the_retired_drain_opcode_is_a_typed_bad_op() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let retired = Frame {
            kind: 0x02,
            ..Frame::request(Op::Ping, 0, 3, 0, Vec::new())
        };
        let reply = call(&stream, &retired);
        assert_eq!(reply.error_body(), Some((ErrorCode::BadOp, 0x02)));
        assert_eq!(reply.corr, 3);
        server.shutdown();
    }

    #[test]
    fn nonzero_flags_are_malformed_and_the_connection_survives() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let sid = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16])).session;
        // No flag bit is assigned, so any non-zero flags byte is malformed.
        let reply = call(
            &stream,
            &Frame::request(Op::EcbEncrypt, 0x01, 2, sid, vec![0u8; 16]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 1)));
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 3, sid, vec![9]));
        assert_eq!(reply.status(), Some(Status::Ok));
        assert_eq!(reply.payload, vec![9]);
        // The rejected job never ran and left nothing in flight.
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("service.error.malformed"), Some(1));
        assert_eq!(snap.gauge("service.pipeline.inflight"), Some(0));
        assert_eq!(snap.counter("engine.jobs.completed"), Some(0));
        server.shutdown();
    }

    #[test]
    fn bad_version_gets_a_typed_reply_then_close() {
        let server = tiny_server();
        for version in [0u8, 9, 255] {
            // A well-formed PING in every other respect.
            let mut wire = Vec::new();
            Frame::request(Op::Ping, 0, 1, 0, Vec::new())
                .write_to(&mut wire)
                .unwrap();
            wire[4] = version;
            expect_bad_version_goodbye(&server, &wire, version);
        }
        server.shutdown();
    }

    #[test]
    fn oversized_frames_are_refused_with_a_typed_goodbye() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut w = &stream;
        w.write_all(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes())
            .unwrap();
        let mut r = &stream;
        let reply = Frame::read_from(&mut r).unwrap();
        let (code, detail) = reply.error_body().unwrap();
        assert_eq!(code, ErrorCode::FrameTooLarge);
        assert_eq!(detail as usize, MAX_FRAME_LEN + 1);
        server.shutdown();
    }

    #[test]
    fn admission_cap_refuses_excess_connections_typed() {
        let server = tiny_server();
        let a = TcpStream::connect(server.local_addr()).unwrap();
        let b = TcpStream::connect(server.local_addr()).unwrap();
        // Make sure both are admitted before the third knocks.
        call(&a, &Frame::request(Op::Ping, 0, 1, 0, Vec::new()));
        call(&b, &Frame::request(Op::Ping, 0, 1, 0, Vec::new()));
        let c = TcpStream::connect(server.local_addr()).unwrap();
        let mut r = &c;
        let reply = Frame::read_from(&mut r).unwrap();
        assert_eq!(reply.error_body(), Some((ErrorCode::TooManyConnections, 2)));
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("service.admission.refused"), Some(1));
        assert_eq!(snap.counter("service.connections.served"), Some(2));
        // Only admitted sockets are handed to a shard: the refused one
        // got its goodbye from the acceptor.
        let handoff = snap.histogram("service.admission.handoff_us").unwrap();
        assert_eq!(handoff.count, 2);
        server.shutdown();
    }

    /// A hand-off wakes the shard it lands on, so a new connection is
    /// served at once instead of on the shard's next `POLL` tick. Each
    /// connection is closed by the server before the next connect, so
    /// every shard is parked in `poll(2)` when its socket arrives, and
    /// round-robin placement walks all four shards.
    #[test]
    fn a_handed_off_connection_does_not_wait_for_the_poll_tick() {
        let config = ServiceConfig::builder()
            .farm(&[BackendSpec::Software])
            .event_threads(4)
            .build()
            .unwrap();
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let mut opens: Vec<Duration> = (0..21u32)
            .map(|i| {
                let started = Instant::now();
                let stream = TcpStream::connect(server.local_addr()).unwrap();
                let reply = call(&stream, &Frame::request(Op::Ping, 0, i, 0, Vec::new()));
                let open = started.elapsed();
                assert_eq!(reply.status(), Some(Status::Ok));
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut rest = Vec::new();
                (&stream).read_to_end(&mut rest).unwrap();
                open
            })
            .collect();
        opens.sort();
        let median = opens[opens.len() / 2];
        assert!(
            median < Duration::from_millis(2),
            "median connect→reply {median:?} (poll tick {POLL:?})"
        );
        let snap = server.registry().snapshot();
        let handoff = snap.histogram("service.admission.handoff_us").unwrap();
        assert_eq!(handoff.count, 21);
        server.shutdown();
    }

    #[test]
    fn idle_connections_get_a_typed_timeout() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut r = &stream;
        let reply = Frame::read_from(&mut r).unwrap();
        let (code, detail) = reply.error_body().unwrap();
        assert_eq!(code, ErrorCode::IdleTimeout);
        assert_eq!(detail, 200);
        server.shutdown();
    }

    #[test]
    fn a_long_inline_op_does_not_time_out_its_own_connection() {
        // A paced core makes the 64 B CTR below run 400 ms on the shard,
        // twice the idle budget; the connection's own op is not idleness.
        let mut config = tiny_config();
        config.farm = vec![BackendSpec::Paced {
            block_ns: 100_000_000,
        }];
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let sid = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16])).session;
        let ctr = call(
            &stream,
            &Frame::request(Op::CtrApply, 0, 2, sid, vec![0u8; 16 + 64]),
        );
        let mut expect = vec![0u8; 64];
        rijndael::modes::Ctr::apply(&rijndael::Aes128::new(&[0u8; 16]), &[0u8; 16], &mut expect);
        assert_eq!(ctr.payload, expect, "{:?}", ctr.error_body());
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 3, sid, vec![7]));
        assert_eq!(reply.error_body(), None);
        assert_eq!(reply.payload, vec![7]);
        server.shutdown();
    }

    #[test]
    fn a_long_inline_op_does_not_time_out_another_connection() {
        // A's 64 B CTR holds the shard for 400 ms, twice the idle budget.
        // B's second PING arrives 150 ms after its first, during that
        // stall: the shard's own compute is not B's idleness.
        let mut config = tiny_config();
        config.farm = vec![BackendSpec::Paced {
            block_ns: 100_000_000,
        }];
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(server.local_addr()).unwrap();
        let b = TcpStream::connect(server.local_addr()).unwrap();
        let sid = call(&a, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16])).session;
        let first = call(&b, &Frame::request(Op::Ping, 0, 1, 0, vec![1]));
        assert_eq!(first.payload, vec![1]);
        let pinged = Instant::now();
        Frame::request(Op::CtrApply, 0, 2, sid, vec![0u8; 16 + 64])
            .write_to(&mut &a)
            .unwrap();
        thread::sleep(Duration::from_millis(150).saturating_sub(pinged.elapsed()));
        let second = call(&b, &Frame::request(Op::Ping, 0, 2, 0, vec![2]));
        assert_eq!(second.error_body(), None);
        assert_eq!(second.payload, vec![2]);
        let ctr = Frame::read_from(&mut &a).unwrap();
        assert_eq!(ctr.error_body(), None);
        server.shutdown();
    }

    #[test]
    fn get_stats_needs_no_session_and_rejects_a_payload() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(&stream, &Frame::request(Op::GetStats, 0, 1, 0, Vec::new()));
        assert_eq!(reply.status(), Some(Status::Ok));
        let json = String::from_utf8(reply.payload).unwrap();
        assert!(json.contains("\"schema\":\"telemetry/1\""));
        assert!(json.contains("service.op.get_stats.requests"));

        let reply = call(&stream, &Frame::request(Op::GetStats, 0, 2, 0, vec![1]));
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 1)));
        server.shutdown();
    }

    /// Builds a SEAL/OPEN payload: nonce ‖ aad_len ‖ aad ‖ body.
    fn aead_payload(nonce: &[u8; 12], aad: &[u8], body: &[u8]) -> Vec<u8> {
        let mut p = Vec::with_capacity(16 + aad.len() + body.len());
        p.extend_from_slice(nonce);
        p.extend_from_slice(&(aad.len() as u32).to_be_bytes());
        p.extend_from_slice(aad);
        p.extend_from_slice(body);
        p
    }

    #[test]
    fn set_key_rejects_bad_lengths_with_a_typed_error() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        for len in [0usize, 15, 17, 23, 31, 33] {
            let reply = call(
                &stream,
                &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; len]),
            );
            assert_eq!(
                reply.error_body(),
                Some((ErrorCode::BadKeyLength, len as u32)),
                "len {len}"
            );
        }
        // All three AES key sizes key a session.
        for len in [16usize, 24, 32] {
            let reply = call(
                &stream,
                &Frame::request(Op::SetKey, 0, 2, 0, vec![7u8; len]),
            );
            assert_eq!(reply.status(), Some(Status::Ok), "len {len}");
            assert_ne!(reply.session, 0);
        }
        server.shutdown();
    }

    #[test]
    fn seal_open_wrap_unwrap_over_the_wire_with_a_256_bit_key() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let key: Vec<u8> = (0..32u8).collect();
        let reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, key));
        assert_eq!(reply.status(), Some(Status::Ok));
        let sid = reply.session;

        // SEAL with AAD, then OPEN the result back.
        let nonce = [3u8; 12];
        let sealed = call(
            &stream,
            &Frame::request(
                Op::Seal,
                0,
                2,
                sid,
                aead_payload(&nonce, b"header", b"secret payload"),
            ),
        );
        assert_eq!(sealed.status(), Some(Status::Ok));
        assert_eq!(sealed.payload.len(), 14 + 16);
        let opened = call(
            &stream,
            &Frame::request(
                Op::Open,
                0,
                3,
                sid,
                aead_payload(&nonce, b"header", &sealed.payload),
            ),
        );
        assert_eq!(opened.status(), Some(Status::Ok));
        assert_eq!(opened.payload, b"secret payload");

        // A flipped ciphertext bit is a typed TagMismatch.
        let mut tampered = sealed.payload.clone();
        tampered[0] ^= 0x01;
        let reply = call(
            &stream,
            &Frame::request(
                Op::Open,
                0,
                4,
                sid,
                aead_payload(&nonce, b"header", &tampered),
            ),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::TagMismatch, 0)));

        // WRAP a session key and UNWRAP it back.
        let secret = vec![0xC4u8; 16];
        let wrapped = call(
            &stream,
            &Frame::request(Op::WrapKey, 0, 5, sid, secret.clone()),
        );
        assert_eq!(wrapped.status(), Some(Status::Ok));
        assert_eq!(wrapped.payload.len(), 24);
        let unwrapped = call(
            &stream,
            &Frame::request(Op::UnwrapKey, 0, 6, sid, wrapped.payload.clone()),
        );
        assert_eq!(unwrapped.status(), Some(Status::Ok));
        assert_eq!(unwrapped.payload, secret);
        let mut bad = wrapped.payload;
        bad[1] ^= 0x80;
        let reply = call(&stream, &Frame::request(Op::UnwrapKey, 0, 7, sid, bad));
        assert_eq!(reply.error_body(), Some((ErrorCode::TagMismatch, 0)));

        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("service.op.seal.requests"), Some(1));
        assert_eq!(snap.counter("service.op.open.requests"), Some(2));
        assert_eq!(snap.counter("service.error.tag_mismatch"), Some(2));
        server.shutdown();
    }

    #[test]
    fn malformed_payloads_on_the_aead_ops_are_typed_errors() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16]));
        let sid = reply.session;

        // SEAL: shorter than nonce + aad_len header.
        let reply = call(&stream, &Frame::request(Op::Seal, 0, 2, sid, vec![0u8; 15]));
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 15)));
        // SEAL: declared AAD length overruns the payload.
        let mut overrun = aead_payload(&[0u8; 12], b"", b"x");
        overrun[12..16].copy_from_slice(&100u32.to_be_bytes());
        let len = overrun.len() as u32;
        let reply = call(&stream, &Frame::request(Op::Seal, 0, 3, sid, overrun));
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, len)));
        // OPEN: body shorter than one tag.
        let short = aead_payload(&[0u8; 12], b"", &[0u8; 15]);
        let len = short.len() as u32;
        let reply = call(&stream, &Frame::request(Op::Open, 0, 4, sid, short));
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, len)));
        // WRAP: under two semiblocks / not a multiple of 8.
        let reply = call(
            &stream,
            &Frame::request(Op::WrapKey, 0, 5, sid, vec![0; 12]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 12)));
        // UNWRAP: an impossible blob length.
        let reply = call(
            &stream,
            &Frame::request(Op::UnwrapKey, 0, 6, sid, vec![0; 16]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 16)));
        // The connection survives all of it.
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 7, 0, Vec::new()));
        assert_eq!(reply.status(), Some(Status::Ok));
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_complete_and_correlate() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let key_reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16]));
        assert_eq!(key_reply.status(), Some(Status::Ok));
        let sid = key_reply.session;

        // Submit a burst without reading a single reply.
        let depth = 24u32;
        let mut w = &stream;
        for i in 0..depth {
            Frame::request(Op::EcbEncrypt, 0, 100 + i, sid, vec![0u8; 16])
                .with_corr(1000 + i)
                .write_to(&mut w)
                .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut r = &stream;
        for _ in 0..depth {
            let reply = Frame::read_from(&mut r).unwrap();
            assert_eq!(reply.status(), Some(Status::Ok), "{:?}", reply.error_body());
            // AES-128 all-zero KAT first byte.
            assert_eq!(reply.payload[0], 0x66);
            assert!(
                (1000..1000 + depth).contains(&reply.corr),
                "stray corr {}",
                reply.corr
            );
            assert!(seen.insert(reply.corr), "duplicate corr {}", reply.corr);
        }
        let snap = server.registry().snapshot();
        assert_eq!(snap.gauge("service.pipeline.inflight"), Some(0));
        assert!(snap.counter("service.op.ecb_encrypt.requests") >= Some(u64::from(depth)));
        server.shutdown();
    }

    /// Bulk v2 requests ride the worker-pool lane: the reply arrives via
    /// the wake pipe + completion sweep rather than the inline dispatch
    /// path, and the pool's worker gauge becomes visible in GET_STATS.
    #[test]
    fn bulk_pipelined_requests_ride_the_pool_and_wake_the_shard() {
        let mut config = tiny_config();
        config.queue_capacity = 16;
        config.elastic = Some(ResizePolicy::default());
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let key_reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16]));
        assert_eq!(key_reply.status(), Some(Status::Ok));
        let sid = key_reply.session;

        // Well past BULK_THRESHOLD so every request takes the pool lane.
        let bulk = vec![0u8; BULK_THRESHOLD * 16];
        let depth = 8u32;
        let mut w = &stream;
        for i in 0..depth {
            Frame::request(Op::EcbEncrypt, 0, 100 + i, sid, bulk.clone())
                .with_corr(2000 + i)
                .write_to(&mut w)
                .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut r = &stream;
        for _ in 0..depth {
            let reply = Frame::read_from(&mut r).unwrap();
            assert_eq!(reply.status(), Some(Status::Ok), "{:?}", reply.error_body());
            assert_eq!(reply.payload.len(), bulk.len());
            // All-zero plaintext: every block is the AES-128 zero KAT.
            assert_eq!(reply.payload[0], 0x66);
            let first = &reply.payload[..16];
            assert!(reply.payload.chunks_exact(16).all(|b| b == first));
            assert!(seen.insert(reply.corr), "duplicate corr {}", reply.corr);
        }
        let snap = server.registry().snapshot();
        assert_eq!(snap.gauge("service.pipeline.inflight"), Some(0));
        assert!(
            snap.gauge("engine.workers").unwrap_or(0) >= 1,
            "bulk traffic must have spun up pool workers"
        );
        // The pool (not the inline lane) must have run the jobs: the
        // only engine-counted work this test generates is the bulk
        // bursts, and they all land on the pool's completion counter.
        assert!(
            snap.counter("engine.jobs.completed").unwrap_or(0) >= u64::from(depth),
            "bulk v2 jobs must complete through the worker pool"
        );
        server.shutdown();
    }

    /// Once a pipelined burst of bulk requests has been answered and
    /// read, no connection holds buffered bytes, the spare lists stay
    /// within their bound, and the socket calls were counted — all
    /// visible in `GET_STATS`.
    #[test]
    fn get_stats_shows_io_calls_buffered_and_spare_bytes() {
        let mut config = tiny_config();
        config.farm = vec![BackendSpec::Auto];
        config.queue_capacity = 8;
        config.idle_timeout = Duration::from_secs(10);
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        client.set_key(&[0x61; 16]).unwrap();
        let syscalls = || {
            let snap = server.registry().snapshot();
            snap.counter("service.io.syscalls").unwrap()
        };
        let before = syscalls();
        let bulk = vec![0x3Cu8; MAX_PAYLOAD];
        for _ in 0..3 {
            for _ in 0..6 {
                client.pipeline(Op::EcbEncrypt, None, &bulk).unwrap();
            }
            for job in client.collect_all().unwrap() {
                assert_eq!(job.result.map(|ct| ct.len()), Ok(bulk.len()));
            }
        }
        let wire = telemetry::Snapshot::from_json(&client.stats().unwrap()).unwrap();
        assert!(wire.counter("service.io.syscalls").is_some());
        assert!(wire.gauge("service.conn.buffered_bytes").is_some());
        assert!(wire.gauge("service.buffers.spare_bytes").is_some());
        let snap = server.registry().snapshot();
        assert_eq!(snap.gauge("service.conn.buffered_bytes"), Some(0));
        let spare = snap.gauge("service.buffers.spare_bytes").unwrap();
        let bound = server.shared.config.event_threads * OUTBUF_SOFT_CAP;
        assert!(
            spare > 0 && spare as usize <= bound,
            "spare {spare}, bound {bound}"
        );
        // At least a read and a write per request, and well under one
        // call per KiB moved.
        let calls = syscalls() - before;
        assert!((36..18 * 256).contains(&calls), "{calls} socket calls");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn builder_rejects_each_contradiction_with_a_typed_error() {
        assert_eq!(
            ServiceConfig::builder().farm(&[]).build().unwrap_err(),
            ConfigError::EmptyFarm
        );
        assert_eq!(
            ServiceConfig::builder()
                .event_threads(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroShards
        );
        assert_eq!(
            ServiceConfig::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroQueueCapacity
        );
        assert_eq!(
            ServiceConfig::builder()
                .max_connections(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroConnections
        );
        let contradictory = ResizePolicy {
            min_workers: 3,
            max_workers: 2,
            ..ResizePolicy::default()
        };
        assert_eq!(
            ServiceConfig::builder()
                .elastic(contradictory)
                .build()
                .unwrap_err(),
            ConfigError::ElasticBounds {
                min_workers: 3,
                max_workers: 2
            }
        );
        let zero_floor = ResizePolicy {
            min_workers: 0,
            ..ResizePolicy::default()
        };
        assert!(matches!(
            ServiceConfig::builder().elastic(zero_floor).build(),
            Err(ConfigError::ElasticBounds { min_workers: 0, .. })
        ));
        // The defaults and a fully-specified valid config both pass.
        assert!(ServiceConfig::builder().build().is_ok());
        let built = ServiceConfig::builder()
            .farm(&[BackendSpec::Ttable])
            .queue_capacity(7)
            .max_connections(9)
            .idle_timeout(Duration::from_secs(3))
            .event_threads(2)
            .elastic(ResizePolicy::default())
            .build()
            .unwrap();
        assert_eq!(built.queue_capacity, 7);
        assert_eq!(built.max_connections, 9);
        assert_eq!(built.event_threads, 2);
        assert!(built.elastic.is_some());
    }

    #[test]
    fn set_key_wrapped_rekeys_from_a_blob_wrapped_under_the_live_session() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        // Key the KEK session, wrap a fresh data key under it.
        let kek_reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![9u8; 16]));
        assert_eq!(kek_reply.status(), Some(Status::Ok));
        let kek_sid = kek_reply.session;
        let data_key: Vec<u8> = (0..16u8).collect();
        let wrapped = call(
            &stream,
            &Frame::request(Op::WrapKey, 0, 2, kek_sid, data_key.clone()),
        );
        assert_eq!(wrapped.status(), Some(Status::Ok));

        // Re-key from the wrapped blob: the reply carries a fresh
        // session id, and the session now behaves exactly as if the raw
        // data key had been sent with SET_KEY.
        let rekeyed = call(
            &stream,
            &Frame::request(Op::SetKeyWrapped, 0, 3, kek_sid, wrapped.payload.clone()),
        );
        assert_eq!(rekeyed.status(), Some(Status::Ok));
        let sid = rekeyed.session;
        assert_ne!(sid, 0);
        assert_ne!(sid, kek_sid);
        let ct = call(
            &stream,
            &Frame::request(Op::EcbEncrypt, 0, 4, sid, vec![0u8; 16]),
        );
        assert_eq!(ct.status(), Some(Status::Ok));
        let expected = crate::session::tests_expected_ecb(&data_key, &[0u8; 16]);
        assert_eq!(ct.payload, expected);

        // A tampered blob is a typed TagMismatch and leaves the current
        // session live (the next request still answers under `sid`).
        let mut bad = wrapped.payload.clone();
        bad[0] ^= 0x40;
        let reply = call(&stream, &Frame::request(Op::SetKeyWrapped, 0, 5, sid, bad));
        assert_eq!(reply.error_body(), Some((ErrorCode::TagMismatch, 0)));
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 6, sid, Vec::new()));
        assert_eq!(reply.status(), Some(Status::Ok));

        // An impossible blob length is Malformed; before any session it
        // is NoSession.
        let reply = call(
            &stream,
            &Frame::request(Op::SetKeyWrapped, 0, 7, sid, vec![0u8; 10]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 10)));
        let fresh = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(
            &fresh,
            &Frame::request(Op::SetKeyWrapped, 0, 1, 0, vec![0u8; 24]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::NoSession, 0)));
        server.shutdown();
    }

    #[test]
    fn set_key_wrapped_rejects_a_wrapped_non_key_with_bad_key_length() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let kek_reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![9u8; 16]));
        let kek_sid = kek_reply.session;
        // 40 bytes wraps fine but is not an AES key length.
        let wrapped = call(
            &stream,
            &Frame::request(Op::WrapKey, 0, 2, kek_sid, vec![5u8; 40]),
        );
        assert_eq!(wrapped.status(), Some(Status::Ok));
        let reply = call(
            &stream,
            &Frame::request(Op::SetKeyWrapped, 0, 3, kek_sid, wrapped.payload),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::BadKeyLength, 40)));
        // The KEK session survived the rejection.
        let reply = call(
            &stream,
            &Frame::request(Op::Ping, 0, 4, kek_sid, Vec::new()),
        );
        assert_eq!(reply.status(), Some(Status::Ok));
        server.shutdown();
    }

    /// Builds an XTS payload: sector_base ‖ sector_size ‖ body.
    fn xts_payload(sector_base: u64, sector_size: u32, body: &[u8]) -> Vec<u8> {
        let mut p = Vec::with_capacity(12 + body.len());
        p.extend_from_slice(&sector_base.to_be_bytes());
        p.extend_from_slice(&sector_size.to_be_bytes());
        p.extend_from_slice(body);
        p
    }

    /// The session's XTS stream for `body` per the scalar oracle: the
    /// session key serves as both data and tweak key, and sector
    /// numbers wrap past `u64::MAX`.
    fn oracle_xts(key: &[u8], base: u64, sector_size: usize, body: &[u8]) -> Vec<u8> {
        let cipher = rijndael::ttable::TtableAes::new(key).expect("valid key length");
        let mut out = body.to_vec();
        for (i, sector) in out.chunks_mut(sector_size).enumerate() {
            let number = base.wrapping_add(i as u64);
            xts_oracle::sector(&cipher, &cipher, number, sector, false);
        }
        out
    }

    #[test]
    fn xts_wire_ops_roundtrip_and_match_the_session_lane() {
        // XTS runs on the farm's backend: the dispatched one, because 64
        // KiB on the golden reference takes half a second in a debug
        // build, past this config's idle budget.
        let mut config = tiny_config();
        config.farm = vec![BackendSpec::Auto];
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let key: Vec<u8> = (100..132u8).collect();
        let reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, key.clone()));
        assert_eq!(reply.status(), Some(Status::Ok));
        let sid = reply.session;

        // Three 20-byte sectors exercise ciphertext stealing; 64 KiB in
        // 4 KiB sectors is perf_ledger's XTS shape, numbered from a base
        // that wraps past u64::MAX.
        let small: Vec<u8> = (0..60u8).collect();
        let large: Vec<u8> = (0..64 * 1024).map(|i| (i * 131 % 251) as u8).collect();
        let mut seq = 1;
        for (base, sector_size, body) in [(7, 20, small), (u64::MAX - 7, 4096, large)] {
            seq += 1;
            let ct = call(
                &stream,
                &Frame::request(
                    Op::XtsEncrypt,
                    0,
                    seq,
                    sid,
                    xts_payload(base, sector_size, &body),
                ),
            );
            assert_eq!(ct.status(), Some(Status::Ok), "{:?}", ct.error_body());
            assert_eq!(ct.payload.len(), body.len());
            assert_ne!(ct.payload, body);
            // The wire op matches the scalar oracle sector by sector.
            assert!(
                ct.payload == oracle_xts(&key, base, sector_size as usize, &body),
                "{sector_size}-byte sectors from {base} disagree with the oracle"
            );
            seq += 1;
            let pt = call(
                &stream,
                &Frame::request(
                    Op::XtsDecrypt,
                    0,
                    seq,
                    sid,
                    xts_payload(base, sector_size, &ct.payload),
                ),
            );
            assert_eq!(pt.status(), Some(Status::Ok), "{:?}", pt.error_body());
            assert!(pt.payload == body, "{sector_size}-byte sectors from {base}");

            // Decrypting under the wrong sector base garbles the plaintext.
            seq += 1;
            let wrong = call(
                &stream,
                &Frame::request(
                    Op::XtsDecrypt,
                    0,
                    seq,
                    sid,
                    xts_payload(base.wrapping_add(1), sector_size, &ct.payload),
                ),
            );
            assert_eq!(wrong.status(), Some(Status::Ok));
            assert_ne!(wrong.payload, body);
        }
        server.shutdown();
    }

    #[test]
    fn xts_wire_ops_reject_bad_geometry_with_typed_errors() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, vec![0u8; 16]));
        let sid = reply.session;

        // Shorter than the fixed header is Malformed.
        let reply = call(
            &stream,
            &Frame::request(Op::XtsEncrypt, 0, 2, sid, vec![0u8; 11]),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 11)));
        // A sector size under one block names the offending size.
        let reply = call(
            &stream,
            &Frame::request(Op::XtsEncrypt, 0, 3, sid, xts_payload(0, 15, &[0u8; 30])),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::BadSectorSize, 15)));
        // An empty body and a ragged body both name the body length.
        let reply = call(
            &stream,
            &Frame::request(Op::XtsEncrypt, 0, 4, sid, xts_payload(0, 16, &[])),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::BadSectorSize, 0)));
        let reply = call(
            &stream,
            &Frame::request(Op::XtsDecrypt, 0, 5, sid, xts_payload(0, 16, &[0u8; 17])),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::BadSectorSize, 17)));
        // Before SET_KEY the ops are NoSession like every crypto op.
        let fresh = TcpStream::connect(server.local_addr()).unwrap();
        let reply = call(
            &fresh,
            &Frame::request(Op::XtsEncrypt, 0, 1, 0, xts_payload(0, 16, &[0u8; 16])),
        );
        assert_eq!(reply.error_body(), Some((ErrorCode::NoSession, 0)));
        server.shutdown();
    }

    /// Waits for every connection to be gone, then reads the in-flight
    /// gauge: no accepted request may outlive its connection there.
    fn inflight_once_closed(server: &ServiceHandle) -> Option<i64> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.active_connections() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_connections(), 0, "a connection lingers");
        server
            .registry()
            .snapshot()
            .gauge("service.pipeline.inflight")
    }

    /// The CTR keystream of `data` under an AES-128 `key`.
    fn expected_ctr(key: &[u8; 16], iv: &[u8; 16], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        rijndael::modes::Ctr::apply(&rijndael::Aes128::new(key), iv, &mut out);
        out
    }

    /// A server whose one paced core holds each 4 KiB job for ~5 ms, so
    /// a pool-lane job is still running when the next frame arrives.
    fn paced_server() -> ServiceHandle {
        let mut config = tiny_config();
        config.farm = vec![BackendSpec::Paced { block_ns: 20_000 }];
        Server::new(config).spawn("127.0.0.1:0").unwrap()
    }

    /// One write of [CTR, SET_KEY, PING] on a keyed connection: the CTR
    /// is answered first, under the old session id and with the old
    /// key's keystream; then the re-key and the ping.
    fn rekey_burst_answers_every_request(server: &ServiceHandle, ctr_len: usize) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let old_key = [0x11u8; 16];
        let old = call(
            &stream,
            &Frame::request(Op::SetKey, 0, 1, 0, old_key.to_vec()),
        )
        .session;
        let iv = [0xF0u8; 16];
        let data: Vec<u8> = (0..ctr_len).map(|i| (i * 7) as u8).collect();
        let mut burst = Vec::new();
        for frame in [
            Frame::request(Op::CtrApply, 0, 2, old, [&iv[..], &data].concat()),
            Frame::request(Op::SetKey, 0, 3, old, vec![0x22; 16]),
            Frame::request(Op::Ping, 0, 4, old, b"after".to_vec()),
        ] {
            frame.write_to(&mut burst).unwrap();
        }
        (&stream).write_all(&burst).unwrap();
        let mut r = &stream;
        let ctr = Frame::read_from(&mut r).unwrap();
        assert_eq!((ctr.corr, ctr.session), (2, old), "{:?}", ctr.error_body());
        assert!(ctr.payload == expected_ctr(&old_key, &iv, &data));
        let rekeyed = Frame::read_from(&mut r).unwrap();
        assert_eq!((rekeyed.corr, rekeyed.status()), (3, Some(Status::Ok)));
        assert_ne!(rekeyed.session, old);
        let pong = Frame::read_from(&mut r).unwrap();
        assert_eq!((pong.corr, pong.payload.as_slice()), (4, &b"after"[..]));
        drop(stream);
        assert_eq!(inflight_once_closed(server), Some(0));
    }

    #[test]
    fn a_rekey_answers_an_inline_job_accepted_before_it() {
        let server = tiny_server();
        rekey_burst_answers_every_request(&server, 64);
        server.shutdown();
    }

    #[test]
    fn a_rekey_answers_a_pool_job_accepted_before_it() {
        let server = paced_server();
        rekey_burst_answers_every_request(&server, 4096);
        server.shutdown();
    }

    #[test]
    fn a_pool_job_is_answered_before_the_half_close_eof() {
        let server = paced_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let key = [0x33u8; 16];
        let sid = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, key.to_vec())).session;
        let iv = [0x0Fu8; 16];
        let data = vec![0xA5u8; 4096];
        Frame::request(Op::CtrApply, 0, 2, sid, [&iv[..], &data].concat())
            .write_to(&mut &stream)
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = Frame::read_from(&mut &stream).unwrap();
        assert_eq!(reply.corr, 2, "{:?}", reply.error_body());
        assert!(reply.payload == expected_ctr(&key, &iv, &data));
        let mut rest = Vec::new();
        assert_eq!((&stream).read_to_end(&mut rest).unwrap(), 0);
        assert_eq!(inflight_once_closed(&server), Some(0));
        server.shutdown();
    }

    #[test]
    fn replies_parked_before_a_framing_error_precede_its_goodbye() {
        let server = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let key = [0x44u8; 16];
        let sid = call(&stream, &Frame::request(Op::SetKey, 0, 1, 0, key.to_vec())).session;
        let iv = [0x3Cu8; 16];
        let data = vec![0x5Au8; 64];
        let mut burst = Vec::new();
        Frame::request(Op::CtrApply, 0, 2, sid, [&iv[..], &data].concat())
            .write_to(&mut burst)
            .unwrap();
        // A length prefix under the header, then a current version byte.
        burst.extend_from_slice(&5u32.to_be_bytes());
        burst.extend_from_slice(&[crate::protocol::PROTOCOL_VERSION, 0, 0, 0, 0]);
        (&stream).write_all(&burst).unwrap();
        let ctr = Frame::read_from(&mut &stream).unwrap();
        assert_eq!(ctr.corr, 2, "{:?}", ctr.error_body());
        assert!(ctr.payload == expected_ctr(&key, &iv, &data));
        let goodbye = Frame::read_from(&mut &stream).unwrap();
        assert_eq!(goodbye.error_body(), Some((ErrorCode::Malformed, 5)));
        let mut rest = Vec::new();
        assert_eq!((&stream).read_to_end(&mut rest).unwrap(), 0);
        assert_eq!(inflight_once_closed(&server), Some(0));
        server.shutdown();
    }

    #[test]
    fn wrap_key_input_is_bounded_so_its_reply_fits_a_frame() {
        // A wide idle budget: a debug build wraps 256 KiB slowly, and
        // the T-table backend, because on the golden reference a debug
        // build takes 16 s each way.
        let mut config = tiny_config();
        config.farm = vec![BackendSpec::Ttable];
        config.idle_timeout = Duration::from_secs(5);
        let server = Server::new(config).spawn("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let sid = call(
            &stream,
            &Frame::request(Op::SetKey, 0, 1, 0, vec![0x55; 16]),
        )
        .session;
        let largest: Vec<u8> = (0..MAX_PAYLOAD - 8).map(|i| (i * 13) as u8).collect();
        let wrapped = call(
            &stream,
            &Frame::request(Op::WrapKey, 0, 2, sid, largest.clone()),
        );
        assert_eq!(
            wrapped.status(),
            Some(Status::Ok),
            "{:?}",
            wrapped.error_body()
        );
        assert_eq!(wrapped.payload.len(), MAX_PAYLOAD);
        let unwrapped = call(
            &stream,
            &Frame::request(Op::UnwrapKey, 0, 3, sid, wrapped.payload),
        );
        assert!(unwrapped.payload == largest);
        let reply = call(
            &stream,
            &Frame::request(Op::WrapKey, 0, 4, sid, vec![0; MAX_PAYLOAD]),
        );
        assert_eq!(
            reply.error_body(),
            Some((ErrorCode::Malformed, MAX_PAYLOAD as u32))
        );
        let reply = call(&stream, &Frame::request(Op::Ping, 0, 5, sid, vec![1]));
        assert_eq!((reply.corr, reply.payload), (5, vec![1]));
        server.shutdown();
    }
}

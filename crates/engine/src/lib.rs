//! Multi-core throughput engine for the low device occupation Rijndael IP.
//!
//! The DATE 2003 paper's pitch is that one AES-128 core is *small* — about
//! a tenth of an EP20K300E — so a deployment that needs more than the
//! single-core ~250 Mbps stamps down a farm of cores and scales linearly.
//! This crate models that system level:
//!
//! * [`backend`] — the [`Backend`] trait putting the three hardware
//!   devices (encrypt / decrypt / combined, behind their cycle-accurate
//!   bus drivers, as [`IpCoreBackend`]) and every software cipher (one
//!   [`SoftwareBackend`] over any [`rijndael::BatchCipher`]) behind one
//!   fallible, cost-accounted face with one batch method,
//!   [`Backend::process_batch`]; and [`BackendCipher`], which lends a
//!   backend back out as a cipher;
//! * [`scheduler`] — the paper's cycle model: the [`Engine`], assembled
//!   by [`EngineBuilder`], a bounded job queue with backpressure
//!   ([`Engine::try_submit`] returns [`SubmitError::Busy`]) that shards
//!   parallel modes (ECB, CTR) across every capable core and routes
//!   chained modes (CBC, CFB, OFB) to one core, all in virtual time. It
//!   drives the scaling report and the equivalence suite; the service
//!   does not use it;
//! * [`pool`] — the executor the service runs on: one [`Farm`] of OS
//!   worker threads (one per core, all taking from one FIFO run
//!   queue) shared by keyed [`WorkerPool`] handles whose jobs carry
//!   their key, completions over each handle's channel, a caller-runs
//!   lane for work too small to hand to another thread (an engine job
//!   with [`WorkerPool::run_here`], anything over the cipher traits with
//!   [`WorkerPool::run_here_with`]), and an elastic control plane ([`Farm::add_core`] /
//!   [`Farm::remove_core`] / [`Farm::swap_core`], plus telemetry-driven
//!   [`Farm::autoscale_tick`] under a [`ResizePolicy`]). It shares the
//!   engine's shard planner and span executor;
//! * [`stats`] — [`FarmStats`]: Table-2-style per-core and farm-aggregate
//!   figures (blocks, cycles, occupancy, cycles/block) derived from the
//!   telemetry snapshot rather than a private counter path.
//!
//! Failures come in two types, one per boundary: [`SubmitError`] when a
//! job is refused at submission (it holds no queue slot), [`JobError`]
//! when an accepted job fails.
//!
//! Engines and farms publish their activity into a [`telemetry::Registry`]
//! (their own, or a shared one passed to [`EngineBuilder::registry`] /
//! [`PoolBuilder::registry`]):
//! per-core counters under `engine.core.<index>.<backend>.<field>`,
//! submit/completion counters, queue-depth gauges, and latency
//! histograms. Benches and the service's `GET_STATS` endpoint read the
//! same snapshots.
//!
//! Hardware time is virtual: every core carries its own cycle counter,
//! the cores clock concurrently, and farm wall time is the maximum over
//! them. A saturated core sustains one block per
//! [`LATENCY_CYCLES`](aes_ip::core::LATENCY_CYCLES) thanks to the
//! decoupled `Data_In`/`Out` bus, so `k` cores approach `50 / k`
//! wall cycles per block.
//!
//! # Examples
//!
//! ```
//! use engine::{BackendSpec, Engine, Mode};
//!
//! let key = [0u8; 16];
//! // Paper Table 2 scaled out: four combined cores.
//! let mut farm = Engine::with_farm(&key, &[BackendSpec::EncDecCore; 4], 8);
//! let id = farm.try_submit(Mode::Ctr([0; 16]), vec![0u8; 64 * 16]).unwrap();
//! let outputs = farm.run();
//! assert!(outputs[0].data.is_ok());
//!
//! let s = farm.stats();
//! assert_eq!(s.total_blocks(), 64);
//! // 16 blocks per core, pipelined: far below 50 cycles/block aggregate.
//! assert!(s.cycles_per_block() < 50.0 / 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod pool;
pub mod scheduler;
pub mod stats;

pub use crate::backend::{
    Backend, BackendCipher, BackendError, BackendSpec, IpCoreBackend, PacedBackend, SoftwareBackend,
};
pub use crate::pool::{Farm, Notifier, PoolBuilder, ResizeAction, ResizePolicy, WorkerPool};
pub use crate::scheduler::{Engine, EngineBuilder, JobError, JobId, JobOutput, Mode, SubmitError};
pub use crate::stats::{CoreStats, FarmStats};

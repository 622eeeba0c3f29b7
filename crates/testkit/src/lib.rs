//! Zero-dependency test and benchmark kit for the Rijndael IP workspace.
//!
//! The workspace builds **hermetically**: no registry dependencies, so
//! `cargo build --offline` succeeds on a machine that has never seen a
//! crates.io index. This crate vendors the three capabilities the test
//! and bench suites previously pulled from the registry:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256** seeded via
//!   SplitMix64) replacing `rand` at every call site;
//! * [`prop`] — a property-test harness ([`forall!`]) running N
//!   deterministic cases with seed reporting and bisection shrinking,
//!   replacing `proptest`;
//! * [`bench`](mod@bench) — a warmup + median-of-K micro-benchmark harness with
//!   JSON output, replacing `criterion`;
//! * [`json`] — the hand-rolled JSON writer the bench harness and the
//!   telemetry snapshots share, and the one JSON reader ([`json::Json`])
//!   the telemetry snapshots and the gate's `json_check` parse with
//!   (no `serde`).
//!
//! Determinism is the point: every random workload in the repository is
//! reproducible bit-for-bit from a printed seed, which is what the
//! paper-reproduction's equivalence story (software reference ≡
//! cycle-accurate IP ≡ gate-level netlist) requires of its stimulus.

#![forbid(unsafe_code)]

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;

pub use prop::{any, vec_of};
pub use rng::Rng;

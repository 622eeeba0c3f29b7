//! The pieces of the `perf_ledger` benchmark; the binary's module doc
//! describes the workloads and metrics.

pub mod check;
pub mod fleet;
pub mod host;
pub mod ledger;
pub mod load;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

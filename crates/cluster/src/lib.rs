//! Sharded multi-node cluster behind one client.
//!
//! This crate turns N independent `service` processes into one logical
//! crypto service, entirely client-side — the nodes need no knowledge
//! of each other, no gossip and no shared state. The pieces:
//!
//! * [`ring`] — consistent-hash placement with virtual nodes: balanced,
//!   deterministic, and drain-stable (removing a node only remaps the
//!   sessions it held);
//! * [`router`] — [`ClusterClient`], the one-client façade implementing
//!   [`service::Transport`]: session placement, wrapped-key
//!   distribution (a raw session key reaches exactly one node; every
//!   other node is keyed from a KEK-wrapped blob), drain/migration
//!   without losing accepted work, typed `NodeUnreachable` failure,
//!   `GET_STATS`-driven health supervision, and the fleet `GET_STATS`
//!   document: every node's snapshot parsed back with
//!   [`telemetry::Snapshot::from_json`] and summed by
//!   [`telemetry::Snapshot::merge`], histograms included;
//! * [`node`] — running and supervising node child processes (the
//!   `cluster_node` binary, handshake parsing, SIGKILL for node-loss
//!   tests).
//!
//! Everything is std-only and hermetic: tests and benches spawn real
//! node processes on loopback ephemeral ports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod ring;
pub mod router;

pub use node::{run_node, NodeProcess, LISTENING_PREFIX};
pub use ring::HashRing;
pub use router::{ClusterClient, NodeHealth, NodeState};

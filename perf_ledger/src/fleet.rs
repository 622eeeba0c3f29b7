//! The nodes under test: child processes of this same binary.
//!
//! A node is the bench re-executed with `--node`; it serves the frozen
//! [`node_config`] on an ephemeral loopback port through
//! `cluster::run_node`, prints the handshake line and exits when its
//! stdin closes. Every round spawns fresh nodes, so no round inherits
//! pool threads, sessions or instruments from another.

use std::net::SocketAddr;
use std::process::Command;
use std::time::{Duration, Instant};

use cluster::NodeProcess;
use engine::BackendSpec;
use service::{Client, ServiceConfig};

use crate::host;
use crate::stats::ServerStats;

/// Pause between a node's handshake line and the first connection.
const SETTLE: Duration = Duration::from_millis(2);

/// The flag that turns this binary into a node.
pub const NODE_FLAG: &str = "--node";

/// The node configuration every workload runs against: one event
/// thread and a two-slot dispatched farm, sizing the node to a 2-CPU
/// host; every other field keeps its default.
#[must_use]
pub fn node_config() -> ServiceConfig {
    ServiceConfig::builder()
        .event_threads(1)
        .farm(&[BackendSpec::Auto; 2])
        .build()
        .expect("the frozen node config is valid")
}

/// Child-process entry point: move off the generator's CPU, then serve
/// until stdin closes.
///
/// # Errors
///
/// Bind and handshake failures.
pub fn run_as_node() -> std::io::Result<()> {
    host::avoid_inherited_cpus();
    cluster::run_node(node_config(), "127.0.0.1:0")
}

/// Running nodes plus what it took to make them ready.
#[derive(Debug)]
pub struct Fleet {
    nodes: Vec<NodeProcess>,
    /// The nodes' listening addresses.
    pub addrs: Vec<SocketAddr>,
    /// From the first spawn to the last node's first `SET_KEY` reply.
    pub setup: Duration,
    /// Each node's instruments right after that reply.
    pub before: Vec<ServerStats>,
}

impl Fleet {
    /// Spawns `n` nodes and keys one session on each.
    ///
    /// # Errors
    ///
    /// A message naming the step that failed; nodes already spawned are
    /// killed on the way out.
    pub fn start(n: usize, key: &[u8; 16]) -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let started = Instant::now();
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let mut command = Command::new(&exe);
            command.arg(NODE_FLAG);
            nodes.push(NodeProcess::spawn(command).map_err(|e| format!("node spawn: {e}"))?);
        }
        let addrs: Vec<SocketAddr> = nodes.iter().map(NodeProcess::addr).collect();
        // Give the node's event loop time to reach its first poll, so
        // the first connection always waits for the same wake-up rather
        // than sometimes arriving before the loop has started.
        std::thread::sleep(SETTLE);
        let mut clients = Vec::with_capacity(n);
        for &addr in &addrs {
            let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            client
                .set_key(key)
                .map_err(|e| format!("first SET_KEY on {addr}: {e}"))?;
            clients.push(client);
        }
        let setup = started.elapsed();
        let before = clients
            .iter_mut()
            .map(read_stats)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet {
            nodes,
            addrs,
            setup,
            before,
        })
    }

    /// Each node's instruments now, read over a fresh connection (one
    /// at a time, so the audit never holds more than one socket).
    fn stats(&self) -> Result<Vec<ServerStats>, String> {
        self.addrs
            .iter()
            .map(|&addr| {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("stats connect {addr}: {e}"))?;
                read_stats(&mut client)
            })
            .collect()
    }

    /// Each node's activity since [`Fleet::start`].
    ///
    /// # Errors
    ///
    /// As [`Fleet::stats`].
    pub fn window(&self) -> Result<Vec<ServerStats>, String> {
        Ok(self
            .stats()?
            .iter()
            .zip(&self.before)
            .map(|(now, then)| now.since(then))
            .collect())
    }

    /// Closes every node's stdin and waits for it to exit.
    pub fn stop(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// One `GET_STATS` round trip, parsed.
///
/// # Errors
///
/// Transport, service or parse failures, as a message.
fn read_stats(client: &mut Client) -> Result<ServerStats, String> {
    let doc = client.stats().map_err(|e| format!("GET_STATS: {e}"))?;
    ServerStats::parse(&doc)
}

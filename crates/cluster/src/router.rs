//! The cluster router: N nodes behind one [`Transport`].
//!
//! [`ClusterClient`] turns a fleet of `service` nodes into one logical
//! crypto service. The moving parts:
//!
//! * **placement** — every session gets a label, and the label's home
//!   node comes off a consistent-hash [`HashRing`] filtered by node
//!   state (`Up` / `Draining` / `Down`), so placement is deterministic
//!   and drain-stable;
//! * **key distribution** — each session's raw key crosses the wire to
//!   exactly one node (its first home). That node wraps it under the
//!   per-cluster KEK (`WRAP_KEY` on a KEK-keyed session) and re-keys
//!   itself from the blob (`SET_KEY_WRAPPED`). The router keeps the
//!   blob **chain** — the KEK-wrapped key, plus any caller-supplied
//!   re-wrap blobs — and replays it to re-create the session anywhere:
//!   migration and reconnect move only wrapped material;
//! * **draining** — [`ClusterClient::drain`] marks a node draining (no
//!   new sessions), collects every in-flight pipelined reply from its
//!   sessions (parking them for the caller's `collect_next`), then
//!   re-establishes each session on its ring successor by chain
//!   replay. Nothing accepted is lost; the node can then be stopped;
//! * **failure** — a connection error triggers one reconnect attempt
//!   with chain replay on the same node; if the node stays dead it is
//!   marked `Down` and the call returns the typed
//!   [`ClientError::NodeUnreachable`] instead of a raw I/O error.
//!   If the dead connection still owed pipelined replies, the fresh
//!   connection is installed but the call is not replayed: it returns
//!   the error that found the connection dead, so no accepted job
//!   vanishes without an answer. Sessions on other nodes are untouched.
//!
//! The router implements only [`Transport`]'s required core; the typed
//! ops are the trait's provided methods over [`Transport::call`], the
//! same codec a single-node [`Client`] runs, and each session's
//! connection is one such `Client`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use service::{Client, ClientError, Frame, Op, PipelinedJob, Transport};
use telemetry::{Registry, Snapshot};

use crate::ring::HashRing;

/// Availability of one cluster node, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Accepting new sessions and serving existing ones.
    Up,
    /// Serving existing traffic but closed to new session placement
    /// (set by [`ClusterClient::drain`]).
    Draining,
    /// Unreachable after a failed reconnect; excluded from placement
    /// until [`ClusterClient::restore`].
    Down,
}

/// One node's health sample from [`ClusterClient::poll_health`].
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// The node's index in the cluster.
    pub node: usize,
    /// The router's availability verdict after this poll.
    pub state: NodeState,
    /// Whether `GET_STATS` answered with a `telemetry/1` document on
    /// this poll.
    pub reachable: bool,
    /// The node's `service.connections.active` gauge, when reachable.
    pub active_connections: Option<i64>,
    /// The node's `service.pipeline.inflight` gauge, when reachable.
    pub inflight: Option<i64>,
}

struct Node {
    addr: SocketAddr,
    state: NodeState,
}

struct SessionEntry {
    /// The node currently holding this session.
    node: usize,
    /// The dedicated connection, already keyed for the session.
    client: Client,
    /// Wrapped-key chain: element 0 is the session key wrapped under
    /// the cluster KEK; each later element was wrapped under the key
    /// the previous element unwraps to (caller re-keys through
    /// `set_key_wrapped`). Replaying KEK ‖ chain on a fresh connection
    /// reconstructs the session without raw key bytes.
    chain: Vec<Vec<u8>>,
    /// Completions collected on the caller's behalf during a drain,
    /// owed to the next `collect_next` calls.
    parked: Vec<PipelinedJob>,
}

/// A fleet of service nodes behind one client. See the [module
/// docs](self) for the design; see [`Transport`] for the API surface.
pub struct ClusterClient {
    nodes: Vec<Node>,
    ring: HashRing,
    kek: Vec<u8>,
    sessions: BTreeMap<u64, SessionEntry>,
    next_label: u64,
    current: Option<u64>,
}

impl ClusterClient {
    /// Builds a router over `addrs` with the per-cluster KEK, probing
    /// every node with a ping round trip so dead addresses fail fast.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] for an empty node list or a KEK that
    /// is not an AES key length; [`ClientError::NodeUnreachable`] for
    /// a node that does not answer the probe.
    pub fn connect(addrs: &[SocketAddr], kek: &[u8]) -> Result<ClusterClient, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Protocol(
                "a cluster needs at least one node".into(),
            ));
        }
        if !matches!(kek.len(), 16 | 24 | 32) {
            return Err(ClientError::Protocol(format!(
                "KEK must be 16/24/32 bytes, got {}",
                kek.len()
            )));
        }
        let mut cluster = ClusterClient {
            nodes: addrs
                .iter()
                .map(|&addr| Node {
                    addr,
                    state: NodeState::Up,
                })
                .collect(),
            ring: HashRing::new(addrs.len()),
            kek: kek.to_vec(),
            sessions: BTreeMap::new(),
            next_label: 0,
            current: None,
        };
        for node in 0..cluster.nodes.len() {
            let mut probe = cluster.connect_node(node)?;
            probe
                .ping(b"cluster-probe")
                .map_err(|_| ClientError::NodeUnreachable { node })?;
        }
        Ok(cluster)
    }

    /// Number of nodes (any state).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The router's current verdict for `node`.
    #[must_use]
    pub fn node_state(&self, node: usize) -> NodeState {
        self.nodes[node].state
    }

    /// Live sessions across the cluster.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The node currently holding session `label`.
    #[must_use]
    pub fn session_node(&self, label: u64) -> Option<usize> {
        self.sessions.get(&label).map(|e| e.node)
    }

    /// The session Transport calls route to (the most recently opened
    /// or [`ClusterClient::use_session`]-selected one).
    #[must_use]
    pub fn current_session(&self) -> Option<u64> {
        self.current
    }

    /// Routes subsequent Transport calls to session `label`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] for an unknown label.
    pub fn use_session(&mut self, label: u64) -> Result<(), ClientError> {
        if !self.sessions.contains_key(&label) {
            return Err(ClientError::Protocol(format!("unknown session {label}")));
        }
        self.current = Some(label);
        Ok(())
    }

    /// Connects to a node, retrying once; a second failure marks the
    /// node `Down` and surfaces the typed verdict.
    fn connect_node(&mut self, node: usize) -> Result<Client, ClientError> {
        let addr = self.nodes[node].addr;
        if let Ok(client) = Client::connect(addr) {
            return Ok(client);
        }
        thread::sleep(Duration::from_millis(50));
        match Client::connect(addr) {
            Ok(client) => Ok(client),
            Err(_) => {
                self.nodes[node].state = NodeState::Down;
                Err(ClientError::NodeUnreachable { node })
            }
        }
    }

    /// Connects to `node` and replays KEK ‖ `chain` to reconstruct a
    /// session there. Only wrapped material crosses the wire.
    fn establish(&mut self, node: usize, chain: &[Vec<u8>]) -> Result<Client, ClientError> {
        let mut client = self.connect_node(node)?;
        client.set_key(&self.kek)?;
        for blob in chain {
            client.set_key_wrapped(blob)?;
        }
        Ok(client)
    }

    /// The ring home for `label` among nodes in state `Up`.
    fn place(&self, label: u64) -> Result<usize, ClientError> {
        let nodes = &self.nodes;
        self.ring
            .route_where(label, |n| nodes[n].state == NodeState::Up)
            .ok_or_else(|| ClientError::Protocol("no Up node available for placement".into()))
    }

    /// Opens a new session keyed with `key` and makes it current.
    ///
    /// The raw key crosses the wire exactly once, to the session's
    /// home node: the home wraps it under the KEK (giving the router
    /// the migration blob) and immediately re-keys itself from that
    /// blob. Returns the session label.
    ///
    /// # Errors
    ///
    /// Typed service errors (`BadKeyLength`, ...),
    /// [`ClientError::NodeUnreachable`], or transport failures.
    pub fn open_session(&mut self, key: &[u8]) -> Result<u64, ClientError> {
        let label = self.next_label;
        let node = self.place(label)?;
        let mut client = self.connect_node(node)?;
        // KEK session first: WRAP_KEY under the KEK produces the blob
        // every *other* node will be keyed from.
        client.set_key(&self.kek)?;
        let wrapped = client.wrap_key(key)?;
        // The home node itself re-keys from the blob too — the raw key
        // was only ever SET_KEY'd... never: it rode WRAP_KEY's payload,
        // to this one node, and nowhere else.
        client.set_key_wrapped(&wrapped)?;
        self.next_label += 1;
        self.sessions.insert(
            label,
            SessionEntry {
                node,
                client,
                chain: vec![wrapped],
                parked: Vec::new(),
            },
        );
        self.current = Some(label);
        Ok(label)
    }

    /// Runs `f` against the current session's connection, transparently
    /// retrying once through a reconnect + chain replay on a transport
    /// error. A node that stays dead surfaces as
    /// [`ClientError::NodeUnreachable`]. When the dead connection still
    /// owed pipelined replies, the fresh connection is installed but `f`
    /// is not replayed: those jobs are lost, and the error that found the
    /// connection dead says so instead of a replay on a connection that
    /// owes nothing.
    fn with_current<R>(
        &mut self,
        f: impl Fn(&mut Client) -> Result<R, ClientError>,
    ) -> Result<R, ClientError> {
        let label = self.current.ok_or_else(|| {
            ClientError::Protocol("no cluster session — call set_key first".into())
        })?;
        let mut entry = self
            .sessions
            .remove(&label)
            .expect("current always names a live session");
        let mut result = f(&mut entry.client);
        if matches!(result, Err(ClientError::Io(_) | ClientError::Recv(_))) {
            match self.establish(entry.node, &entry.chain) {
                Ok(fresh) => {
                    let owed = entry.client.in_flight() > 0;
                    entry.client = fresh;
                    if !owed {
                        result = f(&mut entry.client);
                    }
                }
                Err(e) => {
                    self.sessions.insert(label, entry);
                    return Err(e);
                }
            }
        }
        self.sessions.insert(label, entry);
        result
    }

    /// Drains `node`: marks it `Draining` (no new sessions land
    /// there), then migrates every session it holds to that session's
    /// ring successor — in-flight pipelined replies are collected
    /// first (and parked for `collect_next`), the successor is keyed
    /// by chain replay, and the old connection is dropped. Returns how
    /// many sessions moved.
    ///
    /// # Errors
    ///
    /// Typed service errors or [`ClientError::NodeUnreachable`] from
    /// the successor; the drain stops at the first failure with the
    /// remaining sessions still on the draining node.
    pub fn drain(&mut self, node: usize) -> Result<usize, ClientError> {
        self.nodes[node].state = NodeState::Draining;
        let homed: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, e)| e.node == node)
            .map(|(&label, _)| label)
            .collect();
        let mut moved = 0;
        for label in homed {
            let mut entry = self
                .sessions
                .remove(&label)
                .expect("label collected from the live map");
            // Nothing accepted may be lost: pull every in-flight
            // pipelined completion off the old connection before it
            // goes away, parking each as it arrives so a failure part
            // way still owes the caller the ones already read.
            while entry.client.in_flight() > 0 {
                match entry.client.collect_next() {
                    Ok(job) => entry.parked.push(job),
                    Err(e) => {
                        self.sessions.insert(label, entry);
                        return Err(e);
                    }
                }
            }
            let target = match self.place(label) {
                Ok(t) => t,
                Err(e) => {
                    self.sessions.insert(label, entry);
                    return Err(e);
                }
            };
            match self.establish(target, &entry.chain) {
                Ok(fresh) => {
                    entry.client = fresh;
                    entry.node = target;
                    moved += 1;
                    self.sessions.insert(label, entry);
                }
                Err(e) => {
                    self.sessions.insert(label, entry);
                    return Err(e);
                }
            }
        }
        Ok(moved)
    }

    /// Returns a `Down` or `Draining` node to placement rotation.
    /// Existing sessions stay where they are; the ring simply starts
    /// offering the node to new labels again.
    pub fn restore(&mut self, node: usize) {
        self.nodes[node].state = NodeState::Up;
    }

    /// Polls every non-`Down` node's `GET_STATS` over a transient
    /// connection: reachability, the active-connection gauge and the
    /// pipeline-inflight gauge. A node that does not answer with a
    /// `telemetry/1` document is marked `Down` (a `Draining` node that
    /// answers stays `Draining`).
    #[must_use]
    pub fn poll_health(&mut self) -> Vec<NodeHealth> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in 0..self.nodes.len() {
            let snap = self.node_snapshot(node);
            if snap.is_none() {
                self.nodes[node].state = NodeState::Down;
            }
            out.push(NodeHealth {
                node,
                state: self.nodes[node].state,
                reachable: snap.is_some(),
                active_connections: snap
                    .as_ref()
                    .and_then(|s| s.gauge("service.connections.active")),
                inflight: snap.and_then(|s| s.gauge("service.pipeline.inflight")),
            });
        }
        out
    }

    /// `node`'s `GET_STATS` over a transient connection, parsed; `None`
    /// for a `Down` node, one that does not answer, or a reply that is
    /// not a `telemetry/1` document.
    fn node_snapshot(&self, node: usize) -> Option<Snapshot> {
        if self.nodes[node].state == NodeState::Down {
            return None;
        }
        let json = Client::connect(self.nodes[node].addr).ok()?.stats().ok()?;
        Snapshot::from_json(&json).ok()
    }

    /// A connection to any `Up` node for session-less ops (`PING`,
    /// `GET_STATS`).
    fn any_up(&mut self) -> Result<Client, ClientError> {
        let candidates: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].state == NodeState::Up)
            .collect();
        for node in candidates {
            if let Ok(client) = Client::connect(self.nodes[node].addr) {
                return Ok(client);
            }
        }
        Err(ClientError::Protocol("no Up node reachable".into()))
    }
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("nodes", &self.nodes.len())
            .field("sessions", &self.sessions.len())
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

/// The cluster's core: every exchange routes to the current session's
/// home node, under the reconnect rule of the [module docs](self); the
/// typed ops are [`Transport`]'s own, provided on top of
/// [`Transport::call`].
impl Transport for ClusterClient {
    /// Opens a **new cluster session** (placement, KEK wrap, re-key)
    /// and makes it current — the cluster analogue of a fresh
    /// `SET_KEY`. Returns the home node's wire session id.
    fn set_key(&mut self, key: &[u8]) -> Result<u32, ClientError> {
        let label = self.open_session(key)?;
        Ok(self.sessions[&label].client.session())
    }

    /// Re-keys the current session and extends its chain, so migration
    /// and reconnect replay the re-key.
    fn set_key_wrapped(&mut self, wrapped: &[u8]) -> Result<u32, ClientError> {
        let sid = self.with_current(|c| c.set_key_wrapped(wrapped))?;
        let label = self.current.expect("with_current verified this");
        if let Some(entry) = self.sessions.get_mut(&label) {
            entry.chain.push(wrapped.to_vec());
        }
        Ok(sid)
    }

    /// Routes to the current session's node. Before any session is
    /// open, `PING` and `GET_STATS` go to any `Up` node. A re-key must
    /// go through [`Transport::set_key`] or [`Transport::set_key_wrapped`],
    /// which keep the chain that migration replays, so `call` refuses
    /// `SET_KEY` and `SET_KEY_WRAPPED`.
    fn call(&mut self, op: Op, parts: &[&[u8]]) -> Result<Frame, ClientError> {
        match op {
            Op::SetKey | Op::SetKeyWrapped => Err(ClientError::Protocol(format!(
                "{} on a cluster goes through set_key / set_key_wrapped",
                op.name()
            ))),
            Op::Ping | Op::GetStats if self.current.is_none() => self.any_up()?.call(op, parts),
            _ => self.with_current(|c| c.call(op, parts)),
        }
    }

    /// Cluster-wide: one `telemetry/1` document for the fleet, not one
    /// node's. Every reachable node's reply is parsed back into a
    /// [`Snapshot`] and the snapshots are summed by [`Snapshot::merge`]:
    /// counters, gauges and histogram buckets add by name, so fleet
    /// histograms are exact. The document also carries a
    /// `cluster.node.<i>.up` gauge per node and a
    /// `cluster.nodes.reachable` gauge. Never fails outright: a node
    /// that is `Down`, does not answer, or answers with a reply that
    /// does not parse reads `up = 0`.
    fn stats(&mut self) -> Result<String, ClientError> {
        let reach = Registry::new();
        let mut parts = Vec::with_capacity(self.nodes.len() + 1);
        for node in 0..self.nodes.len() {
            let snap = self.node_snapshot(node);
            reach
                .gauge(&format!("cluster.node.{node}.up"))
                .set(i64::from(snap.is_some()));
            parts.extend(snap);
        }
        reach
            .gauge("cluster.nodes.reachable")
            .set(parts.len() as i64);
        parts.push(reach.snapshot());
        Ok(Snapshot::merge(&parts).to_json())
    }

    fn pipeline(&mut self, op: Op, iv: Option<&[u8; 16]>, data: &[u8]) -> Result<u32, ClientError> {
        self.with_current(|c| c.pipeline(op, iv, data))
    }

    /// Completions rescued during a drain come first, in their original
    /// arrival order; then the current session's connection.
    fn collect_next(&mut self) -> Result<PipelinedJob, ClientError> {
        if let Some(entry) = self.current.and_then(|label| self.sessions.get_mut(&label)) {
            if !entry.parked.is_empty() {
                return Ok(entry.parked.remove(0));
            }
        }
        self.with_current(|c| c.collect_next())
    }

    fn in_flight(&self) -> usize {
        let Some(label) = self.current else { return 0 };
        self.sessions
            .get(&label)
            .map_or(0, |e| e.parked.len() + e.client.in_flight())
    }
}

//! End-to-end cluster tests: real `service` nodes (in-process handles
//! and real child processes), real sockets, one [`ClusterClient`].
//!
//! The load-bearing assertions:
//!
//! * the **same KAT conversation** passes through a plain [`Client`]
//!   and through a 3-node [`ClusterClient`], both as `&mut dyn
//!   Transport` — the cluster is a drop-in transport, not a lookalike;
//! * draining a node under pipelined load **loses nothing** and the
//!   migrated session keeps producing the same CTR stream — the key
//!   really moved;
//! * a byte-sniffing proxy in front of every node proves the **raw
//!   session key crossed the wire to exactly one node**; the migration
//!   target saw only wrapped material;
//! * SIGKILL-ing a node makes only *that node's* sessions fail, with
//!   the typed [`ClientError::NodeUnreachable`] verdict;
//! * a node that dies and comes back on its address while a pipelined
//!   job is in flight costs that job a typed error, never a silent
//!   loss, and the session then serves on the respawned node;
//! * a drain that fails part way still delivers the replies it had
//!   already read;
//! * the fleet `GET_STATS` document sums every node's counters and
//!   carries histograms equal to the exact merge of the nodes' own.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::thread;

use rijndael_cluster::{ClusterClient, NodeProcess, NodeState};
use service::{Client, ClientError, Frame, Op, Server, ServiceConfig, ServiceHandle, Transport};
use telemetry::Snapshot;

const KEK: [u8; 16] = *b"cluster-kek-0123";

fn spawn_nodes(n: usize) -> (Vec<ServiceHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let config = ServiceConfig::builder().build().expect("default config");
        let handle = Server::new(config)
            .spawn("127.0.0.1:0")
            .expect("bind node on loopback");
        addrs.push(handle.local_addr());
        handles.push(handle);
    }
    (handles, addrs)
}

/// The shared conversation both transports must pass verbatim: FIPS-197
/// ECB known answer, CBC/CTR/XTS roundtrips, CMAC, GCM seal/open, key
/// wrap, ping.
fn kat_conversation(t: &mut dyn Transport) {
    let key: [u8; 16] = (0..16).collect::<Vec<u8>>().try_into().unwrap();
    t.set_key(&key).expect("session opens");

    // FIPS-197 appendix C.1.
    let pt = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let ct = t.ecb_encrypt(&pt).expect("ecb");
    assert_eq!(
        ct,
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a
        ]
    );
    assert_eq!(t.ecb_decrypt(&ct).expect("ecb dec"), pt);

    let iv = [7u8; 16];
    let msg = [0x5au8; 48];
    let cbc = t.cbc_encrypt(&iv, &msg).expect("cbc enc");
    assert_eq!(t.cbc_decrypt(&iv, &cbc).expect("cbc dec"), msg);

    let ctr0 = [1u8; 16];
    let stream = t.ctr_apply(&ctr0, b"ctr is an involution").expect("ctr");
    assert_eq!(
        t.ctr_apply(&ctr0, &stream).expect("ctr back"),
        b"ctr is an involution"
    );

    let tag = t.cmac_tag(b"authenticate me").expect("cmac");
    assert!(t.cmac_verify(b"authenticate me", &tag).expect("cmac ok"));
    assert!(!t.cmac_verify(b"authenticate ME", &tag).expect("cmac bad"));

    let nonce = [9u8; 12];
    let sealed = t.seal(&nonce, b"aad", b"secret payload").expect("seal");
    assert_eq!(
        t.open(&nonce, b"aad", &sealed).expect("open"),
        Some(b"secret payload".to_vec())
    );
    assert_eq!(
        t.open(&nonce, b"tampered", &sealed).expect("open bad"),
        None
    );

    let inner = [0x42u8; 16];
    let wrapped = t.wrap_key(&inner).expect("wrap");
    assert_eq!(
        t.unwrap_key(&wrapped).expect("unwrap"),
        Some(inner.to_vec())
    );

    let sectors = vec![0xA5u8; 3 * 32];
    let xts = t.xts_encrypt(10, 32, &sectors).expect("xts enc");
    assert_ne!(xts, sectors);
    assert_eq!(t.xts_decrypt(10, 32, &xts).expect("xts dec"), sectors);

    assert_eq!(t.ping(b"hello?").expect("ping"), b"hello?");
}

#[test]
fn the_same_kat_suite_passes_through_client_and_cluster() {
    let (handles, addrs) = spawn_nodes(3);

    let mut single = Client::connect(addrs[0]).expect("direct client connects");
    kat_conversation(&mut single);

    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");
    kat_conversation(&mut fleet);

    drop(fleet);
    drop(single);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn sessions_spread_across_all_nodes() {
    let (handles, addrs) = spawn_nodes(3);
    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");

    let mut counts = [0usize; 3];
    for i in 0..24u8 {
        let key = [i; 16];
        let label = fleet.open_session(&key).expect("session opens");
        counts[fleet.session_node(label).expect("placed")] += 1;
    }
    assert_eq!(fleet.session_count(), 24);
    for (node, &share) in counts.iter().enumerate() {
        assert!(share > 0, "node {node} received no sessions: {counts:?}");
    }

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

/// A byte-sniffing TCP proxy: forwards loopback connections to
/// `backend` and records every client→backend byte.
struct TapProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<Vec<u8>>>,
}

impl TapProxy {
    fn spawn(backend: SocketAddr) -> TapProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().expect("proxy addr");
        let upstream = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&upstream);
        thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(client) = conn else { break };
                let Ok(server) = TcpStream::connect(backend) else {
                    continue;
                };
                let tap = Arc::clone(&tap);
                let (mut c_read, mut s_write) = (
                    client.try_clone().expect("clone"),
                    server.try_clone().expect("clone"),
                );
                thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = c_read.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        tap.lock().expect("tap lock").extend_from_slice(&buf[..n]);
                        if s_write.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = s_write.shutdown(std::net::Shutdown::Write);
                });
                let (mut s_read, mut c_write) = (server, client);
                thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = s_read.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        if c_write.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = c_write.shutdown(std::net::Shutdown::Write);
                });
            }
        });
        TapProxy { addr, upstream }
    }

    fn saw(&self, needle: &[u8]) -> bool {
        let bytes = self.upstream.lock().expect("tap lock");
        bytes.windows(needle.len()).any(|w| w == needle)
    }
}

/// SP 800-38A §B.1 standard incrementing function on a whole counter
/// block, advanced `blocks` times.
fn advance_counter(mut ctr: [u8; 16], blocks: u64) -> [u8; 16] {
    for _ in 0..blocks {
        for byte in ctr.iter_mut().rev() {
            let (next, carry) = byte.overflowing_add(1);
            *byte = next;
            if !carry {
                break;
            }
        }
    }
    ctr
}

#[test]
fn drain_migrates_sessions_without_losing_work_or_resending_raw_keys() {
    let (handles, node_addrs) = spawn_nodes(3);
    let proxies: Vec<TapProxy> = node_addrs.iter().map(|&a| TapProxy::spawn(a)).collect();
    let proxy_addrs: Vec<SocketAddr> = proxies.iter().map(|p| p.addr).collect();

    let mut fleet = ClusterClient::connect(&proxy_addrs, &KEK).expect("cluster connects");

    // A distinctive raw key the taps can search for.
    let raw_key: [u8; 16] = *b"\xDE\xAD\xBE\xEF raw key! \xCA\xFE";
    let label = fleet.open_session(&raw_key).expect("session opens");
    let home = fleet.session_node(label).expect("session placed");

    // First half of a CTR stream before the drain.
    let ctr0 = [0x10u8; 16];
    let chunk_a = [0x33u8; 64];
    let chunk_b = [0x44u8; 64];
    let ct_a = fleet.ctr_apply(&ctr0, &chunk_a).expect("pre-drain ctr");

    // Pipelined work in flight across the drain.
    let depth = 12u32;
    let mut corrs = Vec::new();
    for _ in 0..depth {
        corrs.push(
            fleet
                .pipeline(Op::EcbEncrypt, None, &[0u8; 16])
                .expect("pipeline submits"),
        );
    }
    assert_eq!(fleet.in_flight(), depth as usize);

    let moved = fleet.drain(home).expect("drain succeeds");
    assert_eq!(moved, 1, "the one session on the drained node migrates");
    assert_eq!(fleet.node_state(home), NodeState::Draining);
    let target = fleet.session_node(label).expect("still placed");
    assert_ne!(target, home, "session left the draining node");

    // Zero loss: every accepted pipelined job is delivered, once.
    let mut jobs = fleet.collect_all().expect("collect parked work");
    jobs.sort_by_key(|j| j.corr);
    let delivered: Vec<u32> = jobs.iter().map(|j| j.corr).collect();
    let mut expected = corrs.clone();
    expected.sort_unstable();
    assert_eq!(delivered, expected, "drain dropped or duplicated jobs");
    for job in &jobs {
        job.result.as_ref().expect("job completed ok");
    }
    assert_eq!(fleet.in_flight(), 0);

    // Key continuity: the second half of the CTR stream, produced by
    // the migrated session, matches an uninterrupted reference stream
    // under the same raw key on an untouched node.
    let ctr_b = advance_counter(ctr0, (chunk_a.len() / 16) as u64);
    let ct_b = fleet.ctr_apply(&ctr_b, &chunk_b).expect("post-drain ctr");
    let mut reference = Client::connect(node_addrs[target]).expect("reference client");
    reference.set_key(&raw_key).expect("reference key");
    let mut whole = chunk_a.to_vec();
    whole.extend_from_slice(&chunk_b);
    let ct_whole = reference.ctr_apply(&ctr0, &whole).expect("reference ctr");
    let mut spliced = ct_a.clone();
    spliced.extend_from_slice(&ct_b);
    assert_eq!(
        spliced, ct_whole,
        "migrated session does not continue the CTR stream"
    );

    // New sessions avoid the draining node...
    for i in 0..8u8 {
        let fresh = fleet.open_session(&[0x80 | i; 16]).expect("fresh session");
        assert_ne!(fleet.session_node(fresh), Some(home));
    }
    // ...until it is restored.
    fleet.restore(home);
    assert_eq!(fleet.node_state(home), NodeState::Up);

    // The raw session key crossed the wire to the home node only; the
    // migration target saw nothing but wrapped material. (The drained
    // session kept working there, so the target's tap is not empty.)
    assert!(
        proxies[home].saw(&raw_key),
        "home node never received the raw key it was meant to wrap"
    );
    for (i, proxy) in proxies.iter().enumerate() {
        if i != home {
            assert!(
                !proxy.saw(&raw_key),
                "raw session key leaked to node {i} (home was {home})"
            );
        }
    }
    assert!(
        !proxies[target].upstream.lock().expect("tap").is_empty(),
        "migration target saw no traffic at all"
    );

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn killing_a_node_fails_only_its_sessions_with_a_typed_verdict() {
    let exe = env!("CARGO_BIN_EXE_cluster_node");
    let mut nodes: Vec<NodeProcess> = (0..3)
        .map(|_| NodeProcess::spawn(Command::new(exe)).expect("node process starts"))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();

    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");

    // Open sessions until at least two nodes hold one.
    let mut labels = Vec::new();
    for i in 0..12u8 {
        labels.push(fleet.open_session(&[i + 1; 16]).expect("session opens"));
    }
    let victim = fleet.session_node(labels[0]).expect("placed");
    let survivor_label = *labels
        .iter()
        .find(|&&l| fleet.session_node(l) != Some(victim))
        .expect("12 sessions never all land on one of 3 nodes");

    nodes[victim].kill();

    // The victim's session fails with the typed verdict...
    fleet.use_session(labels[0]).expect("known label");
    let err = fleet
        .ecb_encrypt(&[0u8; 16])
        .expect_err("dead node cannot answer");
    match err {
        ClientError::NodeUnreachable { node } => assert_eq!(node, victim),
        other => panic!("expected NodeUnreachable, got {other:?}"),
    }
    assert_eq!(fleet.node_state(victim), NodeState::Down);

    // ...while sessions on surviving nodes keep working,
    fleet.use_session(survivor_label).expect("known label");
    let ct = fleet
        .ecb_encrypt(&[0u8; 16])
        .expect("survivor still serves");
    assert_eq!(ct.len(), 16);

    // and new sessions route around the corpse.
    let fresh = fleet
        .open_session(&[0x77; 16])
        .expect("placement avoids Down");
    assert_ne!(fleet.session_node(fresh), Some(victim));

    drop(fleet);
    for node in &mut nodes {
        node.kill();
    }
}

#[test]
fn a_reconnect_that_loses_pipelined_jobs_reports_them() {
    let exe = env!("CARGO_BIN_EXE_cluster_node");
    let mut node = NodeProcess::spawn(Command::new(exe)).expect("node process starts");
    let addr = node.addr();
    let mut fleet = ClusterClient::connect(&[addr], &KEK).expect("cluster connects");
    fleet.open_session(&[0x5E; 16]).expect("session opens");
    let want = fleet.ecb_encrypt(&[0xA7; 16]).expect("ECB before the kill");

    node.kill();
    let _node = NodeProcess::spawn({
        let mut respawn = Command::new(exe);
        respawn.arg(addr.to_string());
        respawn
    })
    .expect("node respawns on its address");

    // The dead connection still takes the write: the job is accepted.
    fleet
        .pipeline(Op::EcbEncrypt, None, &[0xA7; 16])
        .expect("the send succeeds");
    assert_eq!(fleet.in_flight(), 1);
    // Its reply died with the node; collecting it must say so.
    match fleet.collect_all() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected the transport error that found the node dead, got {other:?}"),
    }
    assert_eq!(fleet.in_flight(), 0);
    // The reconnect kept the session: the respawned node serves it.
    assert_eq!(
        fleet.ecb_encrypt(&[0xA7; 16]).expect("ECB after respawn"),
        want
    );
}

/// A proxy in front of `backend` that forwards the first `replies`
/// reply frames of every connection and then closes it, like a node
/// that dies part way through a pipeline.
fn cut_proxy(backend: SocketAddr, replies: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
    let addr = listener.local_addr().expect("proxy addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(backend) else {
                continue;
            };
            let (mut c_read, mut s_write) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
            );
            thread::spawn(move || {
                let _ = std::io::copy(&mut c_read, &mut s_write);
                let _ = s_write.shutdown(Shutdown::Write);
            });
            let (mut s_read, mut c_write) = (server, client);
            thread::spawn(move || {
                for _ in 0..replies {
                    let Ok(frame) = Frame::read_from(&mut s_read) else {
                        break;
                    };
                    if frame.write_to(&mut c_write).is_err() {
                        break;
                    }
                }
                let _ = c_write.shutdown(Shutdown::Both);
            });
        }
    });
    addr
}

#[test]
fn a_drain_that_fails_part_way_still_delivers_the_replies_it_read() {
    let (handles, addrs) = spawn_nodes(1);
    // Three replies key a session (SET_KEY with the KEK, WRAP_KEY,
    // SET_KEY_WRAPPED); the fourth answers the first pipelined job.
    let proxy = cut_proxy(addrs[0], 4);
    let mut fleet = ClusterClient::connect(&[proxy], &KEK).expect("cluster connects");
    let key = [0x42u8; 16];
    fleet.open_session(&key).expect("session opens");
    let first = fleet
        .pipeline(Op::EcbEncrypt, None, &[0x17; 16])
        .expect("first job sent");
    fleet
        .pipeline(Op::EcbEncrypt, None, &[0x18; 16])
        .expect("second job sent");

    assert!(
        fleet.drain(0).is_err(),
        "the connection closes before the second reply"
    );
    let job = fleet
        .collect_next()
        .expect("the reply the drain read is still owed");
    assert_eq!(job.corr, first);
    let want = rijndael::Aes128::new(&key).encrypt_block(&[0x17; 16]);
    assert_eq!(job.result.expect("the first job completed"), want);

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn cluster_stats_aggregate_every_nodes_counters() {
    let (handles, addrs) = spawn_nodes(3);
    let mut fleet = ClusterClient::connect(&addrs, &KEK).expect("cluster connects");

    // Before any session, PING and GET_STATS reach some Up node; a raw
    // re-key is refused, since only set_key keeps the migration chain.
    assert_eq!(fleet.ping(b"sessionless").expect("ping"), b"sessionless");
    let one = fleet.call(Op::GetStats, &[]).expect("one node's stats");
    let one = std::str::from_utf8(&one.payload).expect("UTF-8 stats");
    Snapshot::from_json(one).expect("one node's snapshot");
    match fleet.call(Op::SetKey, &[&KEK]) {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("a raw SET_KEY through the router must be refused, got {other:?}"),
    }

    // Put one session's worth of traffic on every node by opening
    // enough sessions to cover the ring.
    for i in 0..12u8 {
        fleet.open_session(&[i + 40; 16]).expect("session opens");
        fleet.ping(b"load").expect("ping");
    }

    let merged = fleet.stats().expect("aggregate stats");
    let nodes: Vec<Snapshot> = handles.iter().map(|h| h.registry().snapshot()).collect();
    let merged = Snapshot::from_json(&merged).expect("the fleet document parses");
    assert_eq!(merged.gauge("cluster.nodes.reachable"), Some(3));
    for node in 0..3 {
        assert_eq!(merged.gauge(&format!("cluster.node.{node}.up")), Some(1));
    }
    // Every node served at least its health probe + session traffic:
    // the summed served counter must exceed what any single node could
    // have seen (each session is its own connection).
    let served = merged
        .counter("service.connections.served")
        .expect("served is a counter");
    assert!(served >= 12, "summed served counter too low: {served}");
    let pings = merged
        .counter("service.op.ping.requests")
        .expect("the ping counter is a counter");
    assert!(pings >= 12, "summed ping counter too low: {pings}");
    // Fleet histograms are exact: buckets, count and sum of the fleet's
    // frame sizes are the merge of the three nodes' own, read in
    // process once the fleet document is in (it counts its own
    // GET_STATS frames, and nothing reaches the nodes after it).
    let frames = merged
        .histogram("service.frame.request_bytes")
        .expect("the fleet document carries histograms");
    assert_eq!(
        Some(frames),
        Snapshot::merge(&nodes).histogram("service.frame.request_bytes")
    );
    assert!(frames.count >= 12 * 4, "{frames:?}");

    // The health supervisor sees the same picture: every node answers,
    // stays Up, and reports a live-connection gauge (each open session
    // holds a connection).
    let health = fleet.poll_health();
    assert_eq!(health.len(), 3);
    for sample in &health {
        assert!(sample.reachable, "node {} did not answer", sample.node);
        assert_eq!(sample.state, NodeState::Up);
        assert!(
            sample.active_connections.unwrap_or(0) >= 1,
            "node {} reports no active connections with sessions open",
            sample.node
        );
    }

    drop(fleet);
    for handle in handles {
        handle.shutdown();
    }
}

//! A node's thread count does not follow its session count.
//!
//! A `cluster_node` child process runs with the default config: the main
//! thread, the acceptor, two shards and a farm of four workers that
//! every session shares. The test holds 1, then 10, then 50 connections
//! open, each having loaded a key and run one 256 KiB ECB job on the
//! farm, and after each step reads the process's `Threads:` from
//! `/proc/<pid>/status`. It also reads `engine.workers` over the wire.
//! `VmRSS` is printed beside the thread count, and its growth from 10
//! to 50 sessions may be at most 160 KiB per session: an idle session
//! holds no bulk buffer once its reply is written (about 520 KiB each
//! when the receive buffer and reply queue kept their 256 KiB frames).

#![cfg(target_os = "linux")]

use std::process::Command;

use rijndael_cluster::NodeProcess;
use service::{Client, Transport};
use telemetry::Snapshot;

/// Main + acceptor + 2 shards + 4 farm workers.
const THREADS: u64 = 8;

/// Most `VmRSS` growth per session held, in KiB.
const RSS_PER_SESSION_KIB: u64 = 160;

/// One field of `/proc/<pid>/status`, e.g. `Threads:`.
fn status_field(pid: u32, field: &str) -> String {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/{pid}/status"))
        .trim()
        .to_string()
}

#[test]
fn a_nodes_thread_count_does_not_follow_its_session_count() {
    let node = NodeProcess::spawn(Command::new(env!("CARGO_BIN_EXE_cluster_node")))
        .expect("node process starts");
    let bulk = vec![0u8; 256 * 1024];
    let mut held: Vec<Client> = Vec::new();
    let mut rss_at_10 = 0;
    for step in [1usize, 10, 50] {
        while held.len() < step {
            let mut client = Client::connect(node.addr()).expect("connect");
            client.set_key(&[held.len() as u8; 16]).expect("SET_KEY");
            let ct = client.ecb_encrypt(&bulk).expect("256 KiB ECB");
            assert_eq!(ct.len(), bulk.len());
            held.push(client);
        }
        let threads: u64 = status_field(node.pid(), "Threads:")
            .parse()
            .expect("a thread count");
        let rss = status_field(node.pid(), "VmRSS:");
        println!("{step:>2} sessions: {threads} threads, VmRSS {rss}");
        assert_eq!(threads, THREADS, "threads with {step} sessions open");
        let rss_kib: u64 = rss
            .strip_suffix(" kB")
            .and_then(|kib| kib.trim().parse().ok())
            .unwrap_or_else(|| panic!("VmRSS {rss:?} is not in kB"));
        match step {
            10 => rss_at_10 = rss_kib,
            50 => {
                let per_session = rss_kib.saturating_sub(rss_at_10) / 40;
                println!("VmRSS growth from 10 to 50 sessions: {per_session} KiB per session");
                assert!(
                    per_session <= RSS_PER_SESSION_KIB,
                    "{per_session} KiB of VmRSS per session (bound {RSS_PER_SESSION_KIB} KiB)"
                );
            }
            _ => {}
        }
        let stats = held[0].stats().expect("GET_STATS");
        let stats = Snapshot::from_json(&stats).expect("a telemetry/1 reply");
        assert_eq!(stats.gauge("engine.workers"), Some(4), "{step} sessions");
    }
    drop(held);
    node.shutdown();
}

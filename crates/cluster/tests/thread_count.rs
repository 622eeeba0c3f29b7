//! A node's thread count does not follow its session count.
//!
//! A `cluster_node` child process runs with the default config: the main
//! thread, the acceptor, two shards and a farm of four workers that
//! every session shares. The test holds 1, then 10, then 50 connections
//! open, each having loaded a key and run one 256 KiB ECB job on the
//! farm, and after each step reads the process's `Threads:` from
//! `/proc/<pid>/status`. It also reads `engine.workers` over the wire.
//! `VmRSS` is printed beside the thread count but not gated.

#![cfg(target_os = "linux")]

use std::process::Command;

use rijndael_cluster::NodeProcess;
use service::Client;

/// Main + acceptor + 2 shards + 4 farm workers.
const THREADS: u64 = 8;

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

/// A gauge's value in a `telemetry/1` document.
fn json_gauge(json: &str, name: &str) -> Option<i64> {
    let needle = format!("{{\"name\":\"{name}\",\"type\":\"gauge\",\"value\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    rest[..rest.find('}')?].parse().ok()
}

#[test]
fn a_nodes_thread_count_does_not_follow_its_session_count() {
    let node = NodeProcess::spawn(Command::new(env!("CARGO_BIN_EXE_cluster_node")))
        .expect("node process starts");
    let bulk = vec![0u8; 256 * 1024];
    let mut held: Vec<Client> = Vec::new();
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
        let stats = held[0].stats().expect("GET_STATS");
        assert_eq!(
            json_gauge(&stats, "engine.workers"),
            Some(4),
            "{step} sessions"
        );
    }
    drop(held);
    node.shutdown();
}

//! Reports (and verifies) the runtime CPU dispatch decision.
//!
//! Three modes:
//!
//! * no arguments — a human-readable report: probed CPU features, every
//!   backend kind with its availability and constant-time standing, the
//!   micro-race timings, and the selected winner;
//! * `--list` — one [`Kind::token`] per line for every backend this host
//!   can run, machine-consumable (the `scripts/verify.sh` dispatch gate
//!   loops over this to force each backend in a fresh process);
//! * `--check` — end-to-end assertion that the dispatch decision
//!   (honoring `RIJNDAEL_FORCE_BACKEND`) is what a live service reports:
//!   spawns a server with an `Auto` farm, runs bulk and small ECB work
//!   through a client, reads `GET_STATS` off the wire, and exits
//!   non-zero unless the selected backend's telemetry is present.

use rijndael::dispatch::{self, Kind};
use telemetry::{Registry, Snapshot};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--list") => {
            for kind in Kind::detected() {
                println!("{}", kind.token());
            }
        }
        Some("--check") => check(),
        _ => report(),
    }
}

/// Human-readable probe report.
fn report() {
    let cpu = dispatch::cpu();
    println!(
        "CPU features: aesni={} avx2={} neon_aes={}",
        cpu.aesni, cpu.avx2, cpu.neon_aes
    );
    println!();
    println!(
        "{:<20} {:>10} {:>14} {:>12}",
        "backend", "available", "constant-time", "in race"
    );
    println!("{}", "-".repeat(60));
    for kind in Kind::ALL {
        println!(
            "{:<20} {:>10} {:>14} {:>12}",
            kind.token(),
            kind.available(),
            kind.constant_time(),
            kind.available() && kind.constant_time(),
        );
    }
    let sel = dispatch::selection();
    println!();
    if sel.forced {
        println!(
            "selection (forced via {}): bulk={}",
            dispatch::FORCE_ENV,
            sel.bulk.token()
        );
    } else {
        println!("selection (micro-race): bulk={}", sel.bulk.token());
        let snap = Registry::global().snapshot();
        for kind in Kind::detected() {
            let bulk = snap.counter(&format!("rijndael.dispatch.race.{}.bulk_ns", kind.token()));
            if let Some(bulk) = bulk {
                println!(
                    "  raced {:<20} bulk {:>9} ns / 64 blocks",
                    kind.token(),
                    bulk
                );
            }
        }
    }
}

/// Asserts the dispatch decision is visible through a live server's
/// `GET_STATS`, then prints one confirmation line.
fn check() {
    use engine::BackendSpec;
    use service::client::Client;
    use service::server::{Server, ServiceConfig};
    use service::transport::Transport;
    use std::time::Duration;

    let sel = dispatch::selection();
    if let Some(forced) = dispatch::forced() {
        assert_eq!(sel.bulk, forced, "forced backend must win the race");
        assert!(sel.forced, "selection must flag the override");
    }

    let server = Server::new(
        ServiceConfig::builder()
            .farm(&[BackendSpec::Auto; 2])
            .queue_capacity(8)
            .max_connections(4)
            .idle_timeout(Duration::from_secs(10))
            .event_threads(1)
            .build()
            .expect("valid probe config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port");

    let key = [0x2Bu8; 16];
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&key).expect("SET_KEY");
    // The small payload runs on the session's caller-runs lane, the bulk
    // one on the farm's workers; both build their backends from Auto.
    client.ecb_encrypt(&[0u8; 16]).expect("small ECB");
    client.ecb_encrypt(&[0u8; 64 * 16]).expect("bulk ECB");
    let json = client.stats().expect("GET_STATS");
    drop(client);
    server.shutdown();

    let stats = Snapshot::from_json(&json).expect("GET_STATS is a telemetry/1 document");
    let headline = format!("rijndael.dispatch.backend.{}", sel.bulk.token());
    assert!(
        stats.counter(&headline).is_some(),
        "GET_STATS does not report the dispatch decision {headline}: {json}"
    );
    let core_name = format!("engine.core.0.{}.", sel.bulk.backend_name());
    assert!(
        stats
            .entries()
            .iter()
            .any(|e| e.name.starts_with(&core_name)),
        "GET_STATS does not report core telemetry under {core_name}: {json}"
    );
    println!(
        "dispatch check ok: {} (forced={}) visible in GET_STATS as {} and {}",
        sel.bulk.token(),
        sel.forced,
        headline,
        core_name
    );
}

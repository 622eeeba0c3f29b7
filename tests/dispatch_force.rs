//! End-to-end coverage of the `RIJNDAEL_FORCE_BACKEND` override: pinning
//! a backend must be honored by the dispatch layer, the engine's `Auto`
//! farm slots, a service session's small and bulk ops, and — visibly —
//! by the `GET_STATS` telemetry a client reads off the wire.
//!
//! The whole file is one test function because the override is read from
//! the environment exactly once per process (then cached); every
//! assertion after the `set_var` shares that single decision.
//! `scripts/verify.sh` complements this in-process pin by re-running the
//! equivalence sweep in a fresh process per backend token.

use std::time::Duration;

use rijndael_ip::engine::{BackendSpec, EngineBuilder, Mode};
use rijndael_ip::rijndael::dispatch::{self, AutoCipher, Kind};
use rijndael_ip::rijndael::{Aes128, BatchCipher};
use rijndael_ip::service::client::Client;
use rijndael_ip::service::server::{Server, ServiceConfig};
use rijndael_ip::service::transport::Transport;
use telemetry::Snapshot;

#[test]
fn forced_backend_pins_dispatch_and_shows_up_in_get_stats() {
    // The portable bitsliced plane is available on every host, so this
    // pin can never be skipped by hardware variance.
    std::env::set_var(dispatch::FORCE_ENV, "bitsliced-portable");

    // Layer 1: the dispatch decision itself.
    assert_eq!(dispatch::forced(), Some(Kind::BitslicedPortable));
    let sel = dispatch::selection();
    assert!(sel.forced);
    assert_eq!(sel.bulk, Kind::BitslicedPortable);

    // Layer 2: the production cipher entry point resolves to the pin and
    // still computes AES.
    let key: [u8; 16] = core::array::from_fn(|i| i as u8);
    let cipher = AutoCipher::new(&key).expect("non-ip-core pins build a cipher");
    assert_eq!(cipher.kind(), Kind::BitslicedPortable);
    assert_eq!(cipher.backend_name(), "soft-bitsliced-portable");
    let reference = Aes128::new(&key);
    let mut blocks: Vec<[u8; 16]> = (0..19u8).map(|i| [i.wrapping_mul(13); 16]).collect();
    let expected: Vec<[u8; 16]> = blocks.iter().map(|b| reference.encrypt_block(b)).collect();
    cipher.encrypt_blocks(&mut blocks);
    assert_eq!(blocks, expected);

    // Layer 3: an Auto farm slot reports the resolved backend name and
    // publishes its counters under it.
    let reg = telemetry::Registry::new();
    let mut engine = EngineBuilder::new()
        .core(BackendSpec::Auto)
        .registry(reg.clone())
        .build(&key);
    engine
        .try_submit(Mode::EcbEncrypt, vec![0u8; 16 * 16])
        .unwrap();
    assert!(engine.run()[0].data.is_ok());
    assert_eq!(
        engine
            .snapshot()
            .counter("engine.core.0.soft-bitsliced-portable.blocks"),
        Some(16)
    );

    // Layer 4: the full service — the forced name is what GET_STATS
    // reports after bulk and small traffic.
    let server = Server::new(
        ServiceConfig::builder()
            .farm(&[BackendSpec::Auto; 2])
            .queue_capacity(8)
            .max_connections(4)
            .idle_timeout(Duration::from_secs(10))
            .event_threads(1)
            .build()
            .expect("valid test config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&key).expect("SET_KEY");
    // Small payload: the session's caller-runs lane, on an Auto spec.
    let small = client.ecb_encrypt(&[0u8; 16]).expect("small ECB");
    assert_eq!(small, reference.encrypt_block(&[0u8; 16]));
    // Bulk payload: the farm's Auto worker slots.
    let bulk_pt = vec![0u8; 64 * 16];
    let bulk_ct = client.ecb_encrypt(&bulk_pt).expect("bulk ECB");
    assert_eq!(&bulk_ct[..16], reference.encrypt_block(&[0u8; 16]));

    let json = client.stats().expect("GET_STATS");
    let stats = Snapshot::from_json(&json).expect("a telemetry/1 reply");
    assert_eq!(
        stats.counter("rijndael.dispatch.backend.bitsliced-portable"),
        Some(1),
        "dispatch decision missing from GET_STATS: {json}"
    );
    assert!(
        stats
            .entries()
            .iter()
            .any(|e| e.name.starts_with("engine.core.0.soft-bitsliced-portable.")),
        "forced backend name missing from core telemetry: {json}"
    );

    drop(client);
    server.shutdown();
}

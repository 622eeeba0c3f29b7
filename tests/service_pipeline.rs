//! Pipelined end-to-end exercise of the framed service: many frames in
//! flight per connection completing out of order across a mixed
//! multi-core farm, verified block-by-block against SP 800-38A KATs;
//! per-job typed failures that do not poison the connection; and a
//! blocking client sharing the server with a pipelining one.

use std::collections::HashMap;
use std::time::Duration;

use rijndael_ip::engine::BackendSpec;
use rijndael_ip::service::client::Client;
use rijndael_ip::service::protocol::{ErrorCode, Op};
use rijndael_ip::service::server::{Server, ServiceConfig};
use rijndael_ip::service::transport::Transport;

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16 bytes")
}

// SP 800-38A, AES-128 (Appendix F): one key, four-block test stream.
const SP800_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const SP800_PT: &str = "6bc1bee22e409f96e93d7e117393172a\
                        ae2d8a571e03ac9c9eb76fac45af8e51\
                        30c81c46a35ce411e5fbc1191a0a52ef\
                        f69f2445df4f9b17ad2b417be66c3710";
const SP800_ECB_CT: &str = "3ad77bb40d7a3660a89ecaf32466ef97\
                            f5d3d58503b9699de785895a96fdbaaf\
                            43b1cd7f598ece23881b00e3ed030688\
                            7b0c785e27e8ad3f8223207104725dd4";

fn spawn_server(farm: Vec<BackendSpec>, queue: usize) -> rijndael_ip::service::ServiceHandle {
    Server::new(
        ServiceConfig::builder()
            .farm(&farm)
            .queue_capacity(queue)
            .max_connections(16)
            .idle_timeout(Duration::from_secs(10))
            .event_threads(2)
            .build()
            .expect("valid test config"),
    )
    .spawn("127.0.0.1:0")
    .expect("bind ephemeral port")
}

/// Thirty-two single-block ECB jobs in flight on one connection —
/// depth 32, well past the acceptance floor of 16 — across a mixed
/// farm whose cores finish at different speeds, so completion order is
/// the engine's, not the submission's. Every completion must land on
/// its own correlation id and match the published ciphertext block.
#[test]
fn depth_32_pipelined_blocks_correlate_against_kats() {
    let server = spawn_server(
        vec![
            BackendSpec::EncDecCore,
            BackendSpec::Software,
            BackendSpec::Ttable,
            BackendSpec::EncDecCore,
        ],
        64,
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let pt = hex(SP800_PT);
    let ct = hex(SP800_ECB_CT);
    let mut expected: HashMap<u32, &[u8]> = HashMap::new();
    for round in 0..8 {
        for block in 0..4 {
            let corr = client
                .pipeline(Op::EcbEncrypt, None, &pt[block * 16..block * 16 + 16])
                .expect("pipeline");
            expected.insert(corr, &ct[block * 16..block * 16 + 16]);
            let _ = round;
        }
    }
    assert_eq!(client.in_flight(), 32, "all 32 frames in flight at once");

    let jobs = client.collect_all().expect("collect");
    assert_eq!(jobs.len(), 32);
    for job in jobs {
        let want = expected.remove(&job.corr).expect("known correlation id");
        assert_eq!(
            job.result.expect("job ok"),
            want,
            "corr {} must carry its own block's ciphertext",
            job.corr
        );
    }
    assert!(
        expected.is_empty(),
        "every submission answered exactly once"
    );
    server.shutdown();
}

/// A malformed job in the middle of a pipelined burst fails alone: the
/// ragged frame gets a typed per-job error, its neighbours complete,
/// and the connection stays good for blocking calls afterwards.
#[test]
fn pipelined_failures_are_per_job_not_connection_fatal() {
    let server = spawn_server(vec![BackendSpec::Software; 2], 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let pt = hex(SP800_PT);
    let good_a = client.pipeline(Op::EcbEncrypt, None, &pt[..16]).expect("a");
    let ragged = client
        .pipeline(Op::EcbEncrypt, None, &pt[..17])
        .expect("ragged send");
    let good_b = client.pipeline(Op::EcbEncrypt, None, &pt[..16]).expect("b");

    let jobs = client.collect_all().expect("collect");
    assert_eq!(jobs.len(), 3);
    for job in jobs {
        if job.corr == ragged {
            assert_eq!(job.result, Err((ErrorCode::RaggedLength, 17)));
        } else {
            assert!(job.corr == good_a || job.corr == good_b);
            assert_eq!(job.result.expect("good job"), hex(SP800_ECB_CT)[..16]);
        }
    }
    // The connection survived the bad job.
    assert_eq!(client.ping(b"still here").expect("ping"), b"still here");
    server.shutdown();
}

/// Two connections concurrently: a client with a deep pipelined burst
/// and a client doing blocking calls share the server without
/// interfering — sessions, correlation ids, and replies stay per-
/// connection.
#[test]
fn blocking_and_pipelining_clients_share_the_server() {
    let server = spawn_server(vec![BackendSpec::Software; 2], 32);
    let addr = server.local_addr();

    let pipelining = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
        let pt = hex(SP800_PT);
        let ct = hex(SP800_ECB_CT);
        for _ in 0..4 {
            let mut expected = HashMap::new();
            for block in 0..4 {
                let corr = client
                    .pipeline(Op::EcbEncrypt, None, &pt[block * 16..block * 16 + 16])
                    .expect("pipeline");
                expected.insert(corr, ct[block * 16..block * 16 + 16].to_vec());
            }
            for job in client.collect_all().expect("collect") {
                assert_eq!(job.result.expect("ok"), expected.remove(&job.corr).unwrap());
            }
        }
    });

    let mut blocking = Client::connect(addr).expect("connect");
    blocking.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    let pt = hex(SP800_PT);
    for _ in 0..8 {
        assert_eq!(
            blocking.ecb_encrypt(&pt[..16]).expect("ECB"),
            hex(SP800_ECB_CT)[..16]
        );
    }

    pipelining.join().expect("pipelining client thread");
    server.shutdown();
}

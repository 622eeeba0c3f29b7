//! End-to-end exercise of the framed TCP service: concurrent clients
//! against published KATs, typed `Busy` backpressure on bulk jobs,
//! session lifecycle, and graceful shutdown that answers in-flight jobs.

use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use rijndael_ip::engine::BackendSpec;
use rijndael_ip::rijndael::aead::{self, Aead, Gcm, Xts};
use rijndael_ip::rijndael::{cmac, Aes128};
use rijndael_ip::service::client::{Client, ClientError};
use rijndael_ip::service::protocol::{ErrorCode, Frame, Op};
use rijndael_ip::service::server::{Server, ServiceConfig};
use rijndael_ip::service::Transport;
use telemetry::{Snapshot, Value};

/// A client's `GET_STATS` reply, read back from the wire bytes — the
/// point is to audit what a client sees, not the server's registry.
fn wire_stats(client: &mut Client) -> Snapshot {
    let json = client.stats().expect("GET_STATS");
    Snapshot::from_json(&json).expect("a telemetry/1 reply")
}

/// Every counter whose name starts with `prefix` and ends with `suffix`.
fn counters<'a>(stats: &'a Snapshot, prefix: &str, suffix: &str) -> Vec<(&'a str, u64)> {
    stats
        .entries()
        .iter()
        .filter(|e| e.name.starts_with(prefix) && e.name.ends_with(suffix))
        .filter_map(|e| match e.value {
            Value::Counter(v) => Some((e.name.as_str(), v)),
            _ => None,
        })
        .collect()
}

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
const SP800_CBC_IV: &str = "000102030405060708090a0b0c0d0e0f";
const SP800_CBC_CT: &str = "7649abac8119b246cee98e9b12e9197d\
                            5086cb9b507219ee95db113a917678b2\
                            73bed6b8e3c1743b7116e69e22229516\
                            3ff1caa1681fac09120eca307586e1a7";
const SP800_CTR_ICB: &str = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";
const SP800_CTR_CT: &str = "874d6191b620e3261bef6864990db6ce\
                            9806f66b7970fdff8617187bb9fffdff\
                            5ae4df3edbd5d35e5b4f09020db03eab\
                            1e031dda2fbe03d1792170a0f3009cee";
// RFC 4493 example 2 (same key, first SP 800-38A block).
const CMAC_TAG_1BLOCK: &str = "070a16b46b4d4144f79bdd9dd04a287c";

// FIPS-197 Appendix C.1.
const FIPS_KEY: &str = "000102030405060708090a0b0c0d0e0f";
const FIPS_PT: &str = "00112233445566778899aabbccddeeff";
const FIPS_CT: &str = "69c4e0d86a7b0430d8cdb78070b4c55a";

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

/// One client's full KAT conversation (SP 800-38A + RFC 4493), written
/// against the unified `Transport` surface so a cluster router can run
/// the identical script.
fn sp800_conversation(client: &mut dyn Transport) {
    let session = client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    assert_ne!(session, 0);

    let pt = hex(SP800_PT);
    let ct = client.ecb_encrypt(&pt).expect("ECB encrypt");
    assert_eq!(ct, hex(SP800_ECB_CT), "SP 800-38A F.1.1");
    assert_eq!(client.ecb_decrypt(&ct).expect("ECB decrypt"), pt);

    let iv = hex16(SP800_CBC_IV);
    let ct = client.cbc_encrypt(&iv, &pt).expect("CBC encrypt");
    assert_eq!(ct, hex(SP800_CBC_CT), "SP 800-38A F.2.1");
    assert_eq!(client.cbc_decrypt(&iv, &ct).expect("CBC decrypt"), pt);

    let icb = hex16(SP800_CTR_ICB);
    let ct = client.ctr_apply(&icb, &pt).expect("CTR apply");
    assert_eq!(ct, hex(SP800_CTR_CT), "SP 800-38A F.5.1");
    assert_eq!(client.ctr_apply(&icb, &ct).expect("CTR re-apply"), pt);

    let tag = client.cmac_tag(&pt[..16]).expect("CMAC tag");
    assert_eq!(tag.to_vec(), hex(CMAC_TAG_1BLOCK), "RFC 4493 example 2");
    assert!(client.cmac_verify(&pt[..16], &tag).expect("CMAC verify"));
    let mut bad = tag;
    bad[0] ^= 1;
    assert!(!client.cmac_verify(&pt[..16], &bad).expect("CMAC verify"));
}

#[test]
fn four_concurrent_clients_roundtrip_published_kats() {
    // A deliberately heterogeneous farm: every session shards its jobs
    // over cycle-accurate hardware models and both software paths.
    let server = spawn_server(
        vec![
            BackendSpec::EncDecCore,
            BackendSpec::Software,
            BackendSpec::Ttable,
            BackendSpec::EncDecCore,
        ],
        8,
    );
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for i in 0..4 {
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            if i == 0 {
                // One client runs the FIPS-197 vector instead, proving
                // sessions are keyed independently.
                client.set_key(&hex16(FIPS_KEY)).expect("SET_KEY");
                let ct = client.ecb_encrypt(&hex(FIPS_PT)).expect("encrypt");
                assert_eq!(ct, hex(FIPS_CT), "FIPS-197 C.1");
                assert_eq!(client.ecb_decrypt(&ct).expect("decrypt"), hex(FIPS_PT));
            } else {
                sp800_conversation(&mut client);
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    assert_eq!(server.connections_served(), 4);
    server.shutdown();
}

/// A bulk payload: the SP 800-38A stream eight times over (32 blocks,
/// past the session's bulk threshold, so it runs on the pool's
/// workers), with its ECB ciphertext.
fn bulk_ecb_kat() -> (Vec<u8>, Vec<u8>) {
    (hex(SP800_PT).repeat(8), hex(SP800_ECB_CT).repeat(8))
}

/// One paced core at 2 ms a block holds each 32-block bulk job for
/// about 64 ms — far longer than the requests around it take.
fn slow_farm() -> Vec<BackendSpec> {
    vec![BackendSpec::Paced {
        block_ns: 2_000_000,
    }]
}

#[test]
fn busy_backpressure_surfaces_on_bulk_jobs_and_collection_recovers() {
    let server = spawn_server(slow_farm(), 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let (pt, ct) = bulk_ecb_kat();
    let a = client.pipeline(Op::EcbEncrypt, None, &pt).expect("a");
    let b = client.pipeline(Op::EcbEncrypt, None, &pt).expect("b");
    let bounced = client.pipeline(Op::EcbEncrypt, None, &pt).expect("c");
    // The pool (capacity 2) is full, yet the connection is fully usable.
    assert_eq!(client.ping(b"still here").unwrap(), b"still here");

    let mut jobs = client.collect_all().expect("collect");
    jobs.sort_by_key(|j| j.corr);
    let corrs: Vec<u32> = jobs.iter().map(|j| j.corr).collect();
    assert_eq!(corrs, vec![a, b, bounced]);
    assert_eq!(jobs[0].result.as_ref().unwrap(), &ct);
    assert_eq!(jobs[1].result.as_ref().unwrap(), &ct);
    // The third job got a typed Busy carrying the capacity — not a
    // disconnect and not an unbounded queue.
    assert_eq!(jobs[2].result, Err((ErrorCode::Busy, 2)));

    // Collecting freed the pool: the bounced job now goes through.
    let retry = client.pipeline(Op::EcbEncrypt, None, &pt).expect("retry");
    let job = client.collect_next().expect("retry completes");
    assert_eq!(job.corr, retry);
    assert_eq!(job.result.unwrap(), ct);
    server.shutdown();
}

#[test]
fn one_small_op_pays_exactly_one_cores_key_setup() {
    // The session's one executor keys the backend a small job needs on
    // first use, and no worker threads start for small traffic: a
    // two-core farm pays one core's key setup, not two.
    let server = spawn_server(vec![BackendSpec::EncDecCore; 2], 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let key = hex16(SP800_KEY);
    client.set_key(&key).expect("SET_KEY");
    let ct = client.ecb_encrypt(&hex(SP800_PT)[..16]).expect("encrypt");
    assert_eq!(ct, hex(SP800_ECB_CT)[..16]);

    let stats = wire_stats(&mut client);
    let setup: u64 = counters(&stats, "engine.core.", ".setup_cycles")
        .iter()
        .map(|(_, v)| v)
        .sum();
    let one_core = BackendSpec::EncDecCore.build(&key).setup_cycles();
    assert!(one_core > 0, "the IP core model pays real key-setup cycles");
    assert_eq!(setup, one_core);
    server.shutdown();
}

#[test]
fn every_keyed_op_runs_on_the_farms_core_keyed_once() {
    // CMAC, GCM, XTS and key wrap run on the session's one executor
    // like ECB does: on a one-core IP farm the IP model computes them,
    // keyed once, and counts every block each op costs.
    let server = spawn_server(vec![BackendSpec::EncDecCore], 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let key = hex16(SP800_KEY);
    let aes = Aes128::new(&key);
    client.set_key(&key).expect("SET_KEY");
    let message = hex(SP800_PT);
    let mut blocks = 0u64;

    // CMAC: the subkey block, then one per message block (four).
    let tag = client.cmac_tag(&message).expect("CMAC_TAG");
    assert_eq!(tag, cmac::cmac(&aes, &message));
    assert!(client.cmac_verify(&message, &tag).expect("CMAC_VERIFY"));
    blocks += 2 * (1 + 4);

    // GCM: the hash key H and the tag mask, then one per data block
    // (three for 40 bytes).
    let nonce = [0x5A; 12];
    let plaintext = &message[..40];
    let sealed = client.seal(&nonce, b"aad", plaintext).expect("SEAL");
    assert_eq!(
        sealed,
        Gcm::new(Aes128::new(&key)).seal(&nonce, b"aad", plaintext)
    );
    let opened = client.open(&nonce, b"aad", &sealed).expect("OPEN");
    assert_eq!(opened.as_deref(), Some(plaintext));
    blocks += 2 * (2 + 3);

    // XTS: one tweak block per sector, then the sector's data blocks
    // (a 20-byte sector steals: two).
    let sectors = &message[..60];
    let mut expect = sectors.to_vec();
    let xts = Xts::new(Aes128::new(&key), Aes128::new(&key));
    for (i, sector) in expect.chunks_mut(20).enumerate() {
        xts.encrypt_sector(9 + i as u64, sector).unwrap();
    }
    let ct = client.xts_encrypt(9, 20, sectors).expect("XTS_ENCRYPT");
    assert_eq!(ct, expect);
    assert_eq!(
        client.xts_decrypt(9, 20, &ct).expect("XTS_DECRYPT"),
        sectors
    );
    blocks += 2 * 3 * (1 + 2);

    // Key wrap: 6n blocks for n = 3 semiblocks of key data, each way.
    let key_data = [0x3C; 24];
    let wrapped = client.wrap_key(&key_data).expect("WRAP_KEY");
    assert_eq!(wrapped, aead::wrap(&aes, &key_data).unwrap());
    let unwrapped = client.unwrap_key(&wrapped).expect("UNWRAP_KEY");
    assert_eq!(unwrapped.as_deref(), Some(&key_data[..]));
    blocks += 2 * 6 * 3;

    let ct = client.ecb_encrypt(&message[..16]).expect("ECB");
    assert_eq!(ct, hex(SP800_ECB_CT)[..16]);
    blocks += 1;

    let stats = wire_stats(&mut client);
    let setup: u64 = counters(&stats, "engine.core.", ".setup_cycles")
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert_eq!(setup, BackendSpec::EncDecCore.build(&key).setup_cycles());
    assert_eq!(
        stats.counter("engine.core.0.ip-encdec.blocks"),
        Some(blocks)
    );
    server.shutdown();
}

/// Whether `result` is the typed `JobFailed` a lane fault answers.
fn job_failed<T: std::fmt::Debug>(result: Result<T, ClientError>) -> bool {
    matches!(
        result,
        Err(ClientError::Service {
            code: ErrorCode::JobFailed,
            ..
        })
    )
}

#[test]
fn an_encrypt_only_farm_fails_inverse_cipher_ops_typed() {
    // The farm decides what a session can compute: with a 16-byte key
    // the encrypt-only IP core has no inverse cipher, so the ops that
    // need one fail typed, and everything else still answers.
    let server = spawn_server(vec![BackendSpec::EncryptCore], 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let key = hex16(SP800_KEY);
    let aes = Aes128::new(&key);
    let kek = client.set_key(&key).expect("SET_KEY");
    let wrapped = client.wrap_key(&[0x3C; 16]).expect("WRAP_KEY");
    assert_eq!(wrapped, aead::wrap(&aes, &[0x3C; 16]).unwrap());
    assert!(job_failed(client.unwrap_key(&wrapped)));
    assert!(job_failed(client.set_key_wrapped(&wrapped)));
    assert!(job_failed(client.xts_decrypt(0, 16, &[0u8; 32])));

    // The KEK session is still live on the same connection.
    assert_eq!(client.session(), kek);
    let message = hex(SP800_PT);
    let tag = client.cmac_tag(&message[..16]).expect("CMAC_TAG");
    assert_eq!(tag.to_vec(), hex(CMAC_TAG_1BLOCK), "RFC 4493 example 2");
    let nonce = [0x0F; 12];
    let sealed = client.seal(&nonce, b"", &message).expect("SEAL");
    assert_eq!(
        sealed,
        Gcm::new(Aes128::new(&key)).seal(&nonce, b"", &message)
    );
    let opened = client.open(&nonce, b"", &sealed).expect("OPEN");
    assert_eq!(opened.as_deref(), Some(&message[..]));
    let mut expect = message.clone();
    let xts = Xts::new(Aes128::new(&key), Aes128::new(&key));
    for (i, sector) in expect.chunks_mut(32).enumerate() {
        xts.encrypt_sector(i as u64, sector).unwrap();
    }
    assert_eq!(client.xts_encrypt(0, 32, &message).expect("XTS"), expect);
    let stats = wire_stats(&mut client);
    assert_eq!(stats.counter("service.error.job_failed"), Some(3));
    server.shutdown();
}

#[test]
fn get_stats_matches_an_independently_computed_tally() {
    let server = spawn_server(vec![BackendSpec::Software; 2], 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Generate a workload whose books we keep by hand.
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    let pt = hex(SP800_PT); // four blocks: small enough to ride the engine
    let mut blocks = 0u64;
    for _ in 0..5 {
        client.ecb_encrypt(&pt).expect("encrypt");
        blocks += (pt.len() / 16) as u64;
    }
    for _ in 0..3 {
        client.ping(b"x").expect("ping");
    }
    assert!(matches!(
        client.ecb_encrypt(&pt[..15]),
        Err(ClientError::Service {
            code: ErrorCode::RaggedLength,
            detail: 15
        })
    ));

    let stats = wire_stats(&mut client);

    // Per-opcode counts match the tally (the ragged attempt still counts
    // as an ecb_encrypt request, and lands in the error tallies too).
    assert_eq!(stats.counter("service.op.set_key.requests"), Some(1));
    assert_eq!(stats.counter("service.op.ecb_encrypt.requests"), Some(6));
    assert_eq!(stats.counter("service.op.ping.requests"), Some(3));
    assert_eq!(stats.counter("service.error.ragged_length"), Some(1));

    // Engine counters: every core is a software model (one block per
    // cycle, no key-setup cycles), so the blocks the cores that did
    // report must sum to the tally and every core's datapath occupancy
    // is exactly 100% — whichever slots the work landed on.
    let cores = counters(&stats, "engine.core.", ".blocks");
    assert!(!cores.is_empty(), "some core reported its blocks");
    let mut total = 0u64;
    for (name, b) in cores {
        let prefix = name.strip_suffix(".blocks").expect("filtered by suffix");
        assert!(prefix.ends_with(".soft-ref"), "{prefix}");
        let cycles = stats
            .counter(&format!("{prefix}.cycles"))
            .expect("cycles counter");
        let setup = stats
            .counter(&format!("{prefix}.setup_cycles"))
            .expect("setup counter");
        let busy = stats
            .counter(&format!("{prefix}.busy_cycles"))
            .expect("busy counter");
        assert_eq!(setup, 0, "software backends pay no setup cycles");
        assert_eq!(busy, cycles, "software cores stay 100% occupied");
        assert_eq!(cycles, b, "software cores run one block per cycle");
        total += b;
    }
    assert_eq!(total, blocks, "engine books must match the client's");

    // The wire document and the in-process registry agree entry for
    // entry — there is exactly one counter path.
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter("service.op.ecb_encrypt.requests"), Some(6));
    assert_eq!(
        stats.counter("service.connections.served"),
        snap.counter("service.connections.served")
    );

    // GET_STATS with a payload is malformed — and survivable.
    client
        .send_raw(&Frame::request(Op::GetStats, 0, 777, 0, vec![1, 2]))
        .unwrap();
    let reply = client.recv_raw().unwrap();
    assert_eq!(reply.error_body(), Some((ErrorCode::Malformed, 2)));
    assert_eq!(client.ping(b"alive").unwrap(), b"alive");

    server.shutdown();
}

#[test]
fn stale_sessions_are_rejected_after_rekey() {
    let server = spawn_server(vec![BackendSpec::Software], 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");
    let second = client.set_key(&hex16(FIPS_KEY)).expect("re-key");
    assert_ne!(first, second);

    // A pipelined request still naming the dead session gets the typed
    // StaleSession error with the live id as detail.
    client
        .send_raw(&Frame::request(Op::EcbEncrypt, 0, 99, first, vec![0; 16]))
        .unwrap();
    let reply = client.recv_raw().unwrap();
    assert_eq!(reply.error_body(), Some((ErrorCode::StaleSession, second)));

    // The live session answers with the new key.
    let ct = client.ecb_encrypt(&hex(FIPS_PT)).expect("encrypt");
    assert_eq!(ct, hex(FIPS_CT));
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_in_flight_bulk_jobs_and_says_goodbye() {
    let server = spawn_server(slow_farm(), 4);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.set_key(&hex16(SP800_KEY)).expect("SET_KEY");

    let (pt, ct) = bulk_ecb_kat();
    let corr = client.pipeline(Op::EcbEncrypt, None, &pt).expect("submit");
    // The ping's reply proves the server has read the bulk frame (same
    // connection, in order); the job itself runs for ~64 ms more.
    assert_eq!(client.ping(b"queued").unwrap(), b"queued");

    // Shutdown with the job still executing on a pool worker: the shard
    // must wait it out and deliver its reply before the goodbye.
    // shutdown() returning proves every server thread joined — no
    // leaks, no panics.
    server.shutdown();

    let job = client.collect_next().expect("in-flight job reply");
    assert_eq!(job.corr, corr);
    assert_eq!(job.result.expect("the job completed"), ct);

    let goodbye = client.recv_raw().expect("goodbye frame");
    assert_eq!(goodbye.error_body(), Some((ErrorCode::ShuttingDown, 0)));

    // The listener is gone with the threads: new connections fail.
    assert!(TcpStream::connect(addr).is_err());
}

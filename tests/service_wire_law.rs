//! The seeded wire law: random request scripts over one connection,
//! every answer checked against a client-side reference.
//!
//! A script is a list of bursts of 1–16 requests. The client writes a
//! burst in seeded fragments — cut points from the case's `cuts` seed,
//! each piece flushed and followed by a short pause — so the server
//! sees partial heads and partial bodies, and reads every reply before
//! it sends the next burst. The requests cover each op on its good and
//! bad paths — key loads of every length, wrapped re-keys under the
//! live key and corrupted ones, ECB/CBC/CTR on both sides of
//! `BULK_THRESHOLD` (ragged blocks and short IVs included), CMAC with
//! good and bad tags, SEAL/OPEN with tampered input, XTS with good and
//! bad geometry, WRAP/UNWRAP, PING, GET_STATS with a payload — and any
//! of them may carry a stale session id, non-zero flags or an unknown
//! opcode. A re-key may land anywhere inside a burst. One ECB, CTR,
//! XTS, SEAL/OPEN or PING request in 32 comes in a bulk size class, from
//! a quarter of `MAX_PAYLOAD` up to the whole of it, so frames straddle
//! the server's reads and bodies land in its payload buffers (the
//! references are computed in debug builds, so bulk requests stay
//! rare). At most `BULK_PER_BURST` of them ride in one burst, which
//! keeps every burst under the server's 1 MiB write-backpressure cap:
//! the law writes a whole burst before it reads, so a larger one could
//! deadlock.
//!
//! Before a reply is read, the client computes the answer the request's
//! shape earns: its bytes, from `Rijndael::<4>` with `rijndael::modes`,
//! `cmac`, `aead::{wrap, unwrap, Gcm}` and the scalar XTS oracle in
//! `support/xts_oracle.rs`, or its typed `(code, detail)`. Requests sent
//! after a re-key in the same burst still carry the old session id, so
//! their `StaleSession` detail is the id the re-key's reply carries.
//! The law:
//!
//! * every request gets exactly one reply, matched by `corr`, whose
//!   bytes or `(code, detail)` equal the reference's;
//! * each reply carries the session id live once its request ran, so a
//!   request sent before a re-key is answered under the old id;
//! * no reply payload contains a key the connection loaded;
//! * `service.pipeline.inflight` reads 0 after every burst;
//! * at the end, every `service.op.<op>.requests` and
//!   `service.error.<code>` counter equals the client's own tally.
//!
//! Each case ends in one of four ways, appended to its last burst: a
//! version-1 frame (every request is answered, then a `BadVersion 1`
//! goodbye, then EOF), a truncated frame and a half-close (every
//! complete frame is answered, then EOF), a bulk frame cut mid-body and
//! a half-close (the same), or nothing. A fresh connection must then
//! answer a PING: no shard died.
//!
//! The server runs one event thread and a queue capacity of 16, the
//! longest burst, so `Busy` cannot occur and the law is deterministic.
//! The GCM answers come from `aead::Gcm`, the code the server runs; the
//! NIST vectors in `aead_kats` guard that kernel, and this law checks
//! routing, framing and accounting.
//!
//! A second law holds two connections on one server, one under a
//! 16-byte key and one under a 32-byte key, and writes a burst of
//! farm-lane ECB, CBC and CTR jobs (128 B–1 KiB, both directions) on
//! each, back to back, before reading either. Some bursts end in a
//! re-key to a fresh key of the same length. Every answer must equal
//! its own key's `Rijndael::<4>` reference, under the session live when
//! the request ran. It runs on a one-worker farm, whose worker re-keys
//! on every alternation, and on a two-worker farm.

#[path = "support/xts_oracle.rs"]
mod xts_oracle;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rijndael_ip::engine::BackendSpec;
use rijndael_ip::rijndael::aead;
use rijndael_ip::rijndael::cmac;
use rijndael_ip::rijndael::modes::{Cbc, Ctr, Ecb};
use rijndael_ip::rijndael::{Aead, Gcm, Rijndael};
use rijndael_ip::service::client::Client;
use rijndael_ip::service::protocol::{ErrorCode, Frame, Op, Status, MAX_PAYLOAD};
use rijndael_ip::service::server::{Server, ServiceConfig, ServiceHandle};
use rijndael_ip::service::session::BULK_THRESHOLD;
use rijndael_ip::service::transport::Transport;
use testkit::forall;
use testkit::prop::{any, vec_of};

/// One request of a script: `(kind, twist, size, seed)`. `kind` picks
/// the op, the low nibble of `twist` an optional fault (non-zero flags,
/// a stale session id, an unknown opcode) and its high nibble the op's
/// variant; `size` scales the payload and `seed` fills it.
type Step = (u8, u8, u16, u64);

/// The longest burst, and the server's queue capacity.
const MAX_BURST: usize = 16;

/// Most bulk-class requests in one burst: three maximal frames and 13
/// small ones stay under the server's 1 MiB write-backpressure cap.
const BULK_PER_BURST: usize = 3;

/// A session id as the client can know it when it writes a request:
/// already learned, or carried by the reply to request `i` of the
/// current burst (a re-key).
#[derive(Debug, Clone, Copy)]
enum Sid {
    Known(u32),
    Reply(usize),
}

/// The answer a request's shape earns.
#[derive(Debug)]
enum Want {
    /// `Ok` with exactly these bytes.
    Bytes(Vec<u8>),
    /// `Ok`, no payload, and a fresh session id in the header.
    Rekeyed,
    /// This typed error.
    Error(ErrorCode, u32),
    /// `StaleSession`, detail: the live id.
    Stale(Sid),
}

/// What a request earns once it passes the opcode, flags and session
/// checks.
enum Earns {
    /// This answer.
    Answer(Want),
    /// A re-key to this key.
    Rekey(Vec<u8>),
}

/// The client's model of the connection.
#[derive(Default)]
struct Model {
    /// The live session: its id and its key.
    live: Option<(Sid, Vec<u8>)>,
    /// Every key the connection loaded: no reply may carry one.
    keys: Vec<Vec<u8>>,
    /// Every session id a re-key's reply carried.
    sids: Vec<u32>,
    /// Requests per op name, as the server should count them.
    ops: BTreeMap<&'static str, u64>,
    /// Typed errors per code name, as the server should count them.
    errors: BTreeMap<&'static str, u64>,
}

/// Deterministic bytes from a seed (SplitMix64).
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Key bytes, from a stream no data payload of the same step shares.
fn key_bytes(seed: u64, len: usize) -> Vec<u8> {
    bytes(!seed, len)
}

fn cipher(key: &[u8]) -> Rijndael<4> {
    Rijndael::<4>::new(key).expect("an AES key length")
}

fn be32(v: usize) -> [u8; 4] {
    (v as u32).to_be_bytes()
}

/// A block-mode data length in one of four classes: whole blocks below
/// `BULK_THRESHOLD`, whole blocks at or above it (up to 1 KiB less an
/// IV), and a ragged length on either side.
fn block_len(size: u16, class: u8) -> usize {
    let n = usize::from(size >> 2);
    let bulk_blocks = BULK_THRESHOLD / 16;
    match class % 4 {
        0 => 16 * (n % bulk_blocks),
        1 => 16 * (bulk_blocks + n % (63 - bulk_blocks + 1)),
        2 => 16 * (n % bulk_blocks) + 1 + n % 15,
        _ => BULK_THRESHOLD + 16 * (n % 40) + 1 + n % 15,
    }
}

/// A bulk-class length, from a quarter of `MAX_PAYLOAD` up to
/// `MAX_PAYLOAD - fixed` (room for the op's fixed fields).
fn bulk_len(size: u16, fixed: usize) -> usize {
    let low = MAX_PAYLOAD / 4;
    low + usize::from(size) * 7919 % (MAX_PAYLOAD - fixed - low + 1)
}

/// Flips one bit of `data`, chosen by `seed`.
fn flip(mut data: Vec<u8>, seed: u64) -> Vec<u8> {
    let at = (seed as usize) % data.len();
    data[at] ^= 1 << (seed % 8);
    data
}

impl Model {
    /// Builds request `i` of a burst, stamped with session id `stamped`
    /// (in the bulk size class where the op has one, when `bulk`), and
    /// returns it with the answer it earns. Updates the model as the
    /// server would.
    fn plan(
        &mut self,
        step: Step,
        (i, corr, stamped): (usize, u32, u32),
        bulk: bool,
    ) -> (Frame, Want) {
        let (kind, twist, size, seed) = step;
        let fault = twist & 0x0F;
        let variant = twist >> 4;
        let (op, payload, earns) = self.shape(kind, variant, size, seed, bulk);
        let session = if fault == 1 {
            // Ids this connection hands out stay far below this one.
            stamped.wrapping_add(0x10_0000)
        } else {
            stamped
        };
        let mut frame = Frame::request(op, 0, corr, session, payload);
        let want = if fault == 2 {
            // 0x02 is the retired drain op; the rest were never assigned.
            frame.kind = [0x00, 0x02, 0x7E, 0x32, 0x40][usize::from(variant) % 5];
            Want::Error(ErrorCode::BadOp, u32::from(frame.kind))
        } else {
            *self.ops.entry(op.name()).or_default() += 1;
            if fault == 0 {
                frame.flags = 1 + (seed % 255) as u8;
                Want::Error(ErrorCode::Malformed, u32::from(frame.flags))
            } else if matches!(op, Op::SetKey | Op::Ping | Op::GetStats) {
                self.earn(earns, i)
            } else {
                match &self.live {
                    None => Want::Error(ErrorCode::NoSession, 0),
                    Some((Sid::Known(live), _)) if *live == session => self.earn(earns, i),
                    Some((live, _)) => Want::Stale(*live),
                }
            }
        };
        match &want {
            Want::Error(code, _) => *self.errors.entry(code.name()).or_default() += 1,
            Want::Stale(_) => *self.errors.entry("stale_session").or_default() += 1,
            _ => {}
        }
        (frame, want)
    }

    /// Applies what request `i`, past every check, earns.
    fn earn(&mut self, earns: Earns, i: usize) -> Want {
        match earns {
            Earns::Answer(want) => want,
            Earns::Rekey(key) => {
                self.keys.push(key.clone());
                self.live = Some((Sid::Reply(i), key));
                Want::Rekeyed
            }
        }
    }

    /// The op, its payload, and what it earns once it passes the
    /// opcode, flags and session checks. `bulk` picks the bulk size
    /// class for ECB, CTR, SEAL/OPEN, XTS and PING.
    fn shape(
        &self,
        kind: u8,
        variant: u8,
        size16: u16,
        seed: u64,
        bulk: bool,
    ) -> (Op, Vec<u8>, Earns) {
        let size = usize::from(size16);
        let key = self
            .live
            .as_ref()
            .map_or_else(|| vec![0u8; 16], |(_, k)| k.clone());
        let c = cipher(&key);
        let data = |len: usize| bytes(seed, len);
        let v = usize::from(variant);
        let decrypt = variant & 1 == 1;
        match kind % 12 {
            0 => {
                let len = [
                    16, 24, 32, 16, 24, 32, 16, 0, 15, 17, 23, 31, 33, 16, 32, 24,
                ][v];
                let new_key = key_bytes(seed, len);
                let earns = if matches!(len, 16 | 24 | 32) {
                    Earns::Rekey(new_key.clone())
                } else {
                    Earns::Answer(Want::Error(ErrorCode::BadKeyLength, len as u32))
                };
                (Op::SetKey, new_key, earns)
            }
            1 => {
                let new_key = key_bytes(seed, [16, 24, 32][size % 3]);
                let blob = aead::wrap(&c, &new_key).expect("a wrappable key");
                let (payload, earns) = match v % 5 {
                    0 | 1 => (blob, Earns::Rekey(new_key)),
                    2 => (
                        flip(blob, seed),
                        Earns::Answer(Want::Error(ErrorCode::TagMismatch, 0)),
                    ),
                    3 => (
                        aead::wrap(&c, &data(40)).expect("40 bytes wrap"),
                        Earns::Answer(Want::Error(ErrorCode::BadKeyLength, 40)),
                    ),
                    _ => (
                        data(20),
                        Earns::Answer(Want::Error(ErrorCode::Malformed, 20)),
                    ),
                };
                (Op::SetKeyWrapped, payload, earns)
            }
            2 => {
                let op = if decrypt {
                    Op::EcbDecrypt
                } else {
                    Op::EcbEncrypt
                };
                let len = if bulk {
                    bulk_len(size16, 0) / 16 * 16
                } else {
                    block_len(size16, variant >> 1)
                };
                let mut out = data(len);
                let payload = out.clone();
                let result = if decrypt {
                    Ecb::decrypt(&c, &mut out)
                } else {
                    Ecb::encrypt(&c, &mut out)
                };
                let want = match result {
                    Ok(()) => Want::Bytes(out),
                    Err(_) => Want::Error(ErrorCode::RaggedLength, payload.len() as u32),
                };
                (op, payload, Earns::Answer(want))
            }
            3 => {
                let op = if decrypt {
                    Op::CbcDecrypt
                } else {
                    Op::CbcEncrypt
                };
                if variant >> 1 == 7 {
                    // A payload too short to hold the IV.
                    let payload = data(size % 16);
                    let len = payload.len() as u32;
                    return (
                        op,
                        payload,
                        Earns::Answer(Want::Error(ErrorCode::Malformed, len)),
                    );
                }
                let iv = bytes(seed ^ 0x1F, 16);
                let mut out = data(block_len(size16, variant >> 1));
                let payload = [&iv[..], &out].concat();
                let result = if decrypt {
                    Cbc::decrypt(&c, &iv, &mut out)
                } else {
                    Cbc::encrypt(&c, &iv, &mut out)
                };
                let want = match result {
                    Ok(()) => Want::Bytes(out),
                    Err(_) => Want::Error(ErrorCode::RaggedLength, out.len() as u32),
                };
                (op, payload, Earns::Answer(want))
            }
            4 | 11 => {
                if v == 15 {
                    let payload = data(size % 16);
                    let len = payload.len() as u32;
                    return (
                        Op::CtrApply,
                        payload,
                        Earns::Answer(Want::Error(ErrorCode::Malformed, len)),
                    );
                }
                // Either side of BULK_THRESHOLD, or the bulk class; any
                // length.
                let len = if bulk {
                    bulk_len(size16, 16)
                } else if v % 2 == 0 {
                    size % BULK_THRESHOLD
                } else {
                    BULK_THRESHOLD + size % (1000 - BULK_THRESHOLD)
                };
                let iv = bytes(seed ^ 0x2E, 16);
                let mut out = data(len);
                let payload = [&iv[..], &out].concat();
                Ctr::apply(&c, &iv, &mut out);
                (Op::CtrApply, payload, Earns::Answer(Want::Bytes(out)))
            }
            5 => {
                let message = data(size % 300);
                let tag = cmac::cmac(&c, &message);
                match v % 4 {
                    0 => (
                        Op::CmacTag,
                        message,
                        Earns::Answer(Want::Bytes(tag.to_vec())),
                    ),
                    1 => (
                        Op::CmacVerify,
                        [&tag[..], &message].concat(),
                        Earns::Answer(Want::Bytes(Vec::new())),
                    ),
                    2 => (
                        Op::CmacVerify,
                        [&flip(tag.to_vec(), seed)[..], &message].concat(),
                        Earns::Answer(Want::Error(ErrorCode::BadTag, 0)),
                    ),
                    _ => {
                        let short = data(size % 16);
                        let len = short.len() as u32;
                        (
                            Op::CmacVerify,
                            short,
                            Earns::Answer(Want::Error(ErrorCode::Malformed, len)),
                        )
                    }
                }
            }
            6 => {
                let gcm = Gcm::new(cipher(&key));
                let nonce: [u8; 12] = bytes(seed ^ 0x3D, 12).try_into().expect("12 bytes");
                let aad = bytes(seed ^ 0x4C, size % 48);
                // Room for the nonce, AAD length, AAD and tag.
                let plaintext = data(if bulk {
                    bulk_len(size16, 16 + 48 + 16)
                } else {
                    size % 700
                });
                let sealed = gcm.seal(&nonce, &aad, &plaintext);
                let frame =
                    |aad: &[u8], body: &[u8]| [&nonce[..], &be32(aad.len()), aad, body].concat();
                let (op, payload, want) = match v % 6 {
                    0 | 1 => (Op::Seal, frame(&aad, &plaintext), Want::Bytes(sealed)),
                    2 => (Op::Open, frame(&aad, &sealed), Want::Bytes(plaintext)),
                    3 => (
                        Op::Open,
                        frame(&aad, &flip(sealed, seed)),
                        Want::Error(ErrorCode::TagMismatch, 0),
                    ),
                    4 => {
                        // A body shorter than one tag.
                        let payload = frame(&aad, &sealed[..size % 16]);
                        let len = payload.len() as u32;
                        (Op::Open, payload, Want::Error(ErrorCode::Malformed, len))
                    }
                    _ => {
                        // A declared AAD length the payload cannot hold.
                        let mut payload = frame(&aad, &plaintext);
                        let overrun = be32(payload.len());
                        payload[12..16].copy_from_slice(&overrun);
                        let len = payload.len() as u32;
                        let op = if decrypt { Op::Open } else { Op::Seal };
                        (op, payload, Want::Error(ErrorCode::Malformed, len))
                    }
                };
                (op, payload, Earns::Answer(want))
            }
            7 => {
                let op = if decrypt {
                    Op::XtsDecrypt
                } else {
                    Op::XtsEncrypt
                };
                let base = if v & 2 == 0 {
                    seed
                } else {
                    u64::MAX - (seed % 4)
                };
                let sector_size = 16 + size % 60;
                let sectors = if bulk {
                    bulk_len(size16, 12) / sector_size
                } else {
                    1 + size % 4
                };
                let mut body = data(sector_size * sectors);
                let header =
                    |sector_size: usize| [&base.to_be_bytes()[..], &be32(sector_size)].concat();
                let (payload, want) = match v >> 2 {
                    0 | 1 => {
                        let payload = [&header(sector_size)[..], &body].concat();
                        for (i, sector) in body.chunks_mut(sector_size).enumerate() {
                            let number = base.wrapping_add(i as u64);
                            xts_oracle::sector(&c, &c, number, sector, decrypt);
                        }
                        (payload, Want::Bytes(body))
                    }
                    2 => {
                        let small = size % 16;
                        let payload = [&header(small)[..], &body].concat();
                        (payload, Want::Error(ErrorCode::BadSectorSize, small as u32))
                    }
                    _ => match size % 3 {
                        0 => {
                            // Shorter than the sector header.
                            let short = data(size % 12);
                            let len = short.len() as u32;
                            (short, Want::Error(ErrorCode::Malformed, len))
                        }
                        1 => (
                            header(sector_size),
                            Want::Error(ErrorCode::BadSectorSize, 0),
                        ),
                        _ => {
                            // Cut 1..sector_size bytes off the last sector.
                            body.truncate(body.len() - 1 - (seed as usize) % (sector_size - 1));
                            let len = body.len() as u32;
                            let payload = [&header(sector_size)[..], &body].concat();
                            (payload, Want::Error(ErrorCode::BadSectorSize, len))
                        }
                    },
                };
                (op, payload, Earns::Answer(want))
            }
            8 => {
                let good = data(16 + 8 * (size % 12));
                let blob = aead::wrap(&c, &good).expect("a wrappable length");
                let (op, payload, want) = match v % 5 {
                    0 => (Op::WrapKey, good, Want::Bytes(blob)),
                    1 => {
                        let bad = data([0, 8, 12, 17, 23][size % 5]);
                        let len = bad.len() as u32;
                        (Op::WrapKey, bad, Want::Error(ErrorCode::Malformed, len))
                    }
                    2 => (Op::UnwrapKey, blob, Want::Bytes(good)),
                    3 => (
                        Op::UnwrapKey,
                        flip(blob, seed),
                        Want::Error(ErrorCode::TagMismatch, 0),
                    ),
                    _ => {
                        let bad = data([16, 25, 31][size % 3]);
                        let len = bad.len() as u32;
                        (Op::UnwrapKey, bad, Want::Error(ErrorCode::Malformed, len))
                    }
                };
                (op, payload, Earns::Answer(want))
            }
            9 => {
                let payload = data(if bulk {
                    bulk_len(size16, 0)
                } else {
                    size % 200
                });
                (
                    Op::Ping,
                    payload.clone(),
                    Earns::Answer(Want::Bytes(payload)),
                )
            }
            _ => {
                let payload = data(1 + size % 32);
                let len = payload.len() as u32;
                (
                    Op::GetStats,
                    payload,
                    Earns::Answer(Want::Error(ErrorCode::Malformed, len)),
                )
            }
        }
    }

    /// The session id the client stamps on the next burst.
    fn stamped(&self) -> u32 {
        match &self.live {
            Some((Sid::Known(sid), _)) => *sid,
            Some((Sid::Reply(_), _)) => unreachable!("resolved after every burst"),
            None => 0,
        }
    }

    /// The reply session the model expects right now.
    fn reply_sid(&self) -> Option<Sid> {
        self.live.as_ref().map(|(sid, _)| *sid)
    }
}

fn spawn_server() -> ServiceHandle {
    spawn_on(&[BackendSpec::Auto; 2])
}

fn spawn_on(farm: &[BackendSpec]) -> ServiceHandle {
    let config = ServiceConfig::builder()
        .farm(farm)
        .event_threads(1)
        .queue_capacity(MAX_BURST)
        .max_connections(4)
        .idle_timeout(Duration::from_secs(30))
        .build()
        .expect("valid law config");
    Server::new(config)
        .spawn("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// Waits until the server holds no connection.
fn wait_closed(server: &ServiceHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 {
        assert!(Instant::now() < deadline, "a connection lingers");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn inflight(server: &ServiceHandle) -> Option<i64> {
    server
        .registry()
        .snapshot()
        .gauge("service.pipeline.inflight")
}

/// An 11-byte-header PING in the retired version-1 layout.
fn v1_ping() -> Vec<u8> {
    let mut wire = be32(11).to_vec();
    wire.extend_from_slice(&[1, Op::Ping as u8, 0]);
    wire.extend_from_slice(&[0, 0, 0, 9, 0, 0, 0, 0]);
    wire
}

/// The first `keep` bytes of a well-formed PING frame whose payload is
/// `len` bytes.
fn truncated_ping(len: usize, keep: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    Frame::request(Op::Ping, 0, 0, 0, vec![0xEE; len])
        .write_to(&mut wire)
        .expect("a frame within the limit");
    wire.truncate(keep);
    wire
}

/// A generator step (xorshift64).
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Writes `wire` in pieces cut at points drawn from `cuts`, flushing
/// each and pausing briefly after it, so the server's reads end inside
/// heads and bodies. Most pieces are a few bytes; some run for tens of
/// KiB.
fn write_fragments(stream: &TcpStream, wire: &[u8], cuts: &mut u64) {
    let mut rest = wire;
    while !rest.is_empty() {
        let x = next(cuts);
        let limit = if x.is_multiple_of(4) { 48 * 1024 } else { 24 };
        let (piece, tail) = rest.split_at((1 + (x >> 8) as usize % limit).min(rest.len()));
        let mut w = stream;
        w.write_all(piece).expect("send piece");
        w.flush().expect("flush piece");
        thread::sleep(Duration::from_micros(100));
        rest = tail;
    }
}

/// Runs one script against a fresh server and checks the law. The last
/// burst ends with nothing (`ending` 0), a version-1 frame (1), a
/// truncated small frame and a half-close (2), or a bulk frame cut
/// mid-body and a half-close (3). `cuts` seeds where every burst is cut
/// into pieces on the wire.
fn run_case(script: &[Vec<Step>], ending: usize, mut cuts: u64) {
    let server = spawn_server();
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    cuts |= 1;
    let mut model = Model::default();
    let mut corr = 0u32;
    for (b, burst) in script.iter().enumerate() {
        let last = b + 1 == script.len();
        let stamped = model.stamped();
        let mut wire = Vec::new();
        let mut plan = Vec::with_capacity(burst.len());
        // The cut-off bulk frame of ending 3 counts against the burst.
        let mut bulk_left = BULK_PER_BURST - usize::from(last && ending == 3);
        for (i, &step) in burst.iter().enumerate() {
            corr += 1;
            let bulk = bulk_left > 0 && step.3.is_multiple_of(32);
            bulk_left -= usize::from(bulk);
            let (frame, want) = model.plan(step, (i, corr, stamped), bulk);
            frame.write_to(&mut wire).expect("payloads fit a frame");
            plan.push((corr, want, model.reply_sid()));
        }
        match ending {
            1 if last => wire.extend_from_slice(&v1_ping()),
            2 if last => wire.extend_from_slice(&truncated_ping(20, 19)),
            3 if last => {
                let len = bulk_len(next(&mut cuts) as u16, 0);
                let keep = 19 + 1 + next(&mut cuts) as usize % (len - 1);
                wire.extend_from_slice(&truncated_ping(len, keep));
            }
            _ => {}
        }
        write_fragments(&stream, &wire, &mut cuts);
        if last && ending >= 2 {
            stream.shutdown(Shutdown::Write).expect("half-close");
        }

        // Exactly one reply per request, matched by corr.
        let mut replies: Vec<Option<Frame>> = vec![None; plan.len()];
        for _ in 0..plan.len() {
            let reply = Frame::read_from(&mut &stream)
                .unwrap_or_else(|e| panic!("burst {b}: reply missing: {e}"));
            let i = plan
                .iter()
                .position(|(c, _, _)| *c == reply.corr)
                .unwrap_or_else(|| panic!("burst {b}: stray reply {reply:?}"));
            assert!(replies[i].is_none(), "burst {b}: second reply {reply:?}");
            replies[i] = Some(reply);
        }
        let replies: Vec<Frame> = replies.into_iter().map(Option::unwrap).collect();
        let resolve = |sid: Sid| match sid {
            Sid::Known(id) => id,
            Sid::Reply(j) => replies[j].session,
        };
        for (i, ((corr, want, sid), reply)) in plan.iter().zip(&replies).enumerate() {
            let at = format!("burst {b} request {i} (corr {corr}, want {want:?})");
            assert_eq!(reply.seq, *corr, "{at}: seq");
            match want {
                Want::Bytes(bytes) => {
                    assert_eq!(
                        (reply.status(), reply.error_body()),
                        (Some(Status::Ok), None),
                        "{at}"
                    );
                    assert!(reply.payload == *bytes, "{at}: wrong bytes");
                }
                Want::Rekeyed => {
                    assert_eq!(reply.status(), Some(Status::Ok), "{at}: {reply:?}");
                    assert!(reply.payload.is_empty(), "{at}: payload");
                    assert!(
                        reply.session != 0 && !model.sids.contains(&reply.session),
                        "{at}: session {} is not fresh",
                        reply.session
                    );
                    model.sids.push(reply.session);
                }
                Want::Error(code, detail) => {
                    assert_eq!(reply.error_body(), Some((*code, *detail)), "{at}");
                }
                Want::Stale(live) => {
                    let want = (ErrorCode::StaleSession, resolve(*live));
                    assert_eq!(reply.error_body(), Some(want), "{at}");
                }
            }
            assert_eq!(reply.session, sid.map_or(0, resolve), "{at}: session");
            for key in &model.keys {
                assert!(
                    !reply
                        .payload
                        .windows(key.len())
                        .any(|w| w == key.as_slice()),
                    "{at}: reply carries a key"
                );
            }
        }
        if let Some((sid, key)) = model.live.take() {
            model.live = Some((Sid::Known(resolve(sid)), key));
        }
        assert_eq!(inflight(&server), Some(0), "burst {b}: inflight");
    }

    if ending == 1 {
        let goodbye = Frame::read_from(&mut &stream).expect("the goodbye");
        assert_eq!(goodbye.error_body(), Some((ErrorCode::BadVersion, 1)));
        assert_eq!((goodbye.seq, goodbye.corr), (0, 0));
        *model.errors.entry("bad_version").or_default() += 1;
    }
    if ending != 0 {
        let mut rest = Vec::new();
        (&stream).read_to_end(&mut rest).expect("EOF");
        assert!(rest.is_empty(), "bytes after the last answer: {rest:?}");
    }
    drop(stream);
    wait_closed(&server);
    assert_eq!(inflight(&server), Some(0), "inflight once closed");

    let snap = server.registry().snapshot();
    for op in (0..=255).filter_map(Op::from_u8) {
        let name = format!("service.op.{}.requests", op.name());
        let want = model.ops.get(op.name()).copied().unwrap_or(0);
        assert_eq!(snap.counter(&name).unwrap_or(0), want, "{name}");
    }
    for code in (0..=255).filter_map(ErrorCode::from_u8) {
        let name = format!("service.error.{}", code.name());
        let want = model.errors.get(code.name()).copied().unwrap_or(0);
        assert_eq!(snap.counter(&name).unwrap_or(0), want, "{name}");
    }

    // No shard died: a fresh connection is served.
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    assert_eq!(client.ping(b"alive").expect("ping"), b"alive");
    drop(client);
    server.shutdown();
}

forall!(cases = 32, fn one_connection_obeys_the_wire_law(
    script in vec_of(vec_of(any::<Step>(), 1..MAX_BURST + 1), 1..7),
    ending in 0usize..=3,
    cuts in any::<u64>(),
) {
    run_case(&script, ending, cuts);
});

/// One request of a two-key burst: `(kind, size, seed)`. `kind` picks a
/// farm-lane ECB, CBC or CTR job in either direction or, one time in
/// eight, a re-key that ends its burst.
type Job = (u8, u16, u64);

/// What a two-key request earns: these bytes, or a fresh session under
/// this key.
enum Due {
    Bytes(Vec<u8>),
    Rekey(Vec<u8>),
}

/// One connection of the two-key law: its socket, live session and key.
struct Peer {
    stream: TcpStream,
    sid: u32,
    key: Vec<u8>,
}

impl Peer {
    /// Connects and loads `key`.
    fn keyed(server: &ServiceHandle, key: Vec<u8>) -> Peer {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut peer = Peer {
            stream,
            sid: 0,
            key: Vec::new(),
        };
        let mut wire = Vec::new();
        Frame::request(Op::SetKey, 0, 1, 0, key.clone())
            .write_to(&mut wire)
            .expect("a small frame");
        (&peer.stream).write_all(&wire).expect("send SET_KEY");
        peer.check(vec![(1, Due::Rekey(key))], "SET_KEY");
        peer
    }

    /// Encodes a burst and what each request earns under the key live
    /// when it runs. A re-key ends the burst.
    fn plan(&self, jobs: &[Job], corr: &mut u32) -> (Vec<u8>, Vec<(u32, Due)>) {
        let c = cipher(&self.key);
        let mut wire = Vec::new();
        let mut plan = Vec::new();
        for &(kind, size, seed) in jobs {
            *corr += 1;
            let size = usize::from(size);
            let blocks = bytes(seed, 16 * (BULK_THRESHOLD / 16 + size % 57));
            let iv = bytes(!seed ^ 0x5A, 16);
            let decrypt = kind & 1 == 1;
            let (op, payload, due) = match kind % 8 {
                7 => {
                    let key = key_bytes(seed, self.key.len());
                    (Op::SetKey, key.clone(), Due::Rekey(key))
                }
                0 | 1 => {
                    let mut out = blocks.clone();
                    let op = if decrypt {
                        Ecb::decrypt(&c, &mut out).expect("whole blocks");
                        Op::EcbDecrypt
                    } else {
                        Ecb::encrypt(&c, &mut out).expect("whole blocks");
                        Op::EcbEncrypt
                    };
                    (op, blocks, Due::Bytes(out))
                }
                2 | 3 => {
                    let payload = [&iv[..], &blocks].concat();
                    let mut out = blocks;
                    let op = if decrypt {
                        Cbc::decrypt(&c, &iv, &mut out).expect("whole blocks");
                        Op::CbcDecrypt
                    } else {
                        Cbc::encrypt(&c, &iv, &mut out).expect("whole blocks");
                        Op::CbcEncrypt
                    };
                    (op, payload, Due::Bytes(out))
                }
                _ => {
                    let mut out = bytes(seed, BULK_THRESHOLD + size % (1024 - BULK_THRESHOLD + 1));
                    let payload = [&iv[..], &out].concat();
                    Ctr::apply(&c, &iv, &mut out);
                    (Op::CtrApply, payload, Due::Bytes(out))
                }
            };
            Frame::request(op, 0, *corr, self.sid, payload)
                .write_to(&mut wire)
                .expect("payloads stay small");
            let rekey = matches!(due, Due::Rekey(_));
            plan.push((*corr, due));
            if rekey {
                break;
            }
        }
        (wire, plan)
    }

    /// Reads one reply per planned request and checks it against what
    /// the request earned; a re-key's reply moves the peer to its new
    /// session and key.
    fn check(&mut self, plan: Vec<(u32, Due)>, at: &str) {
        let mut replies = BTreeMap::new();
        for _ in 0..plan.len() {
            let reply = Frame::read_from(&mut &self.stream)
                .unwrap_or_else(|e| panic!("{at}: reply missing: {e}"));
            let corr = reply.corr;
            assert!(replies.insert(corr, reply).is_none(), "{at}: second reply");
        }
        let old = self.sid;
        for (corr, due) in plan {
            let reply = replies
                .remove(&corr)
                .unwrap_or_else(|| panic!("{at}: no reply for corr {corr}"));
            let at = format!("{at}, corr {corr}");
            assert_eq!(reply.error_body(), None, "{at}");
            match due {
                Due::Bytes(want) => {
                    assert_eq!(reply.session, old, "{at}: session");
                    assert!(reply.payload == want, "{at}: not its own key's answer");
                }
                Due::Rekey(key) => {
                    assert_ne!(reply.session, old, "{at}: a fresh session");
                    self.sid = reply.session;
                    self.key = key;
                }
            }
        }
    }
}

/// Runs one two-key script on a server over `farm`.
fn two_key_case(rounds: &[(Vec<Job>, Vec<Job>)], farm: &[BackendSpec]) {
    let server = spawn_on(farm);
    let mut peers = [
        Peer::keyed(&server, key_bytes(1, 16)),
        Peer::keyed(&server, key_bytes(2, 32)),
    ];
    let mut corr = 10;
    for (r, (a, b)) in rounds.iter().enumerate() {
        let plans: Vec<Vec<(u32, Due)>> = [a, b]
            .into_iter()
            .zip(&peers)
            .map(|(jobs, peer)| {
                let (wire, plan) = peer.plan(jobs, &mut corr);
                (&peer.stream).write_all(&wire).expect("send burst");
                plan
            })
            .collect();
        for (p, (peer, plan)) in peers.iter_mut().zip(plans).enumerate() {
            peer.check(plan, &format!("{farm:?} round {r} connection {p}"));
        }
    }
    drop(peers);
    wait_closed(&server);
    assert_eq!(inflight(&server), Some(0), "inflight once closed");
    server.shutdown();
}

forall!(cases = 16, fn two_connections_get_answers_under_their_own_keys(
    rounds in vec_of(
        (vec_of(any::<Job>(), 1..MAX_BURST + 1), vec_of(any::<Job>(), 1..MAX_BURST + 1)),
        1..7,
    ),
) {
    for farm in [&[BackendSpec::Auto][..], &[BackendSpec::Auto; 2]] {
        two_key_case(&rounds, farm);
    }
});

//! Output checks: generated requests with locally computed answers, a
//! sampling verifier, and the audit of the node's own books.
//!
//! Every request the generator sends comes from a [`Pool`] built before
//! the node is spawned: the seeded inputs plus the answer the reference
//! cipher (`rijndael::Aes128`, the plain FIPS-197 implementation)
//! gives for them, so no checking work lands inside a timed window. The
//! [`Verifier`] compares every 32nd reply of a window, its first and its
//! last against those answers. After each window the node's `GET_STATS`
//! delta must show exactly the requests the generator tallied, no typed
//! errors, and an empty pipeline.

use std::collections::BTreeMap;

use rijndael::aead::{Aead, Gcm, Xts};
use rijndael::modes::{Ctr, Ecb};
use rijndael::Aes128;
use service::Op;
use testkit::Rng;

use crate::stats::ServerStats;

/// Replies between two sampled checks.
const SAMPLE_EVERY: u64 = 32;

/// One generated request and the reply it must get.
#[derive(Debug, Clone)]
pub struct Request {
    /// The wire op.
    pub op: Op,
    /// The full request payload, as it goes on the wire.
    pub payload: Vec<u8>,
    /// The reply payload the reference cipher computed.
    pub expected: Vec<u8>,
}

/// A fixed set of requests under one key, drawn round-robin.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The session key every request is answered under.
    pub key: [u8; 16],
    /// The requests.
    pub requests: Vec<Request>,
}

impl Pool {
    /// An empty pool under a fresh random key.
    #[must_use]
    pub fn new(rng: &mut Rng) -> Pool {
        Pool {
            key: rng.gen_array(),
            requests: Vec::new(),
        }
    }

    /// The `i`th request, cycling through the pool.
    #[must_use]
    pub fn get(&self, i: u64) -> &Request {
        &self.requests[(i % self.requests.len() as u64) as usize]
    }

    /// Adds `n` CTR requests of `len` bytes: counter block ‖ data.
    #[must_use]
    pub fn ctr(mut self, rng: &mut Rng, n: usize, len: usize) -> Pool {
        let aes = Aes128::new(&self.key);
        for _ in 0..n {
            let iv: [u8; 16] = rng.gen_array();
            let data = rng.gen_vec(len);
            let mut expected = data.clone();
            Ctr::apply(&aes, &iv, &mut expected);
            self.requests.push(Request {
                op: Op::CtrApply,
                payload: [&iv[..], &data].concat(),
                expected,
            });
        }
        self
    }

    /// Adds `n` ECB encryptions of `len` bytes (a whole number of
    /// blocks).
    #[must_use]
    pub fn ecb(mut self, rng: &mut Rng, n: usize, len: usize) -> Pool {
        let aes = Aes128::new(&self.key);
        for _ in 0..n {
            let data = rng.gen_vec(len);
            let mut expected = data.clone();
            Ecb::encrypt_batched(&aes, &mut expected).expect("whole blocks");
            self.requests.push(Request {
                op: Op::EcbEncrypt,
                payload: data,
                expected,
            });
        }
        self
    }

    /// Adds `n` GCM seals of `len` bytes with a 16-byte AAD: nonce ‖
    /// AAD length ‖ AAD ‖ plaintext.
    #[must_use]
    pub fn seal(mut self, rng: &mut Rng, n: usize, len: usize) -> Pool {
        let gcm = Gcm::new(Aes128::new(&self.key));
        for _ in 0..n {
            let nonce: [u8; 12] = rng.gen_array();
            let aad: [u8; 16] = rng.gen_array();
            let plaintext = rng.gen_vec(len);
            let expected = gcm.seal(&nonce, &aad, &plaintext);
            let aad_len = (aad.len() as u32).to_be_bytes();
            self.requests.push(Request {
                op: Op::Seal,
                payload: [&nonce[..], &aad_len, &aad, &plaintext].concat(),
                expected,
            });
        }
        self
    }

    /// Adds `n` XTS encryptions of `len` bytes in `sector`-byte sectors
    /// from a random base: base ‖ sector size ‖ data. The service keys
    /// both XTS lanes with the session key, so the reference does too.
    #[must_use]
    pub fn xts(mut self, rng: &mut Rng, n: usize, len: usize, sector: usize) -> Pool {
        let xts = Xts::new(Aes128::new(&self.key), Aes128::new(&self.key));
        for _ in 0..n {
            let base = rng.next_u64();
            let data = rng.gen_vec(len);
            let mut expected = data.clone();
            for (i, chunk) in expected.chunks_mut(sector).enumerate() {
                xts.encrypt_sector(base.wrapping_add(i as u64), chunk)
                    .expect("sectors are at least one block");
            }
            let size = u32::try_from(sector).expect("sector fits the wire field");
            self.requests.push(Request {
                op: Op::XtsEncrypt,
                payload: [&base.to_be_bytes()[..], &size.to_be_bytes(), &data].concat(),
                expected,
            });
        }
        self
    }
}

/// Checks sampled replies of one window and counts what went wrong.
#[derive(Debug, Default)]
pub struct Verifier<'a> {
    /// Replies compared against their expected bytes.
    pub checked: u64,
    /// Sampled replies whose bytes differed.
    pub mismatched: u64,
    /// The most recent unsampled reply, held until the window ends.
    last: Option<(&'a [u8], Vec<u8>)>,
}

impl<'a> Verifier<'a> {
    /// Takes reply number `n` of the window (0-based) for `request`.
    pub fn reply(&mut self, n: u64, request: &'a Request, reply: Vec<u8>) {
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.last = None;
            self.compare(&request.expected, &reply);
        } else {
            self.last = Some((&request.expected, reply));
        }
    }

    /// Ends the window: the last reply is always checked.
    pub fn finish(&mut self) {
        if let Some((expected, reply)) = self.last.take() {
            self.compare(expected, &reply);
        }
    }

    fn compare(&mut self, expected: &[u8], reply: &[u8]) {
        self.checked += 1;
        if expected != reply {
            self.mismatched += 1;
        }
    }
}

/// Requests the generator sent in a window, by op name.
#[derive(Debug, Clone, Default)]
pub struct Tally(pub BTreeMap<&'static str, u64>);

impl Tally {
    /// Counts `n` more requests of `op`.
    pub fn add(&mut self, op: Op, n: u64) {
        *self.0.entry(op.name()).or_default() += n;
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: &Tally) {
        for (op, n) in &other.0 {
            *self.0.entry(op).or_default() += n;
        }
    }
}

/// Compares a node's `GET_STATS` delta with the generator's tally and
/// returns one line per discrepancy. `GET_STATS` itself is left out:
/// the audit's own reads land in it.
#[must_use]
pub fn audit(window: &ServerStats, sent: &Tally) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, &count) in &window.counters {
        if let Some(op) = name
            .strip_prefix("service.op.")
            .and_then(|n| n.strip_suffix(".requests"))
        {
            let want = sent.0.get(op).copied().unwrap_or(0);
            if op != Op::GetStats.name() && count != want {
                problems.push(format!(
                    "node counted {count} {op} requests, generator sent {want}"
                ));
            }
        } else if name.starts_with("service.error.") && count > 0 {
            problems.push(format!("node answered {count} typed errors {name}"));
        }
    }
    for (op, &want) in &sent.0 {
        let name = format!("service.op.{op}.requests");
        if want > 0 && !window.counters.contains_key(&name) {
            problems.push(format!("node has no {name}, generator sent {want}"));
        }
    }
    match window.gauges.get("service.pipeline.inflight") {
        Some(0) => {}
        other => problems.push(format!(
            "service.pipeline.inflight is {other:?} after the window"
        )),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_match_the_wire_layouts_and_known_answers() {
        let mut rng = Rng::seed_from_u64(7);
        let pool = Pool::new(&mut rng)
            .ctr(&mut rng, 2, 64)
            .ecb(&mut rng, 1, 32)
            .seal(&mut rng, 1, 40)
            .xts(&mut rng, 1, 64, 32);
        assert_eq!(pool.requests[0].payload.len(), 16 + 64);
        assert_eq!(pool.requests[2].expected.len(), 32);
        assert_eq!(pool.requests[3].payload.len(), 12 + 4 + 16 + 40);
        assert_eq!(pool.requests[3].expected.len(), 40 + 16);
        assert_eq!(pool.requests[4].payload.len(), 8 + 4 + 64);
        assert_eq!(pool.get(5).op, Op::CtrApply);

        // FIPS-197 appendix C.1 through the same oracle the pools use.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block: Vec<u8> = (0..16u8).map(|i| i * 0x11).collect();
        Ecb::encrypt_batched(&Aes128::new(&key), &mut block).unwrap();
        assert_eq!(block[..4], [0x69, 0xc4, 0xe0, 0xd8]);
    }

    #[test]
    fn verifier_samples_first_every_32nd_and_last() {
        let request = Request {
            op: Op::Ping,
            payload: Vec::new(),
            expected: vec![1],
        };
        let mut v = Verifier::default();
        for n in 0..70 {
            let reply = if n == 69 { vec![2] } else { vec![1] };
            v.reply(n, &request, reply);
        }
        v.finish();
        // 0, 32, 64 and the last one (69), which is wrong.
        assert_eq!((v.checked, v.mismatched), (4, 1));
    }

    #[test]
    fn audit_flags_missing_extra_and_errored_requests() {
        let mut window = ServerStats::default();
        window
            .counters
            .insert("service.op.ctr_apply.requests".into(), 10);
        window
            .counters
            .insert("service.op.get_stats.requests".into(), 1);
        window.gauges.insert("service.pipeline.inflight".into(), 0);
        let mut sent = Tally::default();
        sent.add(Op::CtrApply, 10);
        assert!(audit(&window, &sent).is_empty());

        sent.add(Op::Seal, 1);
        window.counters.insert("service.error.busy".into(), 2);
        window.gauges.insert("service.pipeline.inflight".into(), 1);
        assert_eq!(audit(&window, &sent).len(), 3);
    }
}

//! The unified client surface: one object-safe trait over a single
//! node or a whole cluster, and the one op codec both share.
//!
//! [`Transport`] is the API every consumer — tests, benches, examples —
//! should program against. An implementation supplies a small core: the
//! two re-keys, one request/reply exchange ([`Transport::call`]), the
//! telemetry fetch and the pipelined submit/collect pair. Every typed op
//! is a provided method written once, here, on top of `call`: it lays
//! out the op's payload (a fixed prefix — an IV; a nonce and the AAD
//! length; a sector header — then the caller's own slices, never
//! copied) and reads the reply's shape, including the `Ok(false)` /
//! `Ok(None)` verdicts for a well-formed `BadTag` / `TagMismatch`.
//! Adding an op means writing one method in this file.
//!
//! The single-node [`Client`](crate::client::Client) implements the
//! core over one TCP connection; `rijndael-cluster`'s `ClusterClient`
//! implements it by routing each exchange to the session's home node,
//! through one `Client` per session. Code written against
//! `&mut dyn Transport` swaps between the two without changes, which is
//! the whole point: the cluster is *behaviourally* one service, and the
//! type system should say so.
//!
//! The trait is deliberately object-safe (no generics, no `Self`
//! returns) so callers can hold `Box<dyn Transport>` and choose the
//! backing at runtime — a config flag away from a fleet.

use crate::client::{ClientError, PipelinedJob};
use crate::protocol::{ErrorCode, Frame, Op};

/// One logical crypto service, whether backed by a single node or a
/// cluster. See the [module docs](self) for the design: implementations
/// supply the required core, and the typed ops are provided on top of
/// [`Transport::call`].
pub trait Transport {
    /// Loads an AES key (16, 24 or 32 bytes), creating a fresh session;
    /// returns the session id used on every subsequent request.
    ///
    /// # Errors
    ///
    /// Typed service errors (`BadKeyLength` for any other length) or
    /// transport failures.
    fn set_key(&mut self, key: &[u8]) -> Result<u32, ClientError>;

    /// Re-keys from an RFC 3394 blob wrapped under the **live**
    /// session's key: the server unwraps it in place and the unwrapped
    /// key becomes the new session key, so raw key bytes never cross
    /// the wire. Returns the fresh session id.
    ///
    /// # Errors
    ///
    /// Typed service errors (`NoSession` without a live session,
    /// `TagMismatch` on a tampered blob, `BadKeyLength` when the blob
    /// unwraps to a non-key) or transport failures; every failure
    /// leaves the current session live.
    fn set_key_wrapped(&mut self, wrapped: &[u8]) -> Result<u32, ClientError>;

    /// One request/reply round trip under the live session. The
    /// request's payload is the concatenation of `parts` (at most
    /// three), sent straight from the caller's slices; the reply is
    /// matched by correlation id and returned when its status is `Ok`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Service`] for a typed `Error` reply;
    /// [`ClientError::Protocol`] for more than three parts (nothing is
    /// sent) or a reply of any other kind; transport failures.
    fn call(&mut self, op: Op, parts: &[&[u8]]) -> Result<Frame, ClientError>;

    /// Fetches the `telemetry/1` JSON snapshot: per-opcode request
    /// counts, error tallies, connection gauges and the farm's
    /// `engine.*` instruments. Works without a session; cluster
    /// implementations merge every reachable node's.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures;
    /// [`ClientError::Protocol`] if the payload is not UTF-8.
    fn stats(&mut self) -> Result<String, ClientError>;

    /// Sends an engine op **without waiting for the reply** and returns
    /// its correlation id. Any number of pipelined requests may be in
    /// flight; collect them with [`Transport::collect_next`] /
    /// [`Transport::collect_all`] — completions arrive in engine order,
    /// not submission order. The request leaves at once when nothing is
    /// in flight; otherwise it may wait in the client, and leaves no
    /// later than the client's next read or write.
    ///
    /// # Errors
    ///
    /// Transport failures on the send. Server-side failures (`Busy`,
    /// `RaggedLength`, stale session, ...) come back as the job's
    /// [`PipelinedJob::result`] at collection time.
    fn pipeline(&mut self, op: Op, iv: Option<&[u8; 16]>, data: &[u8]) -> Result<u32, ClientError>;

    /// Receives the next pipelined completion (stashed replies first,
    /// then the wire), blocking until one arrives. Requests still
    /// waiting in the client are written before it waits.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when nothing is in flight;
    /// [`ClientError::StrayReply`] on a duplicate or unknown
    /// correlation id; unsolicited goodbyes surface as
    /// [`ClientError::Service`]; transport failures.
    fn collect_next(&mut self) -> Result<PipelinedJob, ClientError>;

    /// Pipelined requests sent and not yet collected.
    fn in_flight(&self) -> usize;

    /// Collects every outstanding pipelined completion, in arrival
    /// order.
    ///
    /// # Errors
    ///
    /// As [`Transport::collect_next`]; already-collected jobs are not
    /// re-delivered after an error.
    fn collect_all(&mut self) -> Result<Vec<PipelinedJob>, ClientError> {
        let mut jobs = Vec::with_capacity(self.in_flight());
        while self.in_flight() > 0 {
            jobs.push(self.collect_next()?);
        }
        Ok(jobs)
    }

    /// Liveness probe; the service echoes `payload`.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures.
    fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::Ping, &[payload])?.payload)
    }

    /// ECB-encrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// Typed service errors (`NoSession`, `RaggedLength`, `Busy`...) or
    /// transport failures.
    fn ecb_encrypt(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::EcbEncrypt, &[plaintext])?.payload)
    }

    /// ECB-decrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// As [`Transport::ecb_encrypt`].
    fn ecb_decrypt(&mut self, ciphertext: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::EcbDecrypt, &[ciphertext])?.payload)
    }

    /// CBC-encrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// As [`Transport::ecb_encrypt`].
    fn cbc_encrypt(&mut self, iv: &[u8; 16], plaintext: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::CbcEncrypt, &[iv, plaintext])?.payload)
    }

    /// CBC-decrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// As [`Transport::ecb_encrypt`].
    fn cbc_decrypt(&mut self, iv: &[u8; 16], ciphertext: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::CbcDecrypt, &[iv, ciphertext])?.payload)
    }

    /// Applies the CTR keystream (encrypt = decrypt, any length).
    ///
    /// # Errors
    ///
    /// As [`Transport::ecb_encrypt`].
    fn ctr_apply(&mut self, counter: &[u8; 16], data: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::CtrApply, &[counter, data])?.payload)
    }

    /// Computes the AES-CMAC tag of `message` under the session key.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures;
    /// [`ClientError::Protocol`] for a reply that is not 16 bytes.
    fn cmac_tag(&mut self, message: &[u8]) -> Result<[u8; 16], ClientError> {
        let tag = self.call(Op::CmacTag, &[message])?.payload;
        tag.as_slice()
            .try_into()
            .map_err(|_| ClientError::Protocol(format!("{}-byte CMAC tag", tag.len())))
    }

    /// Verifies an AES-CMAC tag; `Ok(false)` on a well-formed mismatch.
    ///
    /// # Errors
    ///
    /// Typed service errors other than `BadTag`, or transport failures.
    fn cmac_verify(&mut self, message: &[u8], tag: &[u8; 16]) -> Result<bool, ClientError> {
        verdict(
            self.call(Op::CmacVerify, &[tag, message]),
            ErrorCode::BadTag,
        )
        .map(|r| r.is_some())
    }

    /// AES-GCM seal under the session key: returns ciphertext ‖ 16-byte
    /// tag. The nonce must be unique per (key, message) — reuse forfeits
    /// both confidentiality and authenticity.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures.
    fn seal(
        &mut self,
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let prefix = aead_prefix(nonce, aad);
        Ok(self.call(Op::Seal, &[&prefix, aad, plaintext])?.payload)
    }

    /// AES-GCM open; `Ok(None)` on a well-formed authentication failure
    /// (a tampered ciphertext, AAD, nonce or tag), mirroring
    /// [`Transport::cmac_verify`]'s verdict-not-error shape.
    ///
    /// # Errors
    ///
    /// Typed service errors other than `TagMismatch`, or transport
    /// failures.
    fn open(
        &mut self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Option<Vec<u8>>, ClientError> {
        let prefix = aead_prefix(nonce, aad);
        verdict(
            self.call(Op::Open, &[&prefix, aad, sealed]),
            ErrorCode::TagMismatch,
        )
    }

    /// Wraps `key_data` (RFC 3394) under the session key; the result is
    /// 8 bytes longer than the input.
    ///
    /// # Errors
    ///
    /// Typed service errors (`Malformed` unless `key_data` is ≥ 16
    /// bytes and a multiple of 8) or transport failures.
    fn wrap_key(&mut self, key_data: &[u8]) -> Result<Vec<u8>, ClientError> {
        Ok(self.call(Op::WrapKey, &[key_data])?.payload)
    }

    /// Unwraps an RFC 3394 blob; `Ok(None)` when the integrity check
    /// fails.
    ///
    /// # Errors
    ///
    /// Typed service errors other than `TagMismatch`, or transport
    /// failures.
    fn unwrap_key(&mut self, wrapped: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        verdict(self.call(Op::UnwrapKey, &[wrapped]), ErrorCode::TagMismatch)
    }

    /// XTS-encrypts `data` as consecutive `sector_size`-byte sectors
    /// starting at sector number `sector_base` (sector `i` uses tweak
    /// `sector_base + i`, wrapping). `data` must be a non-empty whole
    /// number of sectors and `sector_size` at least one AES block.
    ///
    /// # Errors
    ///
    /// Typed service errors (`BadSectorSize` on bad geometry,
    /// `NoSession`, ...) or transport failures.
    fn xts_encrypt(
        &mut self,
        sector_base: u64,
        sector_size: u32,
        data: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let header = sector_header(sector_base, sector_size);
        Ok(self.call(Op::XtsEncrypt, &[&header, data])?.payload)
    }

    /// XTS-decrypts `data`; the inverse of [`Transport::xts_encrypt`]
    /// under the same sector geometry.
    ///
    /// # Errors
    ///
    /// As [`Transport::xts_encrypt`].
    fn xts_decrypt(
        &mut self,
        sector_base: u64,
        sector_size: u32,
        data: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let header = sector_header(sector_base, sector_size);
        Ok(self.call(Op::XtsDecrypt, &[&header, data])?.payload)
    }
}

/// The fixed prefix of a SEAL/OPEN payload: the nonce and the AAD
/// length (the AAD and the body follow as the caller's slices).
fn aead_prefix(nonce: &[u8; 12], aad: &[u8]) -> [u8; 16] {
    let mut prefix = [0u8; 16];
    prefix[..12].copy_from_slice(nonce);
    prefix[12..].copy_from_slice(&(aad.len() as u32).to_be_bytes());
    prefix
}

/// The fixed prefix of an XTS payload: the first sector number and the
/// sector size (the caller's data follows).
fn sector_header(sector_base: u64, sector_size: u32) -> [u8; 12] {
    let mut header = [0u8; 12];
    header[..8].copy_from_slice(&sector_base.to_be_bytes());
    header[8..].copy_from_slice(&sector_size.to_be_bytes());
    header
}

/// The reply of an op whose well-formed failure is a verdict, not an
/// error: a typed `code` reply becomes `Ok(None)`.
fn verdict(
    reply: Result<Frame, ClientError>,
    code: ErrorCode,
) -> Result<Option<Vec<u8>>, ClientError> {
    match reply {
        Ok(reply) => Ok(Some(reply.payload)),
        Err(ClientError::Service { code: got, .. }) if got == code => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    // Object safety is the trait's load-bearing property: a `dyn`
    // mention fails to compile if any method breaks it.
    #[allow(dead_code)]
    fn assert_object_safe(t: &mut dyn Transport) -> usize {
        t.in_flight()
    }

    #[test]
    fn client_is_usable_through_the_trait_object() {
        let config = crate::ServiceConfig::builder()
            .event_threads(1)
            .build()
            .unwrap();
        let server = crate::Server::new(config).spawn("127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let t: &mut dyn Transport = &mut client;
        t.set_key(&[7u8; 16]).unwrap();
        let ct = t.ecb_encrypt(&[0u8; 16]).unwrap();
        assert_eq!(t.ecb_decrypt(&ct).unwrap(), vec![0u8; 16]);
        assert!(t.stats().unwrap().contains("telemetry/1"));
        assert_eq!(t.in_flight(), 0);
        server.shutdown();
    }
}

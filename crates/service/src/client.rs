//! Blocking loopback client with a pipelined submit/collect API: one
//! [`Client`] per connection, typed methods over the raw frame layer.
//!
//! The wire discipline lives in [`NodeConn`] — one TCP connection to
//! one service node, owning the sequence counter, the live session id,
//! correlation matching and the bounded stray-reply stash. [`Client`]
//! wraps a `NodeConn` with typed per-op methods; the cluster router
//! drives one connection per node through the same core, which is why
//! the two never disagree about framing.
//!
//! The client maps [`Status::Error`] replies into
//! [`ClientError::Service`], and matches every reply to its request by
//! **correlation id** — never by arrival order. That makes it safe
//! against the server's out-of-order completions: a reply for a
//! different outstanding request is stashed and delivered when its own
//! call asks for it, and only a reply that matches *nothing*
//! outstanding is an error ([`ClientError::StrayReply`] — the old
//! client failed hard on any sequence mismatch, with no way to
//! resynchronise). The stash is bounded at [`NodeConn::STASH_CAP`]
//! frames: a caller that abandons correlation ids can no longer grow
//! it without limit — the oldest stashed reply is dropped instead and
//! counted in [`NodeConn::stash_evictions`].
//!
//! Two request disciplines are exposed:
//!
//! * **blocking** — [`Client::ping`], [`Client::ecb_encrypt`], ... :
//!   send one request, wait for its reply;
//! * **pipelined** — [`Client::pipeline`] sends without waiting
//!   (depth-N in flight per connection), [`Client::collect_next`] /
//!   [`Client::collect_all`] receive completions in whatever order the
//!   session finished them; a session at capacity answers the job with
//!   a typed `Busy`, to be retried after collecting.
//!
//! Every frame uses the one wire layout ([`crate::protocol`]), and no
//! call copies the caller's bytes: a request leaves as its head, its
//! fixed prefix (an IV; a nonce and AAD length; a sector header) and the
//! caller's own slices in one vectored write, and a reply body is read
//! straight into the payload the call returns. The raw
//! [`Client::send_raw`] / [`Client::recv_raw`] pair is for protocol
//! tests that need to send deliberately malformed traffic.

use std::collections::HashSet;
use std::fmt;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    encode_head, write_parts, ErrorCode, Frame, Op, RecvBuffer, RecvError, Status,
};

/// Bytes of the per-connection read buffer that small replies arrive
/// through. It is allocated per connection, and a cluster router opens
/// a connection per session, so it stays small: a bulk reply body does
/// not pass through it.
const READ_BUF: usize = 16 * 1024;

/// Most payload parts one request carries: a fixed prefix and up to two
/// caller slices.
const MAX_PARTS: usize = 3;

/// Failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Broken framing in a reply.
    Recv(RecvError),
    /// The server answered with a typed error.
    Service {
        /// The typed failure code.
        code: ErrorCode,
        /// The code-specific detail value.
        detail: u32,
    },
    /// A reply whose correlation id matches no outstanding request —
    /// a duplicate, or an answer to something this client never sent.
    StrayReply {
        /// The unmatched correlation id.
        corr: u32,
    },
    /// A cluster node stayed down through a reconnect attempt: the
    /// router could neither reach it nor re-establish the session. The
    /// raw transport failure was already consumed by the retry — this
    /// is the typed verdict that replaces it.
    NodeUnreachable {
        /// The cluster's index for the unreachable node.
        node: usize,
    },
    /// The reply did not have the shape the call expected.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Recv(e) => write!(f, "framing error: {e}"),
            ClientError::Service { code, detail } => {
                write!(f, "service error: {code} (detail {detail})")
            }
            ClientError::StrayReply { corr } => {
                write!(f, "stray reply: correlation id {corr} matches no request")
            }
            ClientError::NodeUnreachable { node } => {
                write!(f, "cluster node {node} unreachable after reconnect attempt")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(io) => ClientError::Io(io),
            other => ClientError::Recv(other),
        }
    }
}

/// One pipelined completion, delivered by [`Client::collect_next`] in
/// completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedJob {
    /// The correlation id [`Client::pipeline`] returned for the
    /// request.
    pub corr: u32,
    /// The processed bytes, or the typed per-job failure (`Busy`,
    /// `RaggedLength`, ...).
    pub result: Result<Vec<u8>, (ErrorCode, u32)>,
}

/// The wire core: one TCP connection to one service node.
///
/// `NodeConn` owns everything a correct conversation needs — the
/// sequence counter, the live session id, the set of outstanding
/// correlation ids and the bounded stash of
/// out-of-order replies. [`Client`] layers the typed per-op methods on
/// top; `rijndael-cluster`'s router drives one `NodeConn`-backed
/// client per node, so single-node and cluster traffic share one
/// framing implementation.
///
/// Replies arrive through a [`RecvBuffer`] fed by a 16 KiB read
/// buffer, so small replies — pipelined ones included — are parsed out
/// of one `read`; a reply body still arriving when its head is parsed
/// is read straight into its own payload, sized from the head, with no
/// staging copy.
pub struct NodeConn {
    stream: TcpStream,
    inbuf: RecvBuffer,
    read_buf: Box<[u8]>,
    seq: u32,
    session: u32,
    /// Correlation ids of pipelined requests still awaiting replies.
    pending: HashSet<u32>,
    /// Out-of-order pipelined replies received while waiting for
    /// something else, in arrival order; never longer than
    /// [`NodeConn::STASH_CAP`].
    stash: Vec<Frame>,
    /// Stashed replies dropped at the cap (their correlation ids are
    /// forgotten with them).
    stash_evicted: u64,
}

impl fmt::Debug for NodeConn {
    /// The conversation's state, not its buffers' bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeConn")
            .field("stream", &self.stream)
            .field("seq", &self.seq)
            .field("session", &self.session)
            .field("in_flight", &self.pending.len())
            .field("stashed", &self.stash.len())
            .field("buffered", &self.inbuf.len())
            .finish_non_exhaustive()
    }
}

impl NodeConn {
    /// Most out-of-order replies held for later collection before the
    /// oldest is dropped. A caller that abandons correlation ids (sends
    /// pipelined work and never collects) previously grew the stash
    /// without bound; now it saturates here.
    pub const STASH_CAP: usize = 1024;

    /// Connects (with `TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// Propagates connect/setsockopt failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<NodeConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NodeConn {
            stream,
            inbuf: RecvBuffer::new(),
            read_buf: vec![0u8; READ_BUF].into_boxed_slice(),
            seq: 0,
            session: 0,
            pending: HashSet::new(),
            stash: Vec::new(),
            stash_evicted: 0,
        })
    }

    /// The live session id (0 before the first `SET_KEY`).
    #[must_use]
    pub fn session(&self) -> u32 {
        self.session
    }

    /// Pipelined requests sent and not yet collected. A stashed reply
    /// counts until its own collection call delivers it (the stash only
    /// ever holds replies whose correlation id is still outstanding, so
    /// the pending set alone is the honest tally — the old
    /// `pending + stash` sum double-counted every stashed reply).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Stashed replies dropped at [`NodeConn::STASH_CAP`] over the
    /// connection's lifetime.
    #[must_use]
    pub fn stash_evictions(&self) -> u64 {
        self.stash_evicted
    }

    fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Sends one request under the live session, its payload the
    /// concatenation of `parts` (at most three), straight from the
    /// caller's slices in one vectored write. Returns its sequence
    /// number, which is also its correlation id.
    fn send(&mut self, op: Op, parts: &[&[u8]]) -> io::Result<u32> {
        let seq = self.next_seq();
        let len = parts.iter().map(|p| p.len()).sum();
        let head = encode_head(op as u8, 0, seq, self.session, seq, len)?;
        let mut all: [&[u8]; 1 + MAX_PARTS] = [&[]; 1 + MAX_PARTS];
        all[0] = &head;
        all[1..=parts.len()].copy_from_slice(parts);
        write_parts(&mut self.stream, all)?;
        Ok(seq)
    }

    /// Sends a frame verbatim (protocol-test escape hatch).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn send_raw(&mut self, frame: &Frame) -> io::Result<()> {
        frame.write_to(&mut self.stream)
    }

    /// Reads the next reply frame verbatim (protocol-test escape
    /// hatch). Bypasses correlation matching — mixing this with
    /// outstanding pipelined requests will misroute replies.
    ///
    /// # Errors
    ///
    /// Transport or framing errors.
    pub fn recv_raw(&mut self) -> Result<Frame, RecvError> {
        loop {
            if let Some(frame) = self.inbuf.next_frame()? {
                return Ok(frame);
            }
            if self.inbuf.start_body(|len, _| Vec::with_capacity(len)) {
                self.inbuf.read_body(&self.stream)?;
                continue;
            }
            let n = match (&self.stream).read(&mut self.read_buf) {
                Ok(0) => return Err(RecvError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            self.inbuf.extend_from_slice(&self.read_buf[..n]);
        }
    }

    /// Stashes an out-of-order reply, evicting the oldest stashed frame
    /// (and forgetting its correlation id) once the cap is reached.
    fn stash_reply(&mut self, reply: Frame) {
        if self.stash.len() >= Self::STASH_CAP {
            let evicted = self.stash.remove(0);
            self.pending.remove(&evicted.corr);
            self.stash_evicted += 1;
        }
        self.stash.push(reply);
    }

    /// Reads until the reply correlated `want` arrives; pipelined
    /// replies that arrive in between are stashed for their own
    /// collection calls.
    fn recv_matched(&mut self, want: u32) -> Result<Frame, ClientError> {
        loop {
            let reply = self.recv_raw()?;
            if reply.corr == want {
                return Ok(reply);
            }
            if self.pending.contains(&reply.corr) {
                self.stash_reply(reply);
                continue;
            }
            // An unsolicited goodbye (idle timeout, shutdown) carries
            // corr 0 and outranks whatever we were waiting for.
            if reply.corr == 0 {
                if let Some((code, detail)) = reply.error_body() {
                    return Err(ClientError::Service { code, detail });
                }
            }
            return Err(ClientError::StrayReply { corr: reply.corr });
        }
    }

    /// Request/reply round trip over `parts` (see [`NodeConn::send`]);
    /// typed `Error` replies become [`ClientError::Service`].
    fn call(&mut self, op: Op, parts: &[&[u8]]) -> Result<Frame, ClientError> {
        let seq = self.send(op, parts)?;
        let reply = self.recv_matched(seq)?;
        if let Some((code, detail)) = reply.error_body() {
            return Err(ClientError::Service { code, detail });
        }
        Ok(reply)
    }

    /// Receives the next pipelined completion (stashed replies first,
    /// then the wire), blocking until one arrives.
    ///
    /// # Errors
    ///
    /// See [`Client::collect_next`].
    fn collect_next(&mut self) -> Result<PipelinedJob, ClientError> {
        if self.pending.is_empty() && self.stash.is_empty() {
            return Err(ClientError::Protocol(
                "collect_next with no pipelined request in flight".into(),
            ));
        }
        let reply = if self.stash.is_empty() {
            self.recv_raw()?
        } else {
            self.stash.remove(0)
        };
        if !self.pending.remove(&reply.corr) {
            if reply.corr == 0 {
                if let Some((code, detail)) = reply.error_body() {
                    return Err(ClientError::Service { code, detail });
                }
            }
            return Err(ClientError::StrayReply { corr: reply.corr });
        }
        let result = match reply.error_body() {
            Some((code, detail)) => Err((code, detail)),
            None => Ok(reply.payload),
        };
        Ok(PipelinedJob {
            corr: reply.corr,
            result,
        })
    }

    /// Collects every outstanding pipelined completion, in arrival
    /// order.
    ///
    /// # Errors
    ///
    /// See [`Client::collect_all`].
    fn collect_all(&mut self) -> Result<Vec<PipelinedJob>, ClientError> {
        let mut jobs = Vec::with_capacity(self.in_flight());
        while self.in_flight() > 0 {
            jobs.push(self.collect_next()?);
        }
        Ok(jobs)
    }
}

/// A blocking connection to the service: typed per-op methods over a
/// [`NodeConn`].
#[derive(Debug)]
pub struct Client {
    conn: NodeConn,
}

impl Client {
    /// Connects (with `TCP_NODELAY`), sequence numbering starting at 1.
    ///
    /// # Errors
    ///
    /// Propagates connect/setsockopt failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Ok(Client {
            conn: NodeConn::connect(addr)?,
        })
    }

    /// The underlying wire connection.
    #[must_use]
    pub fn conn(&self) -> &NodeConn {
        &self.conn
    }

    /// The live session id (0 before the first [`Client::set_key`]).
    #[must_use]
    pub fn session(&self) -> u32 {
        self.conn.session()
    }

    /// Pipelined requests sent and not yet collected.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.conn.in_flight()
    }

    /// Stashed replies dropped at [`NodeConn::STASH_CAP`] over the
    /// connection's lifetime.
    #[must_use]
    pub fn stash_evictions(&self) -> u64 {
        self.conn.stash_evictions()
    }

    /// Sends a frame verbatim (protocol-test escape hatch).
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn send_raw(&mut self, frame: &Frame) -> io::Result<()> {
        self.conn.send_raw(frame)
    }

    /// Reads the next reply frame verbatim (protocol-test escape
    /// hatch). Bypasses correlation matching — mixing this with
    /// outstanding pipelined requests will misroute replies.
    ///
    /// # Errors
    ///
    /// Transport or framing errors.
    pub fn recv_raw(&mut self) -> Result<Frame, RecvError> {
        self.conn.recv_raw()
    }

    #[cfg(test)]
    fn recv_matched(&mut self, want: u32) -> Result<Frame, ClientError> {
        self.conn.recv_matched(want)
    }

    fn call(&mut self, op: Op, parts: &[&[u8]]) -> Result<Frame, ClientError> {
        self.conn.call(op, parts)
    }

    /// A round trip whose reply must be `Ok`; returns its payload.
    fn call_ok(&mut self, op: Op, parts: &[&[u8]]) -> Result<Vec<u8>, ClientError> {
        let reply = self.call(op, parts)?;
        Self::expect_ok(&reply)?;
        Ok(reply.payload)
    }

    fn expect_ok(reply: &Frame) -> Result<(), ClientError> {
        if reply.status() == Some(Status::Ok) {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "expected Ok, got kind {:#04x}",
                reply.kind
            )))
        }
    }

    /// Loads an AES key (16, 24 or 32 bytes), creating a fresh
    /// server-side session; returns the new session id (used on every
    /// subsequent request automatically).
    ///
    /// # Errors
    ///
    /// Typed service errors (`BadKeyLength` for any other length) or
    /// transport failures.
    pub fn set_key(&mut self, key: &[u8]) -> Result<u32, ClientError> {
        let reply = self.call(Op::SetKey, &[key])?;
        Self::expect_ok(&reply)?;
        self.conn.session = reply.session;
        Ok(reply.session)
    }

    /// Re-keys from an RFC 3394 blob wrapped under the **live**
    /// session's key: the server unwraps it in place and the unwrapped
    /// key becomes the new session key, so raw key bytes never cross
    /// this connection. Returns the fresh session id.
    ///
    /// # Errors
    ///
    /// Typed service errors (`NoSession` without a live session,
    /// `TagMismatch` on a tampered blob, `BadKeyLength` when the blob
    /// unwraps to a non-key) or transport failures; every failure
    /// leaves the current session live.
    pub fn set_key_wrapped(&mut self, wrapped: &[u8]) -> Result<u32, ClientError> {
        let reply = self.call(Op::SetKeyWrapped, &[wrapped])?;
        Self::expect_ok(&reply)?;
        self.conn.session = reply.session;
        Ok(reply.session)
    }

    /// Liveness probe; the server echoes `payload`.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.call_ok(Op::Ping, &[payload])
    }

    fn engine_call(
        &mut self,
        op: Op,
        iv: Option<&[u8; 16]>,
        data: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        self.call_ok(op, &[iv.map_or(&[], |iv| iv), data])
    }

    /// ECB-encrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// Typed service errors (`NoSession`, `RaggedLength`, `Busy`...) or
    /// transport failures.
    pub fn ecb_encrypt(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.engine_call(Op::EcbEncrypt, None, plaintext)
    }

    /// ECB-decrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// As [`Client::ecb_encrypt`].
    pub fn ecb_decrypt(&mut self, ciphertext: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.engine_call(Op::EcbDecrypt, None, ciphertext)
    }

    /// CBC-encrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// As [`Client::ecb_encrypt`].
    pub fn cbc_encrypt(&mut self, iv: &[u8; 16], plaintext: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.engine_call(Op::CbcEncrypt, Some(iv), plaintext)
    }

    /// CBC-decrypts whole blocks under the session key.
    ///
    /// # Errors
    ///
    /// As [`Client::ecb_encrypt`].
    pub fn cbc_decrypt(
        &mut self,
        iv: &[u8; 16],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        self.engine_call(Op::CbcDecrypt, Some(iv), ciphertext)
    }

    /// Applies the CTR keystream (encrypt = decrypt, any length).
    ///
    /// # Errors
    ///
    /// As [`Client::ecb_encrypt`].
    pub fn ctr_apply(&mut self, counter: &[u8; 16], data: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.engine_call(Op::CtrApply, Some(counter), data)
    }

    /// Fetches the server's telemetry snapshot: the `telemetry/1` JSON
    /// document with per-opcode request counts, error tallies,
    /// connection gauges and every session engine's `engine.*`
    /// instruments. Works without a session.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures;
    /// [`ClientError::Protocol`] if the payload is not UTF-8.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        String::from_utf8(self.call_ok(Op::GetStats, &[])?)
            .map_err(|_| ClientError::Protocol("non-UTF-8 stats payload".into()))
    }

    /// Computes the AES-CMAC tag of `message` under the session key.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures.
    pub fn cmac_tag(&mut self, message: &[u8]) -> Result<[u8; 16], ClientError> {
        let tag = self.call_ok(Op::CmacTag, &[message])?;
        tag.as_slice()
            .try_into()
            .map_err(|_| ClientError::Protocol(format!("{}-byte CMAC tag", tag.len())))
    }

    /// Verifies an AES-CMAC tag; `Ok(false)` on a well-formed mismatch.
    ///
    /// # Errors
    ///
    /// Typed service errors other than `BadTag`, or transport failures.
    pub fn cmac_verify(&mut self, message: &[u8], tag: &[u8; 16]) -> Result<bool, ClientError> {
        match self.call(Op::CmacVerify, &[tag, message]) {
            Ok(reply) => Self::expect_ok(&reply).map(|()| true),
            Err(ClientError::Service {
                code: ErrorCode::BadTag,
                ..
            }) => Ok(false),
            Err(e) => Err(e),
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

    /// AES-GCM seal under the session key: returns ciphertext ‖ 16-byte
    /// tag. The nonce must be unique per (key, message) — reuse forfeits
    /// both confidentiality and authenticity.
    ///
    /// # Errors
    ///
    /// Typed service errors or transport failures.
    pub fn seal(
        &mut self,
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let prefix = Self::aead_prefix(nonce, aad);
        self.call_ok(Op::Seal, &[&prefix, aad, plaintext])
    }

    /// AES-GCM open; `Ok(None)` on a well-formed authentication failure
    /// (a tampered ciphertext, AAD, nonce or tag), mirroring
    /// [`Client::cmac_verify`]'s verdict-not-error shape.
    ///
    /// # Errors
    ///
    /// Typed service errors other than `TagMismatch`, or transport
    /// failures.
    pub fn open(
        &mut self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Option<Vec<u8>>, ClientError> {
        let prefix = Self::aead_prefix(nonce, aad);
        match self.call(Op::Open, &[&prefix, aad, sealed]) {
            Ok(reply) => Self::expect_ok(&reply).map(|()| Some(reply.payload)),
            Err(ClientError::Service {
                code: ErrorCode::TagMismatch,
                ..
            }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Wraps `key_data` (RFC 3394) under the session key; the result is
    /// 8 bytes longer than the input.
    ///
    /// # Errors
    ///
    /// Typed service errors (`Malformed` unless `key_data` is ≥ 16
    /// bytes and a multiple of 8) or transport failures.
    pub fn wrap_key(&mut self, key_data: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.call_ok(Op::WrapKey, &[key_data])
    }

    /// Unwraps an RFC 3394 blob; `Ok(None)` when the integrity check
    /// fails.
    ///
    /// # Errors
    ///
    /// Typed service errors other than `TagMismatch`, or transport
    /// failures.
    pub fn unwrap_key(&mut self, wrapped: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(Op::UnwrapKey, &[wrapped]) {
            Ok(reply) => Self::expect_ok(&reply).map(|()| Some(reply.payload)),
            Err(ClientError::Service {
                code: ErrorCode::TagMismatch,
                ..
            }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// An XTS call: the sector header, then the caller's `data`.
    fn xts_call(
        &mut self,
        op: Op,
        sector_base: u64,
        sector_size: u32,
        data: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        let mut header = [0u8; 12];
        header[..8].copy_from_slice(&sector_base.to_be_bytes());
        header[8..].copy_from_slice(&sector_size.to_be_bytes());
        self.call_ok(op, &[&header, data])
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
    pub fn xts_encrypt(
        &mut self,
        sector_base: u64,
        sector_size: u32,
        data: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        self.xts_call(Op::XtsEncrypt, sector_base, sector_size, data)
    }

    /// XTS-decrypts `data`; the inverse of [`Client::xts_encrypt`]
    /// under the same sector geometry.
    ///
    /// # Errors
    ///
    /// As [`Client::xts_encrypt`].
    pub fn xts_decrypt(
        &mut self,
        sector_base: u64,
        sector_size: u32,
        data: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        self.xts_call(Op::XtsDecrypt, sector_base, sector_size, data)
    }

    /// Sends an engine op **without waiting for the reply** and returns
    /// its correlation id. Any number of pipelined requests may be in
    /// flight; collect them with [`Client::collect_next`] /
    /// [`Client::collect_all`] — completions arrive in engine order,
    /// not submission order.
    ///
    /// # Errors
    ///
    /// Transport failures on the send. Server-side failures (`Busy`,
    /// `RaggedLength`, stale session, ...) come back as the job's
    /// [`PipelinedJob::result`] at collection time.
    pub fn pipeline(
        &mut self,
        op: Op,
        iv: Option<&[u8; 16]>,
        data: &[u8],
    ) -> Result<u32, ClientError> {
        let corr = self.conn.send(op, &[iv.map_or(&[], |iv| iv), data])?;
        self.conn.pending.insert(corr);
        Ok(corr)
    }

    /// Receives the next pipelined completion (stashed replies first,
    /// then the wire), blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when nothing is in flight;
    /// [`ClientError::StrayReply`] on a duplicate or unknown
    /// correlation id; unsolicited goodbyes surface as
    /// [`ClientError::Service`]; transport failures.
    pub fn collect_next(&mut self) -> Result<PipelinedJob, ClientError> {
        self.conn.collect_next()
    }

    /// Collects every outstanding pipelined completion, in arrival
    /// order.
    ///
    /// # Errors
    ///
    /// As [`Client::collect_next`]; already-collected jobs are not
    /// re-delivered after an error.
    pub fn collect_all(&mut self) -> Result<Vec<PipelinedJob>, ClientError> {
        self.conn.collect_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::thread;

    /// A scripted peer: accepts one connection, reads `expect` frames,
    /// then plays back `replies` verbatim. Lets the tests hand the
    /// client deliberately reordered or duplicated replies.
    fn scripted_server(
        expect: usize,
        replies: Vec<Frame>,
    ) -> (std::net::SocketAddr, thread::JoinHandle<Vec<Frame>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::with_capacity(expect);
            for _ in 0..expect {
                seen.push(Frame::read_from(&mut stream).unwrap());
            }
            for reply in &replies {
                reply.write_to(&mut stream).unwrap();
            }
            seen
        });
        (addr, handle)
    }

    fn ok_reply(corr: u32, payload: Vec<u8>) -> Frame {
        Frame::reply(Status::Ok, corr, 1, payload).with_corr(corr)
    }

    #[test]
    fn reordered_replies_match_by_correlation_id() {
        // Replies come back in reverse submission order; every job must
        // still land on its own correlation id.
        let (addr, server) = scripted_server(
            3,
            vec![
                ok_reply(3, vec![0x33]),
                ok_reply(1, vec![0x11]),
                ok_reply(2, vec![0x22]),
            ],
        );
        let mut client = Client::connect(addr).unwrap();
        let a = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        let b = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        let c = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        assert_eq!((a, b, c), (1, 2, 3));
        assert_eq!(client.in_flight(), 3);

        let jobs = client.collect_all().unwrap();
        assert_eq!(client.in_flight(), 0);
        let by_corr: std::collections::HashMap<u32, Vec<u8>> = jobs
            .into_iter()
            .map(|j| (j.corr, j.result.unwrap()))
            .collect();
        assert_eq!(by_corr[&1], vec![0x11]);
        assert_eq!(by_corr[&2], vec![0x22]);
        assert_eq!(by_corr[&3], vec![0x33]);
        server.join().unwrap();
    }

    #[test]
    fn duplicate_replies_are_typed_stray_errors() {
        let (addr, server) =
            scripted_server(1, vec![ok_reply(1, vec![0xAA]), ok_reply(1, vec![0xAA])]);
        let mut client = Client::connect(addr).unwrap();
        client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        // Force a second receive after the pipeline drains by sending
        // another request; the duplicate arrives first and matches
        // nothing.
        let first = client.collect_next().unwrap();
        assert_eq!(first.corr, 1);
        let request = Frame::request(Op::Ping, 0, 99, client.session(), Vec::new());
        client.send_raw(&request).unwrap();
        match client.recv_matched(99) {
            Err(ClientError::StrayReply { corr: 1 }) => {}
            other => panic!("expected StrayReply {{ corr: 1 }}, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn blocking_calls_stash_interleaved_pipelined_replies() {
        // The server answers the pipelined job FIRST, then the ping.
        // The blocking ping must stash the pipelined completion and
        // deliver it at collect_next — zero socket reads by then.
        let (addr, server) = scripted_server(
            2,
            vec![ok_reply(1, vec![0xEE]), ok_reply(2, b"pong".to_vec())],
        );
        let mut client = Client::connect(addr).unwrap();
        let corr = client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        let pong = client.ping(b"pong").unwrap();
        assert_eq!(pong, b"pong");
        let job = client.collect_next().unwrap();
        assert_eq!(job.corr, corr);
        assert_eq!(job.result.unwrap(), vec![0xEE]);
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].op(), Some(Op::EcbEncrypt));
        assert_eq!(seen[1].op(), Some(Op::Ping));
    }

    #[test]
    fn unsolicited_goodbyes_surface_as_service_errors() {
        let (addr, server) =
            scripted_server(1, vec![Frame::error(ErrorCode::ShuttingDown, 0, 0, 0)]);
        let mut client = Client::connect(addr).unwrap();
        client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        match client.collect_next() {
            Err(ClientError::Service {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn abandoned_pipelined_replies_evict_at_the_stash_cap() {
        // One more pipelined job than the stash holds, all answered
        // before the blocking ping the client is actually waiting on.
        // The oldest stashed reply must be dropped (and its correlation
        // id forgotten) instead of growing the stash without bound.
        let depth = NodeConn::STASH_CAP + 1;
        let mut replies: Vec<Frame> = (1..=depth as u32)
            .map(|corr| ok_reply(corr, vec![0xCC]))
            .collect();
        let ping_corr = depth as u32 + 1;
        replies.push(ok_reply(ping_corr, b"pong".to_vec()));
        let (addr, server) = scripted_server(depth + 1, replies);

        let mut client = Client::connect(addr).unwrap();
        for _ in 0..depth {
            client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
        }
        assert_eq!(client.in_flight(), depth);
        let pong = client.ping(b"pong").unwrap();
        assert_eq!(pong, b"pong");

        // Exactly one eviction: the cap-sized stash plus the dropped
        // oldest account for every pipelined reply.
        assert_eq!(client.stash_evictions(), 1);
        assert_eq!(client.in_flight(), NodeConn::STASH_CAP);
        let jobs = client.collect_all().unwrap();
        assert_eq!(jobs.len(), NodeConn::STASH_CAP);
        // Correlation id 1 was the evicted one.
        assert!(jobs.iter().all(|j| j.corr != 1));
        assert_eq!(client.in_flight(), 0);
        server.join().unwrap();
    }

    /// Replies written in seeded fragments — a 256 KiB body among small
    /// replies, cut anywhere, heads included, with a pause after each
    /// piece — reach the client in many partial reads; each one must be
    /// delivered whole, by correlation id.
    #[test]
    fn fragmented_replies_reassemble_by_correlation_id() {
        let bulk: Vec<u8> = (0..crate::protocol::MAX_PAYLOAD)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        for seed in 1..=4u64 {
            let payloads: Vec<Vec<u8>> = (1..=6u8)
                .map(|corr| {
                    if u64::from(corr) == seed + 1 {
                        bulk.clone()
                    } else {
                        vec![corr; usize::from(corr) * 7]
                    }
                })
                .collect();
            let mut wire = Vec::new();
            for (i, payload) in payloads.iter().enumerate().rev() {
                ok_reply(i as u32 + 1, payload.clone())
                    .encode_into(&mut wire)
                    .unwrap();
            }
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream.set_nodelay(true).unwrap();
                for _ in 0..6 {
                    Frame::read_from(&mut stream).unwrap();
                }
                let mut x = seed;
                let mut rest = &wire[..];
                while !rest.is_empty() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Mostly short pieces, so heads split too, and now
                    // and then a long run of a body.
                    let cut = match x % 4 {
                        0 => 1 + (x >> 8) as usize % 30_000,
                        _ => 1 + (x >> 8) as usize % 40,
                    };
                    let (piece, tail) = rest.split_at(cut.min(rest.len()));
                    stream.write_all(piece).unwrap();
                    stream.flush().unwrap();
                    thread::sleep(std::time::Duration::from_micros(200));
                    rest = tail;
                }
            });
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..6 {
                client.pipeline(Op::EcbEncrypt, None, &[0u8; 16]).unwrap();
            }
            for _ in 0..6 {
                let job = client.collect_next().unwrap();
                let want = &payloads[job.corr as usize - 1];
                assert!(
                    job.result.as_ref() == Ok(want),
                    "seed {seed}: corr {} came back wrong",
                    job.corr
                );
            }
            assert_eq!(client.in_flight(), 0);
            server.join().unwrap();
        }
    }

    #[test]
    fn node_unreachable_is_a_typed_displayable_error() {
        let err = ClientError::NodeUnreachable { node: 2 };
        assert_eq!(
            err.to_string(),
            "cluster node 2 unreachable after reconnect attempt"
        );
    }
}

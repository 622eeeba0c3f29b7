//! The wire format: length-prefixed binary frames in one layout.
//!
//! Every frame — request or reply — is one length-prefixed record:
//!
//! ```text
//! offset  size  field
//! 0       4     len      u32 BE; bytes after this field (15 ..= MAX_FRAME_LEN)
//! 4       1     version  2 (PROTOCOL_VERSION)
//! 5       1     kind     request Op, or reply Status (high bit set)
//! 6       1     flags    reserved, must be 0 (anything else is Malformed)
//! 7       4     seq      u32 BE; monotone per connection (diagnostics)
//! 11      4     session  u32 BE; 0 before SET_KEY, server-assigned afterwards
//! 15      4     corr     u32 BE; client-chosen, echoed in the matching reply
//! 19      ...   payload  op-specific body, at most MAX_PAYLOAD bytes
//! ```
//!
//! The correlation id is what makes **pipelining** well-defined: a
//! client may have any number of requests in flight on one connection,
//! and the server may answer them in *any order* (bulk jobs complete
//! out of order across a worker pool); each reply names the request it
//! answers through `corr`. Version 1, the retired 11-byte layout without
//! `corr`, stays reserved: the decoder refuses it like any other version
//! that is not [`PROTOCOL_VERSION`].
//!
//! Limits are enforced on both sides: a frame longer than
//! [`MAX_FRAME_LEN`] is refused *before* it is buffered, and the server
//! answers protocol violations with typed [`ErrorCode`] replies instead
//! of dropping the connection wherever the stream is still in sync. The
//! decoder's three framing errors — an oversized or undersized length
//! prefix and a foreign version byte — poison the framing itself, so
//! the server sends the typed error and then closes.
//!
//! Incremental reassembly goes through [`RecvBuffer`], a
//! consumed-offset cursor over the connection's receive bytes. The old
//! `parse_buffered` drained the front of a `Vec<u8>` per frame — an
//! O(n²) memmove exactly when a pipelining burst parks many frames in
//! one buffer. `RecvBuffer` advances a cursor instead and compacts
//! amortised-O(1), so parsing `k` buffered frames moves each byte a
//! bounded number of times no matter how large `k` gets. A frame whose
//! head has arrived but whose body has not can switch the buffer to
//! **body mode** ([`RecvBuffer::start_body`]): the body then lands in its
//! own payload buffer, read straight from the socket one `read` at a
//! time by a nonblocking reader ([`RecvBuffer::fill_body`]) or in one
//! call by a blocking one ([`RecvBuffer::read_body`]), so a bulk body is
//! never staged in the cursor buffer and copied out again.
//!
//! Sending is copy-free too: [`write_parts`] writes a frame's
//! [`encode_head`] and the caller's payload slices with vectored writes,
//! and [`Frame::write_to`] is that call over the frame's own payload.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use engine::Mode;

/// The wire-format version every frame carries. Version 1 (the retired
/// 11-byte layout) is reserved and refused like any other.
pub const PROTOCOL_VERSION: u8 = 2;

/// Bytes of header after the length prefix (version, kind, flags, seq,
/// session, corr).
pub const HEADER_LEN: usize = 15;

/// Hard cap on one frame's payload (IV included). Bigger requests must be
/// split; the cap bounds per-connection buffering no matter what a peer
/// sends.
pub const MAX_PAYLOAD: usize = 256 * 1024;

/// Hard cap on the post-prefix frame length: a maximal-payload frame.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + MAX_PAYLOAD;

/// Bytes that open every frame on the wire: the length prefix and the
/// header.
pub const HEAD_LEN: usize = 4 + HEADER_LEN;

/// Request operation codes (`kind` with the high bit clear). Code 0x02
/// is reserved (a retired drain op) and decodes to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Load an AES key (16, 24 or 32 bytes — AES-128/192/256): creates a
    /// fresh session, with its own keyed handle on the server's worker
    /// farm, and invalidates the previous one. Payload: the key (any other length is
    /// [`ErrorCode::BadKeyLength`]). Reply: [`Status::Ok`] with the new
    /// session id in the header's `session` field.
    SetKey = 0x01,
    /// Liveness probe; the payload (bounded like any other) is echoed in
    /// the [`Status::Ok`] reply.
    Ping = 0x03,
    /// Fetch the server's telemetry snapshot. Payload: empty (anything
    /// else is [`ErrorCode::Malformed`]). Reply: [`Status::Ok`] whose
    /// payload is the `telemetry/1` JSON document (UTF-8) — per-opcode
    /// request counts, error tallies, connection gauges, and the worker
    /// farm's `engine.*` instruments. Needs no session.
    GetStats = 0x04,
    /// Re-key from an RFC 3394 wrapped blob: the server unwraps the
    /// payload under the **live session's** key (which acts as the KEK)
    /// and replaces the session with one keyed on the recovered bytes —
    /// the raw key never crosses the wire. This is the cluster
    /// key-distribution primitive: the home node wraps the session key
    /// once ([`Op::WrapKey`]) and every other node only ever sees the
    /// wrapped blob. Payload: the wrapped blob. Reply: [`Status::Ok`]
    /// with the new session id in the header, or
    /// [`ErrorCode::TagMismatch`] / [`ErrorCode::BadKeyLength`] /
    /// [`ErrorCode::Malformed`] — all of which leave the KEK session
    /// live.
    SetKeyWrapped = 0x05,
    /// ECB-encrypt whole blocks. Payload: plaintext.
    EcbEncrypt = 0x10,
    /// ECB-decrypt whole blocks. Payload: ciphertext.
    EcbDecrypt = 0x11,
    /// CBC-encrypt whole blocks. Payload: 16-byte IV ‖ plaintext.
    CbcEncrypt = 0x12,
    /// CBC-decrypt whole blocks. Payload: 16-byte IV ‖ ciphertext.
    CbcDecrypt = 0x13,
    /// Apply the CTR keystream (enc = dec). Payload: 16-byte initial
    /// counter block ‖ data, any length.
    CtrApply = 0x14,
    /// Compute the AES-CMAC tag. Payload: message. Reply: 16-byte tag.
    CmacTag = 0x15,
    /// Verify an AES-CMAC tag in constant time. Payload: 16-byte tag ‖
    /// message. Reply: empty [`Status::Ok`], or [`ErrorCode::BadTag`].
    CmacVerify = 0x16,
    /// AES-GCM authenticated encryption. Payload: 12-byte nonce ‖
    /// `aad_len: u32 BE` ‖ AAD ‖ plaintext. Reply: ciphertext ‖ 16-byte
    /// tag.
    Seal = 0x20,
    /// AES-GCM authenticated decryption. Payload: 12-byte nonce ‖
    /// `aad_len: u32 BE` ‖ AAD ‖ ciphertext ‖ 16-byte tag. Reply: the
    /// plaintext, or [`ErrorCode::TagMismatch`] (nothing is released on
    /// failure).
    Open = 0x21,
    /// SP 800-38F / RFC 3394 key wrap under the session key. Payload:
    /// the key data (≥ 16 bytes, a multiple of 8, and at most
    /// [`MAX_PAYLOAD`] − 8 so the reply fits a frame; anything else is
    /// [`ErrorCode::Malformed`] with the payload length). Reply: the
    /// 8-byte-longer wrapped blob.
    WrapKey = 0x22,
    /// RFC 3394 key unwrap. Payload: the wrapped blob (≥ 24 bytes, a
    /// multiple of 8). Reply: the recovered key data, or
    /// [`ErrorCode::TagMismatch`] when the integrity check fails.
    UnwrapKey = 0x23,
    /// AES-XTS (IEEE 1619) sector encryption under the session key.
    /// Payload: `sector_base: u64 BE` ‖ `sector_size: u32 BE` ‖ body,
    /// where `sector_size` is ≥ 16 and the body is a non-empty whole
    /// number of sectors; sector `i` of the body uses tweak
    /// `sector_base + i` (wrapping). Reply: the ciphertext, same length
    /// (ragged sector sizes use ciphertext stealing). A bad size or a
    /// ragged body is [`ErrorCode::BadSectorSize`].
    XtsEncrypt = 0x30,
    /// AES-XTS sector decryption: inverse of [`Op::XtsEncrypt`], same
    /// payload layout and error contract.
    XtsDecrypt = 0x31,
}

impl Op {
    /// Decodes a request `kind` byte.
    #[must_use]
    pub fn from_u8(kind: u8) -> Option<Op> {
        Some(match kind {
            0x01 => Op::SetKey,
            0x03 => Op::Ping,
            0x04 => Op::GetStats,
            0x05 => Op::SetKeyWrapped,
            0x10 => Op::EcbEncrypt,
            0x11 => Op::EcbDecrypt,
            0x12 => Op::CbcEncrypt,
            0x13 => Op::CbcDecrypt,
            0x14 => Op::CtrApply,
            0x15 => Op::CmacTag,
            0x16 => Op::CmacVerify,
            0x20 => Op::Seal,
            0x21 => Op::Open,
            0x22 => Op::WrapKey,
            0x23 => Op::UnwrapKey,
            0x30 => Op::XtsEncrypt,
            0x31 => Op::XtsDecrypt,
            _ => return None,
        })
    }

    /// Stable lowercase name used in telemetry instrument names
    /// (`service.op.<name>.requests`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::SetKey => "set_key",
            Op::Ping => "ping",
            Op::GetStats => "get_stats",
            Op::SetKeyWrapped => "set_key_wrapped",
            Op::EcbEncrypt => "ecb_encrypt",
            Op::EcbDecrypt => "ecb_decrypt",
            Op::CbcEncrypt => "cbc_encrypt",
            Op::CbcDecrypt => "cbc_decrypt",
            Op::CtrApply => "ctr_apply",
            Op::CmacTag => "cmac_tag",
            Op::CmacVerify => "cmac_verify",
            Op::Seal => "seal",
            Op::Open => "open",
            Op::WrapKey => "wrap_key",
            Op::UnwrapKey => "unwrap_key",
            Op::XtsEncrypt => "xts_encrypt",
            Op::XtsDecrypt => "xts_decrypt",
        }
    }

    /// `true` when the payload starts with a 16-byte IV / counter block.
    #[must_use]
    pub fn takes_iv(self) -> bool {
        matches!(self, Op::CbcEncrypt | Op::CbcDecrypt | Op::CtrApply)
    }

    /// Maps an engine op (plus its IV, all-zero for the ECB ops) onto the
    /// scheduler's [`Mode`]. `None` for non-engine ops.
    #[must_use]
    pub fn engine_mode(self, iv: [u8; 16]) -> Option<Mode> {
        Some(match self {
            Op::EcbEncrypt => Mode::EcbEncrypt,
            Op::EcbDecrypt => Mode::EcbDecrypt,
            Op::CbcEncrypt => Mode::CbcEncrypt(iv),
            Op::CbcDecrypt => Mode::CbcDecrypt(iv),
            Op::CtrApply => Mode::Ctr(iv),
            _ => return None,
        })
    }
}

/// Reply status codes (`kind` with the high bit set). Codes 0x81–0x83
/// are reserved (retired deferred-lane replies) and decode to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// The request completed; payload is op-specific.
    Ok = 0x80,
    /// The request failed; payload is `code: u8` ‖ `detail: u32 BE`
    /// (see [`ErrorCode`]).
    Error = 0xFF,
}

impl Status {
    /// Decodes a reply `kind` byte.
    #[must_use]
    pub fn from_u8(kind: u8) -> Option<Status> {
        Some(match kind {
            0x80 => Status::Ok,
            0xFF => Status::Error,
            _ => return None,
        })
    }
}

/// Typed failure codes carried in [`Status::Error`] replies. `detail` is
/// a per-code `u32` (a length, a capacity, a limit — documented below).
/// Code 13 is reserved (a retired deferred-lane error) and decodes to
/// `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// Frame version is not [`PROTOCOL_VERSION`] (version 1, the retired
    /// 11-byte layout, included). Detail: the received version byte. The
    /// decoder reports it as soon as that byte arrives; the connection
    /// closes after this reply.
    BadVersion = 1,
    /// Unknown request op. Detail: the received `kind` byte.
    BadOp = 2,
    /// The payload does not parse for the op (short IV, wrong key
    /// length, missing tag...). Detail: the received payload length — or
    /// the flags byte, for a request whose reserved flags are not 0.
    Malformed = 3,
    /// The length prefix exceeds [`MAX_FRAME_LEN`]. Detail: the declared
    /// length. The connection closes after this reply.
    FrameTooLarge = 4,
    /// A crypto op arrived before any `SET_KEY`. Detail: 0.
    NoSession = 5,
    /// The request's `session` field does not name the live session
    /// (stale pipelined request after a re-key). Detail: the live id.
    StaleSession = 6,
    /// The session already holds its capacity of unfinished bulk jobs
    /// on the worker farm — collect outstanding replies and retry.
    /// Detail: the capacity.
    Busy = 7,
    /// ECB/CBC payload is not a whole number of 16-byte blocks. Detail:
    /// the offending data length.
    RaggedLength = 8,
    /// CMAC verification failed. Detail: 0.
    BadTag = 9,
    /// A backend fault while running the job. Detail: 0.
    JobFailed = 10,
    /// No complete request arrived within the idle budget; the
    /// connection closes after this reply. Detail: the timeout in ms,
    /// saturating at `u32::MAX` for longer budgets.
    IdleTimeout = 11,
    /// The server is draining for shutdown; in-flight pipelined jobs
    /// were answered before this goodbye. Detail: 0.
    ShuttingDown = 12,
    /// Connection admission refused: the server is at its connection
    /// cap. Detail: the cap.
    TooManyConnections = 14,
    /// GCM or key-unwrap authentication failed; nothing was released.
    /// Detail: 0.
    TagMismatch = 15,
    /// `SET_KEY` payload is not a valid AES key length (16, 24 or 32
    /// bytes). Detail: the received length.
    BadKeyLength = 16,
    /// An XTS op's sector size is under one block, or its body is not a
    /// non-empty whole number of sectors. Detail: the offending value
    /// (the sector size, or the body length when the body is ragged).
    BadSectorSize = 17,
}

impl ErrorCode {
    /// Decodes an error code byte.
    #[must_use]
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::BadVersion,
            2 => ErrorCode::BadOp,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::FrameTooLarge,
            5 => ErrorCode::NoSession,
            6 => ErrorCode::StaleSession,
            7 => ErrorCode::Busy,
            8 => ErrorCode::RaggedLength,
            9 => ErrorCode::BadTag,
            10 => ErrorCode::JobFailed,
            11 => ErrorCode::IdleTimeout,
            12 => ErrorCode::ShuttingDown,
            14 => ErrorCode::TooManyConnections,
            15 => ErrorCode::TagMismatch,
            16 => ErrorCode::BadKeyLength,
            17 => ErrorCode::BadSectorSize,
            _ => return None,
        })
    }

    /// Stable lowercase name used in telemetry instrument names
    /// (`service.error.<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::BadOp => "bad_op",
            ErrorCode::Malformed => "malformed",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::NoSession => "no_session",
            ErrorCode::StaleSession => "stale_session",
            ErrorCode::Busy => "busy",
            ErrorCode::RaggedLength => "ragged_length",
            ErrorCode::BadTag => "bad_tag",
            ErrorCode::JobFailed => "job_failed",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::TooManyConnections => "too_many_connections",
            ErrorCode::TagMismatch => "tag_mismatch",
            ErrorCode::BadKeyLength => "bad_key_length",
            ErrorCode::BadSectorSize => "bad_sector_size",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::BadVersion => "unsupported protocol version",
            ErrorCode::BadOp => "unknown operation",
            ErrorCode::Malformed => "malformed payload",
            ErrorCode::FrameTooLarge => "frame exceeds the size limit",
            ErrorCode::NoSession => "no session: SET_KEY first",
            ErrorCode::StaleSession => "stale session id",
            ErrorCode::Busy => "session queue full: collect replies and retry",
            ErrorCode::RaggedLength => "payload is not whole 16-byte blocks",
            ErrorCode::BadTag => "CMAC verification failed",
            ErrorCode::JobFailed => "backend fault while running the job",
            ErrorCode::IdleTimeout => "connection idle too long",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::TooManyConnections => "server connection cap reached",
            ErrorCode::TagMismatch => "authentication tag mismatch",
            ErrorCode::BadKeyLength => "key must be 16, 24 or 32 bytes",
            ErrorCode::BadSectorSize => "sector size under 16 or body not whole sectors",
        };
        f.write_str(s)
    }
}

/// One decoded frame (either direction). The version byte is not kept:
/// the decoder refuses every frame whose version is not
/// [`PROTOCOL_VERSION`], and the encoder writes that one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Raw `kind` byte: an [`Op`] on requests, a [`Status`] on replies.
    pub kind: u8,
    /// Reserved flags byte: 0 on everything this crate builds.
    pub flags: u8,
    /// Request sequence number, echoed in the matching replies.
    pub seq: u32,
    /// Session id (0 = none yet).
    pub session: u32,
    /// Correlation id: the pipelining handle that ties a reply to its
    /// request.
    pub corr: u32,
    /// Op-/status-specific body.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a request frame with `corr` mirroring `seq` (override
    /// with [`Frame::with_corr`] for pipelined traffic).
    #[must_use]
    pub fn request(op: Op, flags: u8, seq: u32, session: u32, payload: Vec<u8>) -> Frame {
        Frame {
            kind: op as u8,
            flags,
            seq,
            session,
            corr: seq,
            payload,
        }
    }

    /// Overrides the correlation id (builder-style).
    #[must_use]
    pub fn with_corr(mut self, corr: u32) -> Frame {
        self.corr = corr;
        self
    }

    /// Builds a reply frame with `corr` mirroring `seq`.
    #[must_use]
    pub fn reply(status: Status, seq: u32, session: u32, payload: Vec<u8>) -> Frame {
        Frame {
            kind: status as u8,
            flags: 0,
            seq,
            session,
            corr: seq,
            payload,
        }
    }

    /// Builds a typed error reply.
    #[must_use]
    pub fn error(code: ErrorCode, detail: u32, seq: u32, session: u32) -> Frame {
        Frame::reply(Status::Error, seq, session, error_payload(code, detail))
    }

    /// The request op, when `kind` encodes one.
    #[must_use]
    pub fn op(&self) -> Option<Op> {
        Op::from_u8(self.kind)
    }

    /// The reply status, when `kind` encodes one.
    #[must_use]
    pub fn status(&self) -> Option<Status> {
        Status::from_u8(self.kind)
    }

    /// Decodes the `(code, detail)` body of a [`Status::Error`] reply.
    #[must_use]
    pub fn error_body(&self) -> Option<(ErrorCode, u32)> {
        if self.status() != Some(Status::Error) || self.payload.len() < 5 {
            return None;
        }
        let code = ErrorCode::from_u8(self.payload[0])?;
        let detail = u32::from_be_bytes(self.payload[1..5].try_into().ok()?);
        Some((code, detail))
    }

    /// The frame's [`HEAD_LEN`] opening bytes (see [`encode_head`]).
    fn head(&self) -> io::Result<[u8; HEAD_LEN]> {
        encode_head(
            self.kind,
            self.flags,
            self.seq,
            self.session,
            self.corr,
            self.payload.len(),
        )
    }

    /// Sends the frame's head and its payload with vectored writes
    /// ([`write_parts`]): no serialised copy of the frame is built.
    ///
    /// # Errors
    ///
    /// I/O errors from `w`; [`io::ErrorKind::InvalidInput`] when the
    /// payload exceeds [`MAX_PAYLOAD`] (the frame is not sent).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_parts(w, [&self.head()?, &self.payload])
    }

    /// Decodes the header fields of a post-prefix frame body that passed
    /// [`check_framing`] (at least [`HEADER_LEN`] bytes), around
    /// `payload`.
    fn decode_header(body: &[u8], payload: Vec<u8>) -> Frame {
        let word = |at: usize| u32::from_be_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        Frame {
            kind: body[1],
            flags: body[2],
            seq: word(3),
            session: word(7),
            corr: word(11),
            payload,
        }
    }

    /// Decodes one complete post-prefix frame body that passed
    /// [`check_framing`].
    fn decode_body(body: &[u8]) -> Frame {
        Frame::decode_header(body, body[HEADER_LEN..].to_vec())
    }

    /// Reads one frame, enforcing [`MAX_FRAME_LEN`] and the version
    /// before buffering the body. The length prefix and the version byte
    /// arrive in one read, so a frame costs the reader two reads; an
    /// empty frame's prefix therefore takes one byte past it, of a
    /// stream that is broken anyway.
    ///
    /// # Errors
    ///
    /// [`RecvError::Io`] on transport errors (including a clean EOF
    /// before the length prefix, surfaced as `UnexpectedEof`);
    /// [`RecvError::TooLarge`] / [`RecvError::BadVersion`] /
    /// [`RecvError::TooShort`] on broken framing — the stream can no
    /// longer be trusted to be in sync, so the caller should close after
    /// its typed goodbye.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, RecvError> {
        let mut head = [0u8; 5];
        r.read_exact(&mut head)?;
        let len = u32::from_be_bytes(head[..4].try_into().expect("4-byte slice"));
        check_framing(len, Some(head[4]))?;
        let mut body = vec![0u8; len as usize];
        body[0] = head[4];
        r.read_exact(&mut body[1..])?;
        Ok(Frame::decode_body(&body))
    }
}

/// The framing checks both readers share, in the order they can be
/// decided: the length prefix's upper bound from its four bytes alone;
/// the version byte as soon as it is visible (`version` is `None` until
/// then; an empty frame has none); and only then the header-length
/// minimum. `Ok(false)` means the version byte has not arrived yet.
fn check_framing(len: u32, version: Option<u8>) -> Result<bool, RecvError> {
    if len as usize > MAX_FRAME_LEN {
        return Err(RecvError::TooLarge { len });
    }
    if len > 0 {
        match version {
            None => return Ok(false),
            Some(version) if version != PROTOCOL_VERSION => {
                return Err(RecvError::BadVersion { version })
            }
            Some(_) => {}
        }
    }
    if (len as usize) < HEADER_LEN {
        return Err(RecvError::TooShort { len });
    }
    Ok(true)
}

/// The [`HEAD_LEN`] bytes that open a frame carrying a `payload_len`-byte
/// payload: the length prefix, [`PROTOCOL_VERSION`] and the header
/// fields.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when `payload_len` exceeds
/// [`MAX_PAYLOAD`].
pub fn encode_head(
    kind: u8,
    flags: u8,
    seq: u32,
    session: u32,
    corr: u32,
    payload_len: usize,
) -> io::Result<[u8; HEAD_LEN]> {
    if payload_len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {payload_len} exceeds MAX_PAYLOAD"),
        ));
    }
    let mut head = [0u8; HEAD_LEN];
    head[..4].copy_from_slice(&((HEADER_LEN + payload_len) as u32).to_be_bytes());
    head[4] = PROTOCOL_VERSION;
    head[5] = kind;
    head[6] = flags;
    head[7..11].copy_from_slice(&seq.to_be_bytes());
    head[11..15].copy_from_slice(&session.to_be_bytes());
    head[15..19].copy_from_slice(&corr.to_be_bytes());
    Ok(head)
}

/// Sends `parts` in order with vectored writes, straight from the
/// caller's slices: a frame is its head (from [`encode_head`], for the
/// payload parts' total length) followed by the parts whose
/// concatenation is its payload, so a socket sees it in one `writev`
/// and no encoded copy is built. Empty parts are allowed.
///
/// # Errors
///
/// I/O errors from `w` (`WriteZero` when it stops accepting bytes).
pub fn write_parts<W: Write, const N: usize>(w: &mut W, parts: [&[u8]; N]) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut slices = &mut slices[..];
    IoSlice::advance_slices(&mut slices, 0);
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The `code: u8` ‖ `detail: u32 BE` body of a [`Status::Error`] reply.
pub(crate) fn error_payload(code: ErrorCode, detail: u32) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5);
    payload.push(code as u8);
    payload.extend_from_slice(&detail.to_be_bytes());
    payload
}

/// Incremental frame reassembly for non-blocking readers: a
/// consumed-offset cursor over the connection's receive bytes, plus a
/// body mode for frames whose payload is still arriving.
///
/// Append raw socket bytes with [`RecvBuffer::extend_from_slice`], then
/// pull complete frames with [`RecvBuffer::next_frame`] until it parks
/// (`Ok(None)`). Consumed bytes advance a cursor instead of draining the
/// vector's front, so a pipelining burst that parks thousands of frames
/// in one buffer parses in O(total bytes) — the old per-frame
/// `Vec::drain` cost O(frames × buffered bytes) in memmoves, which is
/// quadratic exactly when clients pipeline. The buffer compacts only
/// when the dead prefix dominates the live bytes, keeping the memmove
/// amortised O(1) per byte ([`RecvBuffer::compacted_bytes`] counts the
/// bytes actually moved so tests can pin the bound).
///
/// When `next_frame` parks on a frame whose head has arrived (and
/// passed the framing checks) but whose body has not,
/// [`RecvBuffer::start_body`] moves the body bytes already buffered into
/// a payload buffer the caller supplies, and [`RecvBuffer::read_body`]
/// reads the rest straight into it; `next_frame` returns the frame once
/// its payload is whole. Frames that arrive whole are decoded from the
/// cursor as before.
#[derive(Debug, Default)]
pub struct RecvBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by parsed frames.
    start: usize,
    /// Total bytes ever memmoved by compaction (regression metric).
    compacted: u64,
    /// The frame in body mode, if any.
    body: Option<Body>,
}

/// A frame whose payload is being read straight into its own buffer.
#[derive(Debug)]
struct Body {
    /// The decoded header fields around the payload buffer. Bytes
    /// `filled..` of `frame.payload` are initialized filler (a recycled
    /// buffer's old contents, or zeros) that reads overwrite; they never
    /// leave in a frame.
    frame: Frame,
    /// Payload bytes received so far.
    filled: usize,
    /// The declared payload length.
    want: usize,
}

/// The read size the service's readers plan around: the server's
/// scratch read, and the step by which a body's initialized region
/// grows when a read finds it full.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Compact only once the dead prefix is at least this large *and* at
/// least as large as the live remainder — both conditions together make
/// the copy cost amortised O(1) per received byte.
const COMPACT_THRESHOLD: usize = 4096;

impl RecvBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> RecvBuffer {
        RecvBuffer::default()
    }

    /// Appends raw bytes from the transport. Not for a buffer in body
    /// mode: the body's bytes go through [`RecvBuffer::fill_body`] or
    /// [`RecvBuffer::read_body`].
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        debug_assert!(self.body.is_none(), "a body in progress reads directly");
        if self.start == self.buf.len() {
            // Everything already parsed: reset for free.
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD && self.start * 2 >= self.buf.len() {
            self.compact();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received and not yet returned in a frame: the unconsumed
    /// cursor bytes, or the head and payload so far of a body in
    /// progress.
    #[must_use]
    pub fn len(&self) -> usize {
        let body = self.body.as_ref().map_or(0, |b| HEAD_LEN + b.filled);
        self.buf.len() - self.start + body
    }

    /// `true` when no unconsumed bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes memmoved by compaction since construction — the
    /// regression metric proving parsing is not quadratic: it stays 0
    /// for any burst parsed from one contiguous buffer, and is bounded
    /// by a small multiple of the bytes received otherwise.
    #[must_use]
    pub fn compacted_bytes(&self) -> u64 {
        self.compacted
    }

    fn compact(&mut self) {
        let live = self.buf.len() - self.start;
        self.buf.copy_within(self.start.., 0);
        self.buf.truncate(live);
        self.compacted += live as u64;
        self.start = 0;
    }

    /// Parses one complete frame — the body in progress once its
    /// payload is whole, or the next frame off the cursor — or returns
    /// `Ok(None)` when more bytes are needed. The length prefix is
    /// validated as soon as it is visible and the version byte as soon
    /// as it arrives, so an oversized or foreign frame is refused before
    /// its body accumulates.
    ///
    /// # Errors
    ///
    /// [`RecvError::TooLarge`] / [`RecvError::BadVersion`] /
    /// [`RecvError::TooShort`] on broken framing; the buffer is left
    /// untouched so the caller can report and close.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, RecvError> {
        if let Some(body) = &self.body {
            if body.filled < body.want {
                return Ok(None);
            }
            return Ok(self.body.take().map(|body| body.frame));
        }
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[..4].try_into().expect("4-byte slice"));
        let total = 4 + len as usize;
        if !check_framing(len, avail.get(4).copied())? || avail.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode_body(&avail[4..total]);
        self.start += total;
        Ok(Some(frame))
    }

    /// Switches to body mode when the cursor holds a frame whose head
    /// has arrived and passed the framing checks but whose body has not
    /// (call it once [`RecvBuffer::next_frame`] parks). `payload` is
    /// called with the frame's declared payload length and the payload
    /// bytes already buffered, and returns the buffer the body will
    /// fill — any contents it has are kept as filler up to the declared
    /// length; the buffered bytes move into its front, and the cursor is
    /// then empty. Returns whether a body was started: never for a frame
    /// that is already whole, a head still arriving, broken framing or a
    /// body already in progress.
    pub fn start_body(&mut self, payload: impl FnOnce(usize, usize) -> Vec<u8>) -> bool {
        let avail = &self.buf[self.start..];
        if self.body.is_some() || avail.len() < HEAD_LEN {
            return false;
        }
        let len = u32::from_be_bytes(avail[..4].try_into().expect("4-byte slice"));
        let total = 4 + len as usize;
        if !matches!(check_framing(len, Some(avail[4])), Ok(true)) || avail.len() >= total {
            return false;
        }
        let (want, buffered) = (total - HEAD_LEN, &avail[HEAD_LEN..]);
        let mut buffer = payload(want, buffered.len());
        buffer.truncate(want);
        if buffer.len() < buffered.len() {
            buffer.clear();
            buffer.extend_from_slice(buffered);
        } else {
            buffer[..buffered.len()].copy_from_slice(buffered);
        }
        self.body = Some(Body {
            frame: Frame::decode_header(&avail[4..HEAD_LEN], buffer),
            filled: buffered.len(),
            want,
        });
        self.buf.clear();
        self.start = 0;
        true
    }

    /// Payload bytes the body in progress still misses (0 when no body
    /// is in progress).
    #[must_use]
    pub fn body_missing(&self) -> usize {
        self.body.as_ref().map_or(0, |b| b.want - b.filled)
    }

    /// Makes one `read` from `reader` straight into the body in
    /// progress and returns the bytes read (0 at EOF, or when no body
    /// is in progress). The read lands in the payload's initialized
    /// region past the bytes received; when that region is used up it
    /// first grows, zero-filled, by 64 KiB (`READ_CHUNK`) or by doubling,
    /// whichever is more — straight to the declared length once less
    /// than a chunk would be left, and never past it. A nonblocking
    /// reader issues exactly one read per call, so the caller can
    /// count and budget them; a recycled payload buffer is never
    /// zeroed again.
    ///
    /// # Errors
    ///
    /// The reader's error (`WouldBlock` on a drained nonblocking
    /// socket); nothing was read.
    pub fn fill_body<R: Read>(&mut self, mut reader: R) -> io::Result<usize> {
        let Some(body) = self.body.as_mut().filter(|b| b.filled < b.want) else {
            return Ok(0);
        };
        let payload = &mut body.frame.payload;
        if payload.len() == body.filled {
            let mut grown = (body.filled + READ_CHUNK).max(2 * body.filled);
            if grown + READ_CHUNK > body.want {
                grown = body.want;
            }
            payload.reserve_exact(grown - payload.len());
            payload.resize(grown, 0);
        }
        let n = reader.read(&mut payload[body.filled..])?;
        body.filled += n;
        Ok(n)
    }

    /// Reads the rest of the body in progress from `reader` straight
    /// into its payload — `Read::take` bounds the read at the bytes it
    /// misses, and `Read::read_to_end` fills the payload's spare
    /// capacity without zeroing it. On a blocking reader the call
    /// returns once the body is whole.
    ///
    /// # Errors
    ///
    /// The reader's error, or `UnexpectedEof` when it ends first; the
    /// bytes it delivered stay in the body.
    pub fn read_body<R: Read>(&mut self, reader: R) -> io::Result<()> {
        let Some(body) = self.body.as_mut() else {
            return Ok(());
        };
        let payload = &mut body.frame.payload;
        payload.truncate(body.filled);
        let result = reader
            .take((body.want - body.filled) as u64)
            .read_to_end(payload);
        body.filled = payload.len();
        result?;
        if body.filled < body.want {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

/// Failure while receiving a frame.
#[derive(Debug)]
pub enum RecvError {
    /// Transport error (EOF mid-frame is `UnexpectedEof`).
    Io(io::Error),
    /// Length prefix under [`HEADER_LEN`]: framing is corrupt.
    TooShort {
        /// The declared post-prefix length.
        len: u32,
    },
    /// Length prefix over [`MAX_FRAME_LEN`]: refused before buffering.
    TooLarge {
        /// The declared post-prefix length.
        len: u32,
    },
    /// Version byte other than [`PROTOCOL_VERSION`]: the rest of the
    /// frame cannot be trusted to follow this layout.
    BadVersion {
        /// The received version byte.
        version: u8,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "frame transport error: {e}"),
            RecvError::TooShort { len } => {
                write!(f, "frame length {len} under the {HEADER_LEN}-byte header")
            }
            RecvError::TooLarge { len } => {
                write!(f, "frame length {len} over the {MAX_FRAME_LEN} limit")
            }
            RecvError::BadVersion { version } => {
                write!(f, "frame version {version}, expected {PROTOCOL_VERSION}")
            }
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_frame_roundtrips_through_the_wire_format() {
        let frame =
            Frame::request(Op::CbcEncrypt, 0, 7, 0xDEAD_BEEF, vec![9u8; 48]).with_corr(0x1234_5678);
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        assert_eq!(wire.len(), 4 + HEADER_LEN + 48);
        assert_eq!(wire[4], PROTOCOL_VERSION);
        let back = Frame::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.corr, 0x1234_5678);
        assert_eq!(back.op(), Some(Op::CbcEncrypt));
        assert_eq!(back.status(), None);
    }

    #[test]
    fn error_reply_roundtrips_code_and_detail() {
        let frame = Frame::error(ErrorCode::Busy, 32, 3, 1);
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let back = Frame::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(back.status(), Some(Status::Error));
        assert_eq!(back.error_body(), Some((ErrorCode::Busy, 32)));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        match Frame::read_from(&mut wire.as_slice()) {
            Err(RecvError::TooLarge { len }) => assert_eq!(len as usize, MAX_FRAME_LEN + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn undersized_length_prefix_is_refused() {
        // An empty frame has no version byte to check, whatever follows.
        let wire = [0, 0, 0, 0, PROTOCOL_VERSION];
        assert!(matches!(
            Frame::read_from(&mut wire.as_slice()),
            Err(RecvError::TooShort { len: 0 })
        ));
        let mut buf = RecvBuffer::new();
        buf.extend_from_slice(&wire[..4]);
        assert!(matches!(
            buf.next_frame(),
            Err(RecvError::TooShort { len: 0 })
        ));
        // A current version byte, then too few header bytes.
        for len in [1, 12, HEADER_LEN as u32 - 1] {
            let mut wire = len.to_be_bytes().to_vec();
            wire.push(PROTOCOL_VERSION);
            wire.resize(4 + len as usize, 0);
            assert!(
                matches!(
                    Frame::read_from(&mut wire.as_slice()),
                    Err(RecvError::TooShort { len: l }) if l == len
                ),
                "len {len}"
            );
        }
    }

    /// The framing a foreign version byte starts, `len` bytes after the
    /// prefix (a retired v1 PING header is 11).
    fn foreign_frame(version: u8, len: u32) -> Vec<u8> {
        let mut wire = len.to_be_bytes().to_vec();
        wire.push(version);
        wire.resize(4 + len as usize, 0);
        wire
    }

    #[test]
    fn foreign_versions_are_refused_before_the_header_minimum() {
        for version in [0u8, 1, 3, 9, 255] {
            for len in [1u32, 11, HEADER_LEN as u32, 40] {
                let wire = foreign_frame(version, len);
                match Frame::read_from(&mut wire.as_slice()) {
                    Err(RecvError::BadVersion { version: v }) => assert_eq!(v, version),
                    other => panic!("version {version}, len {len}: got {other:?}"),
                }
                let mut buf = RecvBuffer::new();
                buf.extend_from_slice(&wire);
                assert!(
                    matches!(buf.next_frame(), Err(RecvError::BadVersion { version: v }) if v == version),
                    "version {version}, len {len}"
                );
            }
        }
    }

    #[test]
    fn next_frame_names_a_foreign_version_once_its_byte_arrives() {
        // The 11-byte v1 PING: the version byte is the fifth byte on the
        // wire, and nothing after it is needed to refuse the frame.
        let wire = foreign_frame(1, 11);
        let mut buf = RecvBuffer::new();
        buf.extend_from_slice(&wire[..4]);
        assert!(matches!(buf.next_frame(), Ok(None)));
        buf.extend_from_slice(&wire[4..5]);
        assert!(matches!(
            buf.next_frame(),
            Err(RecvError::BadVersion { version: 1 })
        ));
        // The buffer is untouched: asking again names the same byte.
        assert_eq!(buf.len(), 5);
        assert!(matches!(
            buf.next_frame(),
            Err(RecvError::BadVersion { version: 1 })
        ));
    }

    #[test]
    fn oversized_payload_is_refused_at_send() {
        let frame = Frame::request(Op::Ping, 0, 0, 0, vec![0u8; MAX_PAYLOAD + 1]);
        let err = frame.write_to(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn write_to_appends_one_whole_frame_or_nothing() {
        let queued = b"earlier reply".to_vec();
        for frame in [
            Frame::request(Op::XtsEncrypt, 0, 7, 3, vec![5u8; 40]).with_corr(0xC0FF_EE00),
            Frame::error(ErrorCode::Busy, 32, 42, 3),
        ] {
            let mut queue = queued.clone();
            frame.write_to(&mut queue).unwrap();
            assert_eq!(queue[..queued.len()], queued[..], "{frame:?}");
            let mut rest = &queue[queued.len()..];
            assert_eq!(Frame::read_from(&mut rest).unwrap(), frame);
            assert!(rest.is_empty(), "{frame:?}");
        }
        // An unsendable frame writes nothing: a queue of whole frames
        // stays in sync.
        let oversized = Frame::request(Op::Ping, 0, 0, 0, vec![0u8; MAX_PAYLOAD + 1]);
        let mut queue = queued.clone();
        let err = oversized.write_to(&mut queue).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(queue, queued);
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let frame = Frame::request(Op::Ping, 0, 1, 0, vec![1, 2, 3]);
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            Frame::read_from(&mut wire.as_slice()),
            Err(RecvError::Io(_))
        ));
    }

    #[test]
    fn recv_buffer_handles_trickled_and_back_to_back_frames() {
        let a = Frame::request(Op::Ping, 0, 1, 0, vec![0xAA; 5]);
        let b = Frame::request(Op::GetStats, 0, 2, 9, Vec::new()).with_corr(77);
        let mut wire = Vec::new();
        a.write_to(&mut wire).unwrap();
        b.write_to(&mut wire).unwrap();

        let mut buf = RecvBuffer::new();
        let mut parsed = Vec::new();
        // Feed one byte at a time: partial frames must park, never error.
        for byte in wire {
            buf.extend_from_slice(&[byte]);
            while let Some(frame) = buf.next_frame().unwrap() {
                parsed.push(frame);
            }
        }
        assert_eq!(parsed, vec![a, b]);
        assert!(buf.is_empty());

        // An oversized prefix is refused from the first four bytes on.
        let mut poisoned = RecvBuffer::new();
        poisoned.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(matches!(
            poisoned.next_frame(),
            Err(RecvError::TooLarge { .. })
        ));
        // The buffer is untouched: the caller can still report length.
        assert_eq!(poisoned.len(), 4);
    }

    #[test]
    fn thousands_of_buffered_frames_parse_without_quadratic_memmove() {
        // The pipelined-burst regression: many complete frames sitting
        // in one receive buffer. The old drain-per-frame parser moved
        // the whole remaining buffer once per frame (O(n²) memmove);
        // the cursor moves nothing for a contiguous burst.
        const FRAMES: usize = 5000;
        let mut wire = Vec::new();
        for i in 0..FRAMES {
            Frame::request(Op::Ping, 0, i as u32, 0, vec![i as u8; 32])
                .with_corr(!(i as u32))
                .write_to(&mut wire)
                .unwrap();
        }
        let mut buf = RecvBuffer::new();
        buf.extend_from_slice(&wire);
        let mut n = 0usize;
        while let Some(frame) = buf.next_frame().unwrap() {
            assert_eq!(frame.seq, n as u32);
            assert_eq!(frame.corr, !(n as u32));
            assert_eq!(frame.payload, vec![n as u8; 32]);
            n += 1;
        }
        assert_eq!(n, FRAMES);
        assert!(buf.is_empty());
        assert_eq!(
            buf.compacted_bytes(),
            0,
            "a contiguous burst must parse with zero memmove"
        );

        // Chunked arrival (a torn frame on every boundary) stays linear:
        // the bytes compaction moves are bounded by the bytes received.
        let mut buf = RecvBuffer::new();
        let mut n = 0usize;
        for chunk in wire.chunks(8192) {
            buf.extend_from_slice(chunk);
            while let Some(_frame) = buf.next_frame().unwrap() {
                n += 1;
            }
        }
        assert_eq!(n, FRAMES);
        assert!(
            buf.compacted_bytes() <= wire.len() as u64,
            "compaction moved {} bytes for a {}-byte stream",
            buf.compacted_bytes(),
            wire.len()
        );
    }

    #[test]
    fn write_parts_sends_what_write_to_sends() {
        let frame = Frame::request(Op::Seal, 0, 9, 4, (0..40u8).collect()).with_corr(77);
        let mut whole = Vec::new();
        frame.write_to(&mut whole).unwrap();
        let head = encode_head(frame.kind, 0, 9, 4, 77, 40).unwrap();
        let (a, b) = frame.payload.split_at(16);
        let mut sent = Vec::new();
        write_parts(&mut sent, [&head, &[], a, &[], b]).unwrap();
        assert_eq!(sent, whole);
        let err = encode_head(0, 0, 0, 0, 0, MAX_PAYLOAD + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Trickle<'a> {
        rest: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_body_in_progress_fills_its_own_buffer() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 253) as u8).collect();
        let frame = Frame::request(Op::Ping, 0, 5, 0, payload.clone()).with_corr(6);
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        let next = Frame::request(Op::Ping, 0, 7, 0, vec![1, 2]);
        next.write_to(&mut wire).unwrap();

        // A recycled buffer: longer than the body, with old contents.
        for recycled in [Vec::new(), vec![0xFF; 300_000]] {
            let mut buf = RecvBuffer::new();
            buf.extend_from_slice(&wire[..HEAD_LEN + 1000]);
            assert!(buf.next_frame().unwrap().is_none());
            let mut asked = None;
            assert!(buf.start_body(|len, buffered| {
                asked = Some((len, buffered));
                recycled
            }));
            assert_eq!(asked, Some((payload.len(), 1000)));
            assert_eq!(buf.len(), HEAD_LEN + 1000);
            assert_eq!(buf.body_missing(), payload.len() - 1000);
            // A body in progress never starts another.
            assert!(!buf.start_body(|_, _| unreachable!()));
            let mut reader = Trickle {
                rest: &wire[HEAD_LEN + 1000..],
                step: 70_000,
            };
            let mut reads = 0;
            while buf.body_missing() > 0 {
                assert!(buf.next_frame().unwrap().is_none());
                assert!(buf.fill_body(&mut reader).unwrap() > 0);
                reads += 1;
            }
            assert!(reads <= 5, "{reads} reads for a 200 KB body");
            assert_eq!(buf.next_frame().unwrap(), Some(frame.clone()));
            assert!(buf.is_empty());
            // The stream continues on the cursor after the body.
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            buf.extend_from_slice(&rest);
            assert_eq!(buf.next_frame().unwrap(), Some(next.clone()));
        }

        // The blocking path reads the rest in one call, into capacity
        // sized from the head; an early EOF is an error.
        let mut buf = RecvBuffer::new();
        buf.extend_from_slice(&wire[..HEAD_LEN + 10]);
        assert!(buf.start_body(|len, _| Vec::with_capacity(len)));
        buf.read_body(&wire[HEAD_LEN + 10..]).unwrap();
        assert_eq!(buf.next_frame().unwrap(), Some(frame.clone()));
        let mut buf = RecvBuffer::new();
        buf.extend_from_slice(&wire[..HEAD_LEN + 10]);
        assert!(buf.start_body(|len, _| Vec::with_capacity(len)));
        let short = &wire[HEAD_LEN + 10..HEAD_LEN + 5000];
        let err = buf.read_body(short).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(buf.body_missing(), payload.len() - 5000);
    }

    #[test]
    fn only_a_checked_head_with_a_missing_body_starts_a_body() {
        let mut wire = Vec::new();
        Frame::request(Op::Ping, 0, 1, 0, vec![9; 64])
            .write_to(&mut wire)
            .unwrap();
        // A head still arriving, and a frame already whole.
        for have in [HEAD_LEN - 1, wire.len()] {
            let mut buf = RecvBuffer::new();
            buf.extend_from_slice(&wire[..have]);
            assert!(!buf.start_body(|_, _| unreachable!()), "{have} bytes");
        }
        // Broken framing is reported by next_frame; no buffer is taken.
        let mut oversized = wire.clone();
        oversized[..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let mut foreign = wire.clone();
        foreign[4] = 1;
        for broken in [oversized, foreign] {
            let mut buf = RecvBuffer::new();
            buf.extend_from_slice(&broken[..HEAD_LEN + 1]);
            assert!(buf.next_frame().is_err());
            assert!(!buf.start_body(|_, _| unreachable!()));
        }
    }

    #[test]
    fn every_op_code_roundtrips() {
        for op in [
            Op::SetKey,
            Op::Ping,
            Op::GetStats,
            Op::SetKeyWrapped,
            Op::EcbEncrypt,
            Op::EcbDecrypt,
            Op::CbcEncrypt,
            Op::CbcDecrypt,
            Op::CtrApply,
            Op::CmacTag,
            Op::CmacVerify,
            Op::Seal,
            Op::Open,
            Op::WrapKey,
            Op::UnwrapKey,
            Op::XtsEncrypt,
            Op::XtsDecrypt,
        ] {
            assert_eq!(Op::from_u8(op as u8), Some(op));
            assert!(op
                .name()
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b == b'_'));
        }
        assert_eq!(Op::from_u8(0x7E), None);
        assert_eq!(
            Op::from_u8(0x02),
            None,
            "the retired drain op stays reserved"
        );
    }

    #[test]
    fn every_status_and_error_code_roundtrips() {
        for st in [Status::Ok, Status::Error] {
            assert_eq!(Status::from_u8(st as u8), Some(st));
        }
        for reserved in [0x81, 0x82, 0x83, 0x90] {
            assert_eq!(Status::from_u8(reserved), None, "{reserved:#04x}");
        }
        for code in (1..=17u8).filter(|&c| c != 13) {
            let decoded = ErrorCode::from_u8(code).expect("codes 1..=17 but 13 are assigned");
            assert_eq!(decoded as u8, code);
            assert!(!decoded.to_string().is_empty());
            assert!(!decoded.name().is_empty());
        }
        for reserved in [0, 13, 18] {
            assert_eq!(ErrorCode::from_u8(reserved), None, "code {reserved}");
        }
    }

    #[test]
    fn engine_mode_mapping_covers_exactly_the_engine_ops() {
        let iv = [7u8; 16];
        assert_eq!(Op::EcbEncrypt.engine_mode(iv), Some(Mode::EcbEncrypt));
        assert_eq!(Op::EcbDecrypt.engine_mode(iv), Some(Mode::EcbDecrypt));
        assert_eq!(Op::CbcEncrypt.engine_mode(iv), Some(Mode::CbcEncrypt(iv)));
        assert_eq!(Op::CbcDecrypt.engine_mode(iv), Some(Mode::CbcDecrypt(iv)));
        assert_eq!(Op::CtrApply.engine_mode(iv), Some(Mode::Ctr(iv)));
        for op in [
            Op::SetKey,
            Op::Ping,
            Op::GetStats,
            Op::SetKeyWrapped,
            Op::CmacTag,
            Op::CmacVerify,
            Op::Seal,
            Op::Open,
            Op::WrapKey,
            Op::UnwrapKey,
            Op::XtsEncrypt,
            Op::XtsDecrypt,
        ] {
            assert_eq!(op.engine_mode(iv), None);
        }
        assert!(Op::CtrApply.takes_iv() && !Op::EcbEncrypt.takes_iv());
    }
}

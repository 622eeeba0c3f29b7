//! Blocking loopback client with a pipelined submit/collect API: one
//! [`Client`] per TCP connection to one service node.
//!
//! A `Client` owns everything a correct conversation needs — the
//! sequence counter, the live session id, the set of outstanding
//! correlation ids and the bounded stash of out-of-order replies — and
//! implements the [`Transport`] core over it. The typed ops
//! ([`Transport::ping`], [`Transport::ecb_encrypt`], ...) are written
//! once, on that trait; the cluster router drives one `Client` per
//! session through the same core, which is why the two never disagree
//! about framing.
//!
//! The client maps [`Status::Error`] replies into
//! [`ClientError::Service`], and matches every reply to its request by
//! **correlation id** — never by arrival order. That makes it safe
//! against the server's out-of-order completions: a reply for a
//! different outstanding request is stashed and delivered when its own
//! call asks for it, and only a reply that matches *nothing*
//! outstanding is an error ([`ClientError::StrayReply`] — the old
//! client failed hard on any sequence mismatch, with no way to
//! resynchronise). The stash is bounded at [`Client::STASH_CAP`]
//! frames: a caller that abandons correlation ids can no longer grow
//! it without limit — the oldest stashed reply is dropped instead and
//! counted in [`Client::stash_evictions`].
//!
//! Two request disciplines are exposed:
//!
//! * **blocking** — [`Transport::call`] and the typed ops over it: send
//!   one request, wait for its reply;
//! * **pipelined** — [`Client::pipeline`] sends without waiting
//!   (depth-N in flight per connection), [`Client::collect_next`] /
//!   [`Transport::collect_all`] receive completions in whatever order
//!   the session finished them; a session at capacity answers the job
//!   with a typed `Busy`, to be retried after collecting.
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
use crate::transport::Transport;

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

/// A blocking connection to one service node; see the [module
/// docs](self) for the wire discipline and [`Transport`] for the typed
/// ops.
///
/// Replies arrive through a [`RecvBuffer`] fed by a 16 KiB read
/// buffer, so small replies — pipelined ones included — are parsed out
/// of one `read`; a reply body still arriving when its head is parsed
/// is read straight into its own payload, sized from the head, with no
/// staging copy.
pub struct Client {
    stream: TcpStream,
    inbuf: RecvBuffer,
    read_buf: Box<[u8]>,
    seq: u32,
    session: u32,
    /// Correlation ids of pipelined requests still awaiting replies.
    pending: HashSet<u32>,
    /// Out-of-order pipelined replies received while waiting for
    /// something else, in arrival order; never longer than
    /// [`Client::STASH_CAP`].
    stash: Vec<Frame>,
    /// Stashed replies dropped at the cap (their correlation ids are
    /// forgotten with them).
    stash_evicted: u64,
}

impl fmt::Debug for Client {
    /// The conversation's state, not its buffers' bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("stream", &self.stream)
            .field("seq", &self.seq)
            .field("session", &self.session)
            .field("in_flight", &self.pending.len())
            .field("stashed", &self.stash.len())
            .field("buffered", &self.inbuf.len())
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Most out-of-order replies held for later collection before the
    /// oldest is dropped. A caller that abandons correlation ids (sends
    /// pipelined work and never collects) previously grew the stash
    /// without bound; now it saturates here.
    pub const STASH_CAP: usize = 1024;

    /// Connects (with `TCP_NODELAY`), sequence numbering starting at 1.
    ///
    /// # Errors
    ///
    /// Propagates connect/setsockopt failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
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

    /// The live session id (0 before the first [`Client::set_key`]).
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

    /// Stashed replies dropped at [`Client::STASH_CAP`] over the
    /// connection's lifetime.
    #[must_use]
    pub fn stash_evictions(&self) -> u64 {
        self.stash_evicted
    }

    /// Loads an AES key; see [`Transport::set_key`].
    ///
    /// # Errors
    ///
    /// As [`Transport::set_key`].
    pub fn set_key(&mut self, key: &[u8]) -> Result<u32, ClientError> {
        Ok(self.call(Op::SetKey, &[key])?.session)
    }

    /// Fetches the node's telemetry snapshot; see [`Transport::stats`].
    ///
    /// # Errors
    ///
    /// As [`Transport::stats`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        String::from_utf8(self.call(Op::GetStats, &[])?.payload)
            .map_err(|_| ClientError::Protocol("non-UTF-8 stats payload".into()))
    }

    /// Sends an engine op without waiting for its reply; see
    /// [`Transport::pipeline`].
    ///
    /// # Errors
    ///
    /// As [`Transport::pipeline`].
    pub fn pipeline(
        &mut self,
        op: Op,
        iv: Option<&[u8; 16]>,
        data: &[u8],
    ) -> Result<u32, ClientError> {
        let corr = self.send(op, &[iv.map_or(&[], |iv| iv), data])?;
        self.pending.insert(corr);
        Ok(corr)
    }

    /// Receives the next pipelined completion; see
    /// [`Transport::collect_next`].
    ///
    /// # Errors
    ///
    /// As [`Transport::collect_next`].
    pub fn collect_next(&mut self) -> Result<PipelinedJob, ClientError> {
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

    /// Sends one request under the live session, its payload the
    /// concatenation of `parts`, straight from the caller's slices in
    /// one vectored write. Returns its sequence number, which is also
    /// its correlation id. More than [`MAX_PARTS`] parts is refused
    /// before anything is sent.
    fn send(&mut self, op: Op, parts: &[&[u8]]) -> Result<u32, ClientError> {
        if parts.len() > MAX_PARTS {
            return Err(ClientError::Protocol(format!(
                "{} payload parts in one request; at most {MAX_PARTS}",
                parts.len()
            )));
        }
        let seq = self.seq.wrapping_add(1);
        self.seq = seq;
        let len = parts.iter().map(|p| p.len()).sum();
        let head = encode_head(op as u8, 0, seq, self.session, seq, len)?;
        let mut all: [&[u8]; 1 + MAX_PARTS] = [&[]; 1 + MAX_PARTS];
        all[0] = &head;
        all[1..=parts.len()].copy_from_slice(parts);
        write_parts(&mut self.stream, all)?;
        Ok(seq)
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
}

/// The core over one connection: a `SET_KEY` or `SET_KEY_WRAPPED` that
/// succeeds through [`Transport::call`] makes its reply's session the
/// live one, whichever method sent it.
impl Transport for Client {
    fn set_key(&mut self, key: &[u8]) -> Result<u32, ClientError> {
        Client::set_key(self, key)
    }

    fn set_key_wrapped(&mut self, wrapped: &[u8]) -> Result<u32, ClientError> {
        Ok(self.call(Op::SetKeyWrapped, &[wrapped])?.session)
    }

    fn call(&mut self, op: Op, parts: &[&[u8]]) -> Result<Frame, ClientError> {
        let seq = self.send(op, parts)?;
        let reply = self.recv_matched(seq)?;
        if let Some((code, detail)) = reply.error_body() {
            return Err(ClientError::Service { code, detail });
        }
        if reply.status() != Some(Status::Ok) {
            return Err(ClientError::Protocol(format!(
                "expected Ok, got kind {:#04x}",
                reply.kind
            )));
        }
        if matches!(op, Op::SetKey | Op::SetKeyWrapped) {
            self.session = reply.session;
        }
        Ok(reply)
    }

    fn stats(&mut self) -> Result<String, ClientError> {
        Client::stats(self)
    }

    fn pipeline(&mut self, op: Op, iv: Option<&[u8; 16]>, data: &[u8]) -> Result<u32, ClientError> {
        Client::pipeline(self, op, iv, data)
    }

    fn collect_next(&mut self) -> Result<PipelinedJob, ClientError> {
        Client::collect_next(self)
    }

    fn in_flight(&self) -> usize {
        Client::in_flight(self)
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
        let depth = Client::STASH_CAP + 1;
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
        assert_eq!(client.in_flight(), Client::STASH_CAP);
        let jobs = client.collect_all().unwrap();
        assert_eq!(jobs.len(), Client::STASH_CAP);
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
                    .write_to(&mut wire)
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
    fn a_call_with_four_parts_is_a_typed_error_and_sends_nothing() {
        // The peer answers one ping, correlated 1: the refused call must
        // have written no bytes and spent no sequence number.
        let (addr, server) = scripted_server(1, vec![ok_reply(1, b"pong".to_vec())]);
        let mut client = Client::connect(addr).unwrap();
        let part = [0u8; 4];
        match client.call(Op::Ping, &[&part, &part, &part, &part]) {
            Err(ClientError::Protocol(what)) => assert!(what.contains("4 payload parts"), "{what}"),
            other => panic!("expected a Protocol error, got {other:?}"),
        }
        assert_eq!(client.ping(b"pong").unwrap(), b"pong");
        let seen = server.join().unwrap();
        assert_eq!(
            (seen[0].corr, seen[0].payload.as_slice()),
            (1, &b"pong"[..])
        );
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

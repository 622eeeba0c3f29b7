//! The load generator's two disciplines, each over one connection.
//!
//! * [`open_loop`] sends on a fixed schedule whether or not replies have
//!   come back, the way independent users arrive. It speaks the wire
//!   protocol directly (`service::protocol` frames over a nonblocking
//!   socket) because the blocking client cannot send while it waits.
//!   Each request is timed from when it was *due*, so a stall is charged
//!   to every request it delayed, and the generator reports how late it
//!   sent.
//! * [`closed_loop`] keeps a fixed number of requests in flight through
//!   `service::Client`'s pipelined API, the way callers that each wait
//!   for their reply behave; requests are timed from send to reply.
//!
//! Both check sampled replies against the pool's expected bytes, count
//! the requests they send per op for the node audit, and leave the first
//! part of the window (the warm-up) out of latency and throughput.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use service::protocol::{Frame, RecvBuffer, Status};
use service::{Client, Op};

use crate::check::{Pool, Tally, Verifier};
use crate::stats::Series;
use crate::trace::Tracer;

/// How long a window waits for its last replies before counting them
/// as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// What one lane measured in one window.
#[derive(Debug, Default)]
pub struct LaneStats {
    /// Latency of each request started after the warm-up, by start time.
    pub latency: Series,
    /// Completion times of requests started after the warm-up.
    pub completions: Series,
    /// How late each open-loop request left, in nanoseconds.
    pub late_ns: Vec<u64>,
    /// Requests attempted (warm-up included).
    pub attempted: u64,
    /// Requests that failed, were refused or came back wrong.
    pub failed: u64,
    /// Requests sent, by op, for the audit.
    pub tally: Tally,
    /// Replies compared against their expected bytes.
    pub checked: u64,
}

impl LaneStats {
    fn new(window: Window) -> LaneStats {
        LaneStats {
            latency: Series::new(window.measured()),
            completions: Series::new(window.measured()),
            ..LaneStats::default()
        }
    }

    fn verified(&mut self, verifier: &mut Verifier<'_>) {
        verifier.finish();
        self.checked += verifier.checked;
        self.failed += verifier.mismatched;
    }
}

/// Window timing shared by both disciplines.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Total length, warm-up included.
    pub length: Duration,
    /// Leading part excluded from latency and throughput.
    pub warmup: Duration,
}

impl Window {
    /// The timed part of the window.
    #[must_use]
    pub fn measured(&self) -> Duration {
        self.length.saturating_sub(self.warmup)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Sends one frame on a blocking stream and reads its reply; a typed
/// error reply is an error.
///
/// # Errors
///
/// Transport failures, bad framing, or the typed error, as a message.
pub fn round_trip(stream: &mut TcpStream, frame: &Frame) -> Result<Frame, String> {
    let op = frame.op().map_or("?", Op::name);
    frame
        .write_to(stream)
        .map_err(|e| format!("{op} send: {e}"))?;
    let reply = Frame::read_from(stream).map_err(|e| format!("{op} reply: {e}"))?;
    match reply.error_body() {
        Some((code, detail)) => Err(format!("{op} answered {code} ({detail})")),
        None if reply.corr != frame.corr => {
            Err(format!("{op} reply carried correlation id {}", reply.corr))
        }
        None => Ok(reply),
    }
}

/// Opens a v2 connection and keys a session on it with blocking I/O,
/// returning the stream (switched to nonblocking) and the session id.
fn keyed_stream(addr: SocketAddr, key: &[u8; 16]) -> Result<(TcpStream, u32), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let reply = round_trip(
        &mut stream,
        &Frame::request(Op::SetKey, 0, 1, 0, key.to_vec()),
    )?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    Ok((stream, reply.session))
}

/// Runs an open loop of `rate` requests per second from `pool` over a
/// fresh connection to `addr`, for `window`.
///
/// # Errors
///
/// Only when the connection cannot be set up; failures after that are
/// counted in the returned stats.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    rate: f64,
    window: Window,
    tracer: &mut Tracer,
) -> Result<LaneStats, String> {
    let (mut stream, session) =
        keyed_stream(addr, &pool.key).map_err(|e| format!("open loop: {e}"))?;
    let mut stats = LaneStats::new(window);
    stats.tally.add(Op::SetKey, 1);
    let mut verifier = Verifier::default();

    let period_ns = 1e9 / rate;
    let total = (window.length.as_secs_f64() * rate) as u64;
    let warm_index = (window.warmup.as_secs_f64() * rate).ceil() as u64;
    let start = Instant::now() + Duration::from_millis(1);
    let measured_from = start + window.warmup;
    let due = |i: u64| start + Duration::from_nanos((i as f64 * period_ns) as u64);
    // Send end and root span of each traced request still in flight.
    let mut in_flight: HashMap<u64, (Instant, usize)> = HashMap::new();

    let mut inbuf = RecvBuffer::new();
    let mut out: Vec<u8> = Vec::new();
    let mut out_at = 0usize;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut sent = 0u64;
    let mut received = 0u64;
    let drain_deadline = start + window.length + DRAIN_LIMIT;

    'run: while received < total {
        let now = Instant::now();
        while sent < total && due(sent) <= now {
            let request = pool.get(sent);
            let corr = u32::try_from(sent + 1).expect("a window sends under 2^32 requests");
            let begin = Instant::now();
            Frame::request(request.op, 0, corr, session, request.payload.clone())
                .with_corr(corr)
                .write_to(&mut out)
                .expect("pool payloads fit a frame");
            if let Err(e) = flush(&mut stream, &mut out, &mut out_at) {
                eprintln!("open loop: send failed: {e}");
                break 'run;
            }
            if sent >= warm_index {
                stats
                    .late_ns
                    .push(nanos(begin.saturating_duration_since(due(sent))));
            }
            if tracer.enabled() {
                let root = tracer.record("loadgen.request", due(sent), due(sent), None, sent);
                let end = Instant::now();
                tracer.record("loadgen.send", begin, end, Some(root), sent);
                in_flight.insert(sent, (end, root));
            }
            stats.tally.add(request.op, 1);
            sent += 1;
        }
        if out_at < out.len() {
            if let Err(e) = flush(&mut stream, &mut out, &mut out_at) {
                eprintln!("open loop: send failed: {e}");
                break;
            }
        }
        match stream.read(&mut scratch) {
            Ok(0) => {
                eprintln!("open loop: node closed the connection");
                break;
            }
            Ok(n) => {
                let arrived = Instant::now();
                inbuf.extend_from_slice(&scratch[..n]);
                loop {
                    let frame = match inbuf.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(e) => {
                            eprintln!("open loop: bad reply framing: {e}");
                            break 'run;
                        }
                    };
                    let index = u64::from(frame.corr).wrapping_sub(1);
                    if index >= sent {
                        eprintln!("open loop: reply for unknown request {}", frame.corr);
                        stats.failed += 1;
                        continue;
                    }
                    if frame.status() == Some(Status::Ok) {
                        verifier.reply(received, pool.get(index), frame.payload);
                    } else {
                        stats.failed += 1;
                    }
                    if index >= warm_index {
                        let offset = due(index).saturating_duration_since(measured_from);
                        stats
                            .latency
                            .push(offset, nanos(arrived.saturating_duration_since(due(index))));
                        stats
                            .completions
                            .push(arrived.saturating_duration_since(measured_from), 0);
                    }
                    if let Some((send_end, root)) = in_flight.remove(&index) {
                        tracer.record("loadgen.wait", send_end, arrived, Some(root), index);
                        tracer.close(root, arrived);
                    }
                    received += 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("open loop: receive failed: {e}");
                break;
            }
        }
        if now > drain_deadline {
            eprintln!(
                "open loop: {} replies missing after the drain limit",
                total - received
            );
            break;
        }
        // Poll rather than sleep: a woken generator is late by the
        // wake-up, and requests are only 50 µs apart. Yielding instead
        // of spinning lets the generator's other thread (the closed
        // loop of `mixed_inline`) run the moment it has work; on a
        // 2-vCPU VM, spinning made that lane's throughput spread 15%
        // between runs, yielding 8%.
        std::thread::yield_now();
    }
    stats.attempted = total;
    stats.failed += total - received.min(total);
    stats.verified(&mut verifier);
    Ok(stats)
}

/// Writes as much of `out` as the nonblocking socket takes.
fn flush(stream: &mut TcpStream, out: &mut Vec<u8>, at: &mut usize) -> io::Result<()> {
    while *at < out.len() {
        match stream.write(&out[*at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *at += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.clear();
    *at = 0;
    Ok(())
}

/// Keeps `depth` requests from `pool` in flight on `client` for
/// `window`, then collects the stragglers.
pub fn closed_loop(
    client: &mut Client,
    pool: &Pool,
    depth: usize,
    window: Window,
    tracer: &mut Tracer,
) -> LaneStats {
    let mut lane = Closed {
        pool,
        stats: LaneStats::new(window),
        in_flight: HashMap::with_capacity(depth),
        next: 0,
    };
    let mut verifier = Verifier::default();
    let start = Instant::now();
    let measured_from = start + window.warmup;
    let end = start + window.length;
    let mut received = 0u64;

    for _ in 0..depth {
        lane.send(client, tracer);
    }
    while !lane.in_flight.is_empty() {
        let waited = Instant::now();
        let job = match client.collect_next() {
            Ok(job) => job,
            Err(e) => {
                eprintln!("closed loop: receive failed: {e}");
                lane.stats.failed += lane.in_flight.len() as u64;
                break;
            }
        };
        let arrived = Instant::now();
        let Some((index, sent_at, root)) = lane.in_flight.remove(&job.corr) else {
            lane.stats.failed += 1;
            continue;
        };
        if tracer.enabled() {
            tracer.record("client.wait", waited, arrived, Some(root), index);
            tracer.close(root, arrived);
        }
        match job.result {
            Ok(bytes) => verifier.reply(received, pool.get(index), bytes),
            Err((code, detail)) => {
                eprintln!("closed loop: typed error {code} ({detail})");
                lane.stats.failed += 1;
            }
        }
        received += 1;
        if sent_at >= measured_from {
            lane.stats
                .latency
                .push(sent_at - measured_from, nanos(arrived - sent_at));
            lane.stats.completions.push(arrived - measured_from, 0);
        }
        if arrived < end {
            lane.send(client, tracer);
        }
    }
    let mut stats = lane.stats;
    stats.verified(&mut verifier);
    stats
}

/// The sending half of a closed loop.
struct Closed<'a> {
    pool: &'a Pool,
    stats: LaneStats,
    /// Correlation id -> (request index, send time, root span).
    in_flight: HashMap<u32, (u64, Instant, usize)>,
    next: u64,
}

impl Closed<'_> {
    fn send(&mut self, client: &mut Client, tracer: &mut Tracer) {
        let request = self.pool.get(self.next);
        let begin = Instant::now();
        let sent = client.pipeline(request.op, None, &request.payload);
        self.stats.attempted += 1;
        self.stats.tally.add(request.op, 1);
        match sent {
            Ok(corr) => {
                let mut root = 0;
                if tracer.enabled() {
                    root = tracer.record("client.request", begin, begin, None, self.next);
                    tracer.record("client.send", begin, Instant::now(), Some(root), self.next);
                }
                self.in_flight.insert(corr, (self.next, begin, root));
                self.next += 1;
            }
            Err(e) => {
                eprintln!("closed loop: send failed: {e}");
                self.stats.failed += 1;
            }
        }
    }
}

/// One blocking request through the pipelined API (so the traced run
/// can split send from wait), returning the reply bytes.
///
/// # Errors
///
/// Transport failures and typed service errors, as a message.
pub fn call(
    client: &mut Client,
    op: Op,
    payload: &[u8],
    tracer: &mut Tracer,
    request: u64,
) -> Result<Vec<u8>, String> {
    let corr = tracer
        .time("client.send", None, request, || {
            client.pipeline(op, None, payload)
        })
        .map_err(|e| format!("{} send: {e}", op.name()))?;
    let job = tracer
        .time("client.wait", None, request, || client.collect_next())
        .map_err(|e| format!("{} reply: {e}", op.name()))?;
    if job.corr != corr {
        return Err(format!(
            "{} reply carried correlation id {}",
            op.name(),
            job.corr
        ));
    }
    job.result
        .map_err(|(code, detail)| format!("{} answered {code} ({detail})", op.name()))
}

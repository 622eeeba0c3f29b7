//! Minimal readiness polling over raw sockets — the std-only shim that
//! lets the event-driven server watch thousands of nonblocking
//! connections without any external crate.
//!
//! The workspace's hermetic policy (no registry dependencies) rules out
//! `mio`/`polling`, and std exposes no readiness API, so this module
//! declares the one libc entry point the server needs — `poll(2)` — as
//! an `extern "C"` import. std already links against the platform libc
//! on every supported target, so this adds no dependency; it is the
//! same move the `rijndael` crate made for its AVX2 intrinsics: a
//! single `#[allow(unsafe_code)]` module behind a crate-wide
//! `#![deny(unsafe_code)]`, with the unsafety confined to two FFI call
//! sites and audited by the tests below.
//!
//! Portability: the real implementation is `cfg(unix)`. Elsewhere the
//! same API degrades to a timed busy-poll fallback (every registered
//! socket reports ready after a short sleep), which keeps the crate
//! compiling and the server correct — nonblocking reads of a non-ready
//! socket just return `WouldBlock` — at the cost of idle CPU.

#![allow(unsafe_code)]

use std::io;
use std::time::Duration;

/// A raw socket descriptor (the `RawFd` of the unix socket APIs; a
/// dummy on other targets, where the fallback ignores it).
pub type Fd = i32;

/// Extracts the raw descriptor the poller needs from a socket.
#[cfg(unix)]
pub fn socket_fd<T: std::os::fd::AsRawFd>(socket: &T) -> Fd {
    socket.as_raw_fd()
}

/// Fallback descriptor extraction: the busy-poll path never
/// dereferences it.
#[cfg(not(unix))]
pub fn socket_fd<T>(_socket: &T) -> Fd {
    -1
}

/// One socket's readiness, reported by [`PollSet::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The caller's token from [`PollSet::register`] (the server uses
    /// connection slot indices).
    pub token: usize,
    /// Bytes (or an incoming connection) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
    /// The peer hung up or the socket errored; the owner should read to
    /// EOF / drop the connection.
    pub error: bool,
}

#[cfg(unix)]
mod sys {
    use super::{Fd, Readiness};
    use std::io;

    // <poll.h> on every unix libc this workspace targets.
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` — layout fixed by POSIX.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: Fd,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_pointer_width = "64")]
    type NfdsT = u64;
    #[cfg(not(target_pointer_width = "64"))]
    type NfdsT = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Blocks until a registered socket is ready or `timeout_ms`
    /// elapses, appending one [`Readiness`] per ready socket.
    pub fn poll_fds(
        fds: &mut [PollFd],
        tokens: &[usize],
        timeout_ms: i32,
        out: &mut Vec<Readiness>,
    ) -> io::Result<()> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records for the duration of the call, and
        // the length passed is exactly the slice length. poll(2) writes
        // only the `revents` fields.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // a signal; the caller just re-polls
            }
            return Err(err);
        }
        if rc == 0 {
            return Ok(()); // timeout
        }
        for (pfd, &token) in fds.iter().zip(tokens) {
            if pfd.revents == 0 {
                continue;
            }
            out.push(Readiness {
                token,
                readable: pfd.revents & POLLIN != 0,
                writable: pfd.revents & POLLOUT != 0,
                error: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

/// A reusable level-triggered readiness set.
///
/// The server rebuilds the set each loop iteration ([`PollSet::clear`]
/// then [`PollSet::register`] per live connection) — with `poll(2)`
/// there is no kernel-side registration to amortise, and rebuilding
/// keeps the interest list trivially in sync with the connection table.
/// The internal buffers are reused across iterations, so a steady-state
/// loop does not allocate.
#[derive(Debug, Default)]
pub struct PollSet {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    tokens: Vec<usize>,
    ready: Vec<Readiness>,
}

impl PollSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Drops every registration (buffer capacity is kept).
    pub fn clear(&mut self) {
        #[cfg(unix)]
        self.fds.clear();
        self.tokens.clear();
    }

    /// Registered sockets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Watches `fd`, reporting it back as `token`. At least one of
    /// `read`/`write` should be set; `error` conditions are always
    /// reported.
    pub fn register(&mut self, fd: Fd, token: usize, read: bool, write: bool) {
        #[cfg(unix)]
        {
            let mut events = 0i16;
            if read {
                events |= sys::POLLIN;
            }
            if write {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd {
                fd,
                events,
                revents: 0,
            });
        }
        #[cfg(not(unix))]
        let _ = (fd, read, write);
        self.tokens.push(token);
    }

    /// Waits up to `timeout` for readiness and returns the ready
    /// sockets (empty on timeout). The returned slice is valid until
    /// the next call.
    ///
    /// # Errors
    ///
    /// Fatal `poll(2)` failures (`EINVAL`, `ENOMEM`); interruption by a
    /// signal is not an error and returns an empty slice.
    pub fn poll(&mut self, timeout: Duration) -> io::Result<&[Readiness]> {
        self.ready.clear();
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        #[cfg(unix)]
        {
            for pfd in &mut self.fds {
                pfd.revents = 0;
            }
            sys::poll_fds(&mut self.fds, &self.tokens, timeout_ms, &mut self.ready)?;
        }
        #[cfg(not(unix))]
        {
            // Busy-poll fallback: claim everything is ready after a
            // short sleep; nonblocking socket calls sort out the truth.
            std::thread::sleep(Duration::from_millis(timeout_ms.min(2) as u64));
            for &token in &self.tokens {
                self.ready.push(Readiness {
                    token,
                    readable: true,
                    writable: true,
                    error: false,
                });
            }
        }
        Ok(&self.ready)
    }
}

/// A self-pipe that wakes a [`PollSet::poll`] loop from another thread.
///
/// The event-driven server parks its shard threads in `poll(2)`. Two
/// other threads have news for a parked shard but no socket of its to
/// make readable: a crypto worker that finished a job, and the acceptor
/// handing it a new connection. Without help either would wait out the
/// full poll timeout. The classic fix is the *self-pipe trick*: the
/// shard registers the read end of a pipe in its poll set, and the other
/// thread writes one byte to the write end — `poll` returns immediately,
/// the shard drains the pipe, services the finished sessions and admits
/// its new sockets. The server opens each shard's pipe before it starts
/// the shard, so the acceptor holds the shard's [`WakeNotifier`] from
/// the first connection on.
///
/// Built on [`std::os::unix::net::UnixStream::pair`] so no new FFI is
/// declared; both ends are nonblocking. A full pipe means a wake is
/// already pending, so `WouldBlock` on the write side is success. On
/// non-unix targets the type degrades to a no-op: the busy-poll fallback
/// already re-checks every connection each tick.
#[derive(Debug)]
pub struct WakePipe {
    #[cfg(unix)]
    read: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    write: std::sync::Arc<std::os::unix::net::UnixStream>,
}

/// The cloneable waking half of a [`WakePipe`], held by the acceptor
/// and handed to worker-pool notifiers. Safe to call from any thread,
/// never blocks.
#[derive(Debug, Clone)]
pub struct WakeNotifier {
    #[cfg(unix)]
    write: std::sync::Arc<std::os::unix::net::UnixStream>,
}

impl WakePipe {
    /// Opens the pipe.
    ///
    /// # Errors
    ///
    /// The socket pair cannot be opened or made nonblocking (descriptor
    /// exhaustion, say).
    pub fn new() -> io::Result<WakePipe> {
        #[cfg(unix)]
        {
            let (read, write) = std::os::unix::net::UnixStream::pair()?;
            read.set_nonblocking(true)?;
            write.set_nonblocking(true)?;
            Ok(WakePipe {
                read,
                write: std::sync::Arc::new(write),
            })
        }
        #[cfg(not(unix))]
        {
            Ok(WakePipe {})
        }
    }

    /// The descriptor to [`PollSet::register`] for reads.
    #[must_use]
    pub fn fd(&self) -> Fd {
        #[cfg(unix)]
        {
            socket_fd(&self.read)
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }

    /// A handle other threads use to wake this pipe's poller.
    #[must_use]
    pub fn notifier(&self) -> WakeNotifier {
        WakeNotifier {
            #[cfg(unix)]
            write: std::sync::Arc::clone(&self.write),
        }
    }

    /// Consumes every pending wake byte so the next `poll` blocks again.
    /// Call after the poll set reports the pipe readable.
    pub fn drain(&mut self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut buf = [0u8; 64];
            loop {
                match (&self.read).read(&mut buf) {
                    Ok(0) => break, // writer gone; nothing more to drain
                    Ok(_) => continue,
                    Err(_) => break, // WouldBlock: drained
                }
            }
        }
    }
}

impl WakeNotifier {
    /// Wakes the poller. A full pipe already guarantees a wake is
    /// pending, so every outcome is success; this never blocks.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&*self.write).write(&[1u8]);
        }
    }
}

/// Best-effort bump of the process `RLIMIT_NOFILE` soft limit to its
/// hard limit, returning the resulting soft limit. The event-driven
/// server holds one descriptor per connection, so the default soft
/// limit (often 1024) would cap admission far below the configured
/// connection budget. Failure is not an error — sandboxes routinely
/// deny `setrlimit` — the server simply admits fewer connections.
#[must_use]
pub fn raise_nofile_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct RLimit {
            rlim_cur: u64,
            rlim_max: u64,
        }
        const RLIMIT_NOFILE: i32 = 7;
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a valid, exclusively owned `#[repr(C)]`
        // rlimit record; getrlimit only writes into it.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return None;
        }
        if lim.rlim_cur < lim.rlim_max {
            let want = RLimit {
                rlim_cur: lim.rlim_max,
                rlim_max: lim.rlim_max,
            };
            // SAFETY: `want` is a valid rlimit record; setrlimit reads
            // it and mutates only process accounting state. EPERM just
            // leaves the old limit in place.
            if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                lim.rlim_cur = lim.rlim_max;
            }
        }
        Some(lim.rlim_cur)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn poll_reports_pending_accepts_and_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();

        let mut set = PollSet::new();
        set.register(socket_fd(&listener), 0, true, false);
        // Nothing pending: a short poll times out empty (unix only; the
        // fallback reports everything ready by design).
        if cfg!(unix) {
            let ready = set.poll(Duration::from_millis(10)).unwrap();
            assert!(ready.is_empty(), "nothing connected yet: {ready:?}");
        }

        let mut client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut accepted = None;
        while accepted.is_none() && Instant::now() < deadline {
            let ready = set.poll(Duration::from_millis(50)).unwrap();
            if ready.iter().any(|r| r.token == 0 && r.readable) {
                let (stream, _) = listener.accept().unwrap();
                stream.set_nonblocking(true).unwrap();
                accepted = Some(stream);
            }
        }
        let mut server_side = accepted.expect("poll never reported the pending accept");

        client.write_all(b"ping").unwrap();
        let mut set = PollSet::new();
        set.register(socket_fd(&server_side), 7, true, true);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 4 && Instant::now() < deadline {
            let ready = set.poll(Duration::from_millis(50)).unwrap();
            let Some(r) = ready.iter().find(|r| r.token == 7) else {
                continue;
            };
            assert!(r.writable, "an idle socket's send buffer has room");
            if r.readable {
                let mut buf = [0u8; 16];
                match server_side.read(&mut buf) {
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        }
        assert_eq!(got, b"ping");
    }

    #[test]
    fn poll_reports_peer_hangup_as_error_or_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        drop(client);

        let mut set = PollSet::new();
        set.register(socket_fd(&server_side), 3, true, false);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "hangup never surfaced");
            let ready = set.poll(Duration::from_millis(50)).unwrap();
            let Some(r) = ready.iter().find(|r| r.token == 3) else {
                continue;
            };
            // Depending on the platform the hangup is POLLHUP, plain
            // POLLIN-with-EOF, or both; all collapse to "close it".
            if r.error {
                break;
            }
            if r.readable {
                let mut buf = [0u8; 8];
                match server_side.read(&mut buf) {
                    Ok(0) => break, // EOF
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn wake_pipe_unblocks_a_parked_poll_from_another_thread() {
        let mut pipe = WakePipe::new().expect("platform provides a pipe");
        let notifier = pipe.notifier();
        let mut set = PollSet::new();
        set.register(pipe.fd(), 42, true, false);

        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            notifier.wake();
            notifier.wake(); // coalesces, never blocks
        });
        let start = Instant::now();
        let deadline = start + Duration::from_secs(5);
        let mut woken = false;
        while !woken && Instant::now() < deadline {
            let ready = set.poll(Duration::from_millis(250)).unwrap();
            woken = ready.iter().any(|r| r.token == 42 && r.readable);
        }
        waker.join().unwrap();
        assert!(woken, "wake byte never surfaced");
        if cfg!(unix) {
            assert!(
                start.elapsed() < Duration::from_millis(240),
                "poll should return on the wake, not the timeout"
            );
        }
        // Drained, the pipe goes quiet again.
        pipe.drain();
        if cfg!(unix) {
            let ready = set.poll(Duration::from_millis(10)).unwrap();
            assert!(ready.is_empty(), "{ready:?}");
        }
    }

    #[test]
    fn clear_reuses_the_set_and_limit_raise_is_best_effort() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut set = PollSet::new();
        set.register(socket_fd(&listener), 0, true, false);
        assert_eq!(set.len(), 1);
        set.clear();
        assert!(set.is_empty());
        set.register(socket_fd(&listener), 1, true, false);
        assert_eq!(set.len(), 1);
        let _ = set.poll(Duration::from_millis(1)).unwrap();

        // Must not panic or error out whatever the sandbox allows.
        if let Some(limit) = raise_nofile_limit() {
            assert!(limit > 0);
        }
    }
}

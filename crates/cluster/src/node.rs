//! Running and supervising cluster node processes.
//!
//! A cluster node is just a `service::Server` in its own process. Two
//! pieces live here:
//!
//! * [`run_node`] — the in-process body of a node: spawn the server,
//!   print the `CLUSTER_NODE_LISTENING <addr>` handshake line on
//!   stdout, then park until stdin reaches EOF (the parent closing the
//!   pipe — or dying — is the shutdown signal, so orphaned nodes clean
//!   themselves up). The `cluster_node` binary is a thin wrapper over
//!   this; the bench re-execs itself with a flag and calls the same
//!   function, keeping everything hermetic.
//! * [`NodeProcess`] — the parent side: spawn a command, wait for the
//!   handshake line, expose the address, and kill the child on drop
//!   (or via [`NodeProcess::kill`] for deliberate node-loss tests —
//!   that is SIGKILL, the no-goodbye failure mode the router must
//!   survive).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use service::{Server, ServiceConfig};

/// The stdout handshake prefix a node prints once its listener is
/// bound.
pub const LISTENING_PREFIX: &str = "CLUSTER_NODE_LISTENING ";

/// Runs a node to completion: spawns the server on `listen` (use
/// `127.0.0.1:0` for an ephemeral port), prints the handshake line,
/// then blocks until stdin hits EOF and shuts the server down.
///
/// # Errors
///
/// Propagates bind failures and stdout write failures.
pub fn run_node(config: ServiceConfig, listen: &str) -> io::Result<()> {
    let handle = Server::new(config).spawn(listen)?;
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "{LISTENING_PREFIX}{}", handle.local_addr())?;
    stdout.flush()?;
    // Park until the parent closes our stdin (or exits, which closes
    // it too). Reading to EOF needs no signal handling and no timers.
    let mut sink = Vec::new();
    let _ = io::stdin().lock().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// A supervised child node process.
#[derive(Debug)]
pub struct NodeProcess {
    child: Child,
    addr: SocketAddr,
}

impl NodeProcess {
    /// Spawns `command` (already argued to run a node), pipes its
    /// stdin/stdout, and blocks until the handshake line arrives.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits / prints something other
    /// than the handshake first.
    pub fn spawn(mut command: Command) -> io::Result<NodeProcess> {
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let Some(line) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("node exited before its handshake line"));
            };
            let line = line?;
            if let Some(rest) = line.strip_prefix(LISTENING_PREFIX) {
                break rest.trim().parse::<SocketAddr>().map_err(|e| {
                    io::Error::other(format!("unparseable node address {rest:?}: {e}"))
                })?;
            }
            // Anything else on stdout (cargo noise, diagnostics) is
            // skipped, not fatal — only silence or EOF is.
        };
        Ok(NodeProcess { child, addr })
    }

    /// The node's listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's OS process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the node without any goodbye (SIGKILL on Unix) and reaps
    /// it. This is the node-loss failure mode: in-flight requests are
    /// simply gone.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks the node to shut down cleanly by closing its stdin, then
    /// waits for it to exit.
    pub fn shutdown(mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for NodeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

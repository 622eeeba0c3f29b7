//! Framed TCP crypto service in front of the multi-core engine.
//!
//! The paper's IP is a bus-mastered coprocessor; the natural system
//! around a farm of them is a keyed service: clients connect, load a
//! key, and stream mode operations at the engine. This crate is that
//! service, std-only and hermetic like the rest of the workspace:
//!
//! * [`protocol`] — the length-prefixed wire format, one layout:
//!   request framing (ECB/CBC/CTR, CMAC, GCM, XTS, key wrap, key load,
//!   ping, stats), strict frame size limits, typed error replies instead
//!   of disconnects, and a correlation id that makes request pipelining
//!   with out-of-order replies well-defined;
//! * [`session`] — per-connection key management: `SET_KEY` makes a
//!   fresh [`engine::WorkerPool`] handle on the server's one worker
//!   farm and keys no schedule; the handle is the session's one
//!   executor (small jobs, CMAC, GCM, XTS and key wrap on the caller's
//!   thread, bulk jobs on the farm's workers, all on backends keyed
//!   with the session's key); key material is never echoed and wipes
//!   itself on teardown or re-key;
//! * [`net`] — the std-only readiness shim (`poll(2)` by direct FFI)
//!   that lets the server watch thousands of nonblocking sockets
//!   without external crates;
//! * [`server`] — the event-driven front end: an acceptor with a typed
//!   admission cap feeding per-connection state machines spread across
//!   a few shard event loops, with request pipelining, per-session
//!   backpressure mapped onto `WorkerPool::try_submit` (typed `Busy`
//!   replies), write-backpressure, idle timeouts and a graceful
//!   shutdown that answers every in-flight pipelined job;
//! * [`client`] — a blocking loopback [`Client`], one per connection,
//!   with a pipelined submit/collect API, used by the integration tests,
//!   the `service_load` load generator and, one per session, the
//!   `rijndael-cluster` router;
//! * [`transport`] — the object-safe [`Transport`] trait: the one
//!   client surface implemented by both the single-node [`Client`] and
//!   the cluster router, so callers swap between them without code
//!   changes. Its implementations supply a small core (re-keys, one
//!   request/reply `call`, stats, pipelining); every typed op is written
//!   once, on the trait.
//!
//! Every server owns a [`telemetry::Registry`] that its farm publishes
//! into; `GET_STATS` ([`Client::stats`]) returns one snapshot of
//! it as the stable `telemetry/1` JSON document, and every reply —
//! bytes or a typed [`ErrorCode`] — leaves the server through one exit
//! that also keeps the error tallies.
//!
//! # Quick start
//!
//! ```
//! use rijndael_service::client::Client;
//! use rijndael_service::server::{Server, ServiceConfig};
//! use rijndael_service::transport::Transport;
//!
//! let handle = Server::new(ServiceConfig::default())
//!     .spawn("127.0.0.1:0")
//!     .expect("bind");
//! let mut client = Client::connect(handle.local_addr()).expect("connect");
//! client.set_key(&[0u8; 16]).expect("key load");
//! let ct = client.ecb_encrypt(&[0u8; 16]).expect("encrypt");
//! assert_eq!(ct[0], 0x66); // AES-128 zero vector
//! handle.shutdown();
//! ```

// Unsafety is confined to the two audited FFI call sites in [`net`]
// (`poll(2)` and the rlimit pair); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod net;
pub mod protocol;
pub mod server;
pub mod session;
pub mod transport;

pub use client::{Client, ClientError, PipelinedJob};
pub use protocol::{ErrorCode, Frame, Op, RecvBuffer, RecvError, Status};
pub use server::{ConfigError, Server, ServiceConfig, ServiceConfigBuilder, ServiceHandle};
pub use session::{Session, SessionSlot};
pub use transport::Transport;

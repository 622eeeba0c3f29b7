//! What a request costs in memory, counted by a global allocator.
//!
//! The server reads a request body straight into a payload buffer,
//! encrypts it in place, writes the same buffer back with `writev` and
//! parks it in its shard's spare list for the next body; the client
//! sends from the caller's slices and reads a reply body straight into
//! the payload it returns. Three gates pin that down, with the server
//! running in this process so its allocations are counted too:
//!
//! * **large allocations per round trip** — after a warm-up, 200 pipelined
//!   256 KiB ECB round trips at depth 4 may make at most 210 allocations
//!   (or growing reallocations) of 64 KiB or more on a one-slot farm,
//!   and 410 on a two-slot farm: one per round trip for the reply the
//!   client hands back, plus one for the tail the farm splits off for
//!   its second worker. Before recycled buffers the same run made 6 and
//!   8 per round trip;
//! * **live heap per idle connection** — 10 connections, then 30 more,
//!   each loading a key and running one 256 KiB ECB before it sits idle;
//!   the live heap may grow by at most 128 KiB per connection between
//!   the two steps. Raw streams with `Frame::write_to` / `read_from`
//!   keep the client side out of the count. Before, each idle
//!   connection held about 774 KiB: its receive buffer grown to 512 KiB
//!   and its 256 KiB outgoing queue;
//! * **allocations per small round trip** — on a two-slot farm, after
//!   200 warm-up round trips, 2,000 64 B CTR round trips may make at
//!   most 4 allocations (or growing reallocations) each, of any size,
//!   client and server together: blocking through the typed
//!   `Transport::ctr_apply`, then pipelined at depth 16. Both measured
//!   4.00 and 3.3–3.8 when the gate was set.
//!
//! The tests share the process-wide counters, so they take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use rijndael_ip::engine::BackendSpec;
use rijndael_ip::service::client::Client;
use rijndael_ip::service::protocol::{Frame, Op, Status};
use rijndael_ip::service::server::{Server, ServiceConfig, ServiceHandle};
use rijndael_ip::service::transport::Transport;

/// Allocations of at least this many bytes are the ones counted.
const LARGE: usize = 64 * 1024;

/// The bulk request size.
const BULK: usize = 256 * 1024;

/// Counts allocations and tracks the live heap; every call forwards
/// verbatim to [`System`] (the `unsafe` is the `GlobalAlloc` contract
/// itself).
struct CountingAlloc;

/// Allocations, and reallocations that grow a block, of any size.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations, and reallocations that grow a block, to `LARGE` bytes
/// or more.
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if new_size >= LARGE {
                LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the tests: both read the process-wide counters.
static TURN: Mutex<()> = Mutex::new(());

fn server(farm: &[BackendSpec]) -> ServiceHandle {
    let config = ServiceConfig::builder()
        .farm(farm)
        .event_threads(1)
        .max_connections(64)
        .build()
        .expect("valid config");
    Server::new(config)
        .spawn("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// Runs `trips` pipelined `op` round trips at `depth`, checking every
/// reply's length and correlation.
fn pipelined(
    client: &mut Client,
    (op, iv): (Op, Option<&[u8; 16]>),
    data: &[u8],
    depth: usize,
    trips: usize,
) {
    let mut sent = 0;
    let mut open = std::collections::HashSet::new();
    while sent < trips.min(depth) {
        open.insert(client.pipeline(op, iv, data).unwrap());
        sent += 1;
    }
    while !open.is_empty() {
        let job = client.collect_next().expect("a completion");
        assert!(open.remove(&job.corr), "stray corr {}", job.corr);
        assert_eq!(job.result.expect("the op succeeds").len(), data.len());
        if sent < trips {
            open.insert(client.pipeline(op, iv, data).unwrap());
            sent += 1;
        }
    }
}

/// Large allocations over `trips` round trips after a warm-up.
fn large_allocations(farm: &[BackendSpec], trips: usize) -> u64 {
    let server = server(farm);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&[0x2B; 16]).expect("SET_KEY");
    let plaintext = vec![0x5Au8; BULK];
    let ecb = (Op::EcbEncrypt, None);
    pipelined(&mut client, ecb, &plaintext, 4, 50);
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    pipelined(&mut client, ecb, &plaintext, 4, trips);
    let made = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    drop(client);
    server.shutdown();
    made
}

#[test]
fn a_bulk_round_trip_makes_one_large_allocation_per_split() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let trips = 200;
    for (farm, bound) in [
        (&[BackendSpec::Auto][..], 210),
        (&[BackendSpec::Auto; 2][..], 410),
    ] {
        let made = large_allocations(farm, trips);
        println!(
            "{}-slot farm: {made} allocations of 64 KiB or more in {trips} round trips ({:.2} each)",
            farm.len(),
            made as f64 / trips as f64
        );
        assert!(
            made <= bound,
            "{}-slot farm: {made} large allocations for {trips} round trips (bound {bound})",
            farm.len()
        );
    }
}

/// Opens a raw connection, loads a key and runs one 256 KiB ECB; the
/// reply is checked and dropped, so only the server holds memory for
/// the connection afterwards.
fn idle_after_one_bulk(server: &ServiceHandle, plaintext: &[u8], i: u32) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let key = Frame::request(Op::SetKey, 0, 1, 0, vec![i as u8; 16]);
    key.write_to(&mut &stream).unwrap();
    let keyed = Frame::read_from(&mut &stream).unwrap();
    assert_eq!(keyed.status(), Some(Status::Ok));
    Frame::request(Op::EcbEncrypt, 0, 2, keyed.session, plaintext.to_vec())
        .write_to(&mut &stream)
        .unwrap();
    let reply = Frame::read_from(&mut &stream).unwrap();
    assert_eq!(reply.status(), Some(Status::Ok), "{:?}", reply.error_body());
    assert_eq!(reply.payload.len(), plaintext.len());
    stream
}

/// The live heap once the server has settled.
fn settled_live() -> i64 {
    thread::sleep(Duration::from_millis(100));
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn an_idle_connection_holds_no_bulk_buffers() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let server = server(&[BackendSpec::Auto; 2]);
    let plaintext = vec![0xA5u8; BULK];
    let mut held = Vec::new();
    for i in 0..10 {
        held.push(idle_after_one_bulk(&server, &plaintext, i));
    }
    let at_10 = settled_live();
    for i in 10..40 {
        held.push(idle_after_one_bulk(&server, &plaintext, i));
    }
    let at_40 = settled_live();
    let per_conn = (at_40 - at_10) as f64 / 30.0 / 1024.0;
    println!("live heap per idle connection: {per_conn:.1} KiB");
    assert!(
        per_conn <= 128.0,
        "each idle connection holds {per_conn:.1} KiB (bound 128 KiB)"
    );
    drop(held);
    server.shutdown();
}

/// Allocations per round trip over `trips` runs of `round_trips`, after
/// a warm-up of 200.
fn allocations_per_trip(
    client: &mut Client,
    trips: usize,
    mut round_trips: impl FnMut(&mut Client, usize),
) -> f64 {
    round_trips(client, 200);
    let before = ALLOCS.load(Ordering::Relaxed);
    round_trips(client, trips);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / trips as f64
}

#[test]
fn a_small_round_trip_makes_at_most_four_allocations() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let server = server(&[BackendSpec::Auto; 2]);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_key(&[0x3D; 16]).expect("SET_KEY");
    let counter = [0x11u8; 16];
    let data = [0x22u8; 64];
    let trips = 2_000;
    let blocking = allocations_per_trip(&mut client, trips, |client, n| {
        for _ in 0..n {
            assert_eq!(client.ctr_apply(&counter, &data).unwrap().len(), data.len());
        }
    });
    let piped = allocations_per_trip(&mut client, trips, |client, n| {
        pipelined(client, (Op::CtrApply, Some(&counter)), &data, 16, n);
    });
    println!(
        "allocations per 64 B CTR round trip: {blocking:.2} blocking, {piped:.2} pipelined at depth 16"
    );
    for (how, made) in [("blocking", blocking), ("pipelined", piped)] {
        assert!(
            made <= 4.0,
            "{how}: {made:.2} allocations per 64 B CTR round trip (bound 4)"
        );
    }
    drop(client);
    server.shutdown();
}

//! The client leaves no unwiped heap copy of a raw key.
//!
//! `Client::set_key` and `Transport::wrap_key` send the caller's key
//! straight from its own slice, so no heap block ever holds it. A
//! global allocator scans every block as it is freed (or moved by a
//! reallocation) for a 32-byte marker key and counts the blocks that
//! still carry it. The peer is a bare listener that reads each frame
//! into a stack array, zeroes it and answers, so nothing on its side
//! touches the heap with the key either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use rijndael_service::client::Client;
use rijndael_service::protocol::{Frame, Status, HEADER_LEN};
use rijndael_service::transport::Transport;

/// The length prefix and the header.
const HEAD: usize = 4 + HEADER_LEN;

/// The marker key: no other bytes in this process share its pattern.
const KEY: [u8; 32] = [
    0xC3, 0x1F, 0x8A, 0x52, 0xE7, 0x09, 0x6D, 0xB4, 0x3A, 0xF1, 0x27, 0x98, 0x5C, 0xD0, 0x46, 0xAB,
    0x12, 0xEF, 0x73, 0x8C, 0x35, 0xCA, 0x61, 0x9E, 0x04, 0xBD, 0x58, 0xA7, 0x2E, 0xF9, 0x83, 0x16,
];

/// Freed (or reallocated-away) heap blocks that still held the key.
static KEY_FREES: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`], scanning each block it gives back for the
/// marker (the `unsafe` is the `GlobalAlloc` contract itself).
struct ScanningAlloc;

/// Whether `len` bytes at `ptr` contain the marker key.
///
/// # Safety
///
/// `ptr` must be valid for reads of `len` initialized-or-not bytes the
/// allocator owns; they are only compared.
unsafe fn holds_key(ptr: *const u8, len: usize) -> bool {
    let block = unsafe { std::slice::from_raw_parts(ptr, len) };
    block.windows(KEY.len()).any(|w| w == KEY)
}

unsafe impl GlobalAlloc for ScanningAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if unsafe { holds_key(ptr, layout.size()) } {
            KEY_FREES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if unsafe { holds_key(ptr, layout.size()) } {
            KEY_FREES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ScanningAlloc = ScanningAlloc;

/// A peer that answers `requests` frames of up to 64 payload bytes:
/// each is read into a stack array and zeroed, then answered with an
/// empty `Ok` under session id 7.
fn stack_peer(requests: usize) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        for _ in 0..requests {
            let mut frame = [0u8; HEAD + 64];
            stream.read_exact(&mut frame[..HEAD]).unwrap();
            let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize + 4;
            stream.read_exact(&mut frame[HEAD..len]).unwrap();
            let corr = u32::from_be_bytes(frame[15..HEAD].try_into().unwrap());
            frame.fill(0);
            Frame::reply(Status::Ok, corr, 7, Vec::new())
                .with_corr(corr)
                .write_to(&mut stream)
                .unwrap();
        }
    });
    (addr, peer)
}

#[test]
fn set_key_and_wrap_key_leave_no_unwiped_key_copy() {
    let (addr, peer) = stack_peer(2);
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.set_key(&KEY).unwrap(), 7);
    let after_set_key = KEY_FREES.load(Ordering::Relaxed);
    client.wrap_key(&KEY).unwrap();
    drop(client);
    peer.join().unwrap();
    assert_eq!(after_set_key, 0, "set_key freed heap copies of the key");
    assert_eq!(
        KEY_FREES.load(Ordering::Relaxed),
        0,
        "wrap_key freed heap copies of the key"
    );
}

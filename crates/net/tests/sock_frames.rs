//! A socket peer's frame header is its own word. One that claims
//! `u32::MAX` body bytes and then closes must cost the reader no more
//! than the bytes that really arrived: the frame is a counted drop, the
//! reader thread ends, and no buffer near the claimed size is allocated.
//!
//! Its own test binary: the global allocator below records the largest
//! single request the whole process makes.

use flows_core::Payload;
use flows_net::{Frame, SockTransport, HEADER_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, recording the largest request it has served
/// (the default `realloc` goes through `alloc`, so growth is seen too).
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers to `System`; recording a size allocates nothing.
unsafe impl GlobalAlloc for Largest {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// Whether a thread named `name` is alive in this process.
fn thread_alive(name: &str) -> bool {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
        .any(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == name))
}

#[test]
fn a_header_claiming_4_gib_then_eof_is_a_counted_drop() {
    let dir = std::env::temp_dir().join(format!("flows-net-liar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let d2 = dir.clone();
    let leader = std::thread::spawn(move || {
        SockTransport::connect(0, 2, &d2, None, Duration::from_secs(5)).expect("mesh of one peer")
    });
    // The fake rank 1: a hello, a data header that claims u32::MAX body
    // bytes, a few real ones, and EOF.
    let mut peer = flows_sys::sock::uds_connect_retry(&dir.join("p0.sock"), Duration::from_secs(5))
        .expect("dial rank 0");
    let mut hdr = [0u8; HEADER_LEN];
    Frame::data(1, 0, 0, 7, 0, Payload::empty()).encode_header(&mut hdr);
    hdr[HEADER_LEN - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    peer.write_all(&[1]).unwrap();
    peer.write_all(&hdr).unwrap();
    peer.write_all(&[0xA5; 1000]).unwrap();
    drop(peer);
    let t = leader.join().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while t.frame_drops() == 0 || thread_alive("flows-net-rx-p1") {
        assert!(
            Instant::now() < deadline,
            "drops {}: the reader never gave up",
            t.frame_drops()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(t.frame_drops(), 1, "one counted drop");
    assert!(t.try_recv().is_none(), "nothing delivered");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 20,
        "a {largest}-byte allocation for a 1000-byte frame"
    );
    t.close();
    let _ = std::fs::remove_dir_all(&dir);
}

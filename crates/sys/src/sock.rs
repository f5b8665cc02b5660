//! Counted stream-socket I/O (Unix-domain and TCP) for the flows-net
//! transport.
//!
//! Socket syscalls stay confined to `flows-sys` like every other kernel
//! interaction in this workspace (flowslint enforces the confinement for
//! raw `libc`; the transport layer keeps the convention for `std` socket
//! I/O too by routing through these helpers). Each framed write bumps
//! `sock_send` and each blocking fill bumps `sock_recv`, so transport
//! tests can assert per-message syscall behaviour the same way the
//! memory fast paths assert zero-`mmap` steady states.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Write one complete frame (`write_all`), counted as one `sock_send`.
pub fn write_frame(w: &mut dyn Write, frame: &[u8]) -> io::Result<()> {
    crate::counters::sock_send();
    w.write_all(frame)
}

/// Fill `buf` completely (`read_exact`), counted as one `sock_recv`.
/// An EOF before the first byte is reported as `UnexpectedEof`.
pub fn read_frame(r: &mut dyn Read, buf: &mut [u8]) -> io::Result<()> {
    crate::counters::sock_recv();
    r.read_exact(buf)
}

/// Append up to `len` bytes to `buf`, growing it only as they arrive
/// (`read_to_end` over a `take`), counted as one `sock_recv`. Fewer than
/// `len` bytes appended means the stream reached EOF first.
pub fn read_body(r: &mut dyn Read, buf: &mut Vec<u8>, len: usize) -> io::Result<()> {
    crate::counters::sock_recv();
    r.take(len as u64).read_to_end(buf).map(drop)
}

/// Bind a Unix-domain listener, replacing any stale socket file left by
/// a previous (crashed) run at the same path.
pub fn uds_listen(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// Connect to a Unix-domain socket, retrying while the peer's listener
/// is still coming up (the flows-net mesh dials by filesystem
/// convention, so the file may not exist yet). Gives up after `timeout`.
pub fn uds_connect_retry(path: &Path, timeout: Duration) -> io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Bind a TCP listener on `addr` (the flows-net TCP backend binds
/// loopback port `base + rank`).
pub fn tcp_listen(addr: SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Connect to `addr`, retrying until the peer's listener is up or
/// `timeout` elapses. Disables Nagle: transport frames are latency-bound.
pub fn tcp_connect_retry(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uds_roundtrip_is_counted() {
        let dir = std::env::temp_dir().join(format!("flows-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let listener = uds_listen(&path).unwrap();
        let srv = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            read_frame(&mut s, &mut buf).unwrap();
            write_frame(&mut (&s), &buf).unwrap();
            buf
        });
        let mut c = uds_connect_retry(&path, Duration::from_secs(2)).unwrap();
        let before = crate::counters::snapshot();
        write_frame(&mut c, b"hello").unwrap();
        let mut echo = [0u8; 5];
        read_frame(&mut c, &mut echo).unwrap();
        let d = crate::counters::snapshot().since(&before);
        assert_eq!(&echo, b"hello");
        assert_eq!(srv.join().unwrap(), *b"hello");
        assert_eq!(d.sock_send, 1);
        assert_eq!(d.sock_recv, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_socket_file_is_replaced() {
        let dir = std::env::temp_dir().join(format!("flows-sock2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.sock");
        std::fs::write(&path, b"junk").unwrap();
        let _l = uds_listen(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_connect_retries_until_listener_appears() {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let l = tcp_listen(addr).unwrap();
        let bound = l.local_addr().unwrap();
        let c = tcp_connect_retry(bound, Duration::from_secs(2)).unwrap();
        assert!(c.nodelay().unwrap());
    }
}

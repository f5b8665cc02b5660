//! Stream-socket transport backend: a full mesh of Unix-domain or TCP
//! connections, one blocking reader thread per peer.
//!
//! The mesh builds itself by filesystem / port convention — process
//! `r` listens at `dir/p{r}.sock` (or loopback port `base + r`) and
//! dials every lower rank, so each unordered pair gets exactly one
//! stream. The dialer sends a one-byte hello carrying its rank. All
//! framed I/O goes through `flows_sys::sock`, which counts syscalls the
//! same way the memory layer counts `mmap`s, so tests can compare the
//! socket path's per-message cost against the shared-memory rings.

use crate::frame::{Frame, Header, HEADER_LEN};
use crate::inbox::{unbounded, Receiver, Sender};
use flows_core::Payload;
use flows_sys::sock as rawsock;
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// One peer stream, either flavour.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// The socket-mesh transport endpoint of one process.
pub struct SockTransport {
    rank: usize,
    procs: usize,
    /// Writer half per peer (None for self).
    writers: Vec<Option<Mutex<Stream>>>,
    rx: Receiver<(usize, Frame)>,
    /// The thread that receives, which the reader threads unpark after
    /// each push; set by its first [`SockTransport::park`].
    waiter: Arc<OnceLock<Thread>>,
    dead: Vec<AtomicBool>,
    /// See [`SockTransport::frame_drops`].
    drops: Arc<AtomicU64>,
}

/// Body bytes reserved before any have arrived. A header's length is the
/// peer's word: a frame that claims more grows its buffer only as its
/// bytes really come in, so a lying header costs no more than the bytes
/// actually sent.
const BODY_RESERVE: usize = 64 * 1024;

/// Read one frame. A header that does not decode, or a body cut short by
/// EOF, is counted in `drops` and ends the stream: its framing is lost.
fn read_one_frame(s: &mut Stream, drops: &AtomicU64) -> io::Result<Frame> {
    let refuse = |why: &str| {
        drops.fetch_add(1, Ordering::Relaxed);
        io::Error::new(io::ErrorKind::InvalidData, why)
    };
    let mut hdr = [0u8; HEADER_LEN];
    rawsock::read_frame(s, &mut hdr)?;
    let h = Header::decode(&hdr).ok_or_else(|| refuse("bad frame header"))?;
    let body = if h.body_len == 0 {
        Payload::empty()
    } else {
        let len = h.body_len as usize;
        let mut buf = Vec::with_capacity(len.min(BODY_RESERVE));
        rawsock::read_body(s, &mut buf, len)?;
        if buf.len() < len {
            return Err(refuse("frame cut short by EOF"));
        }
        Payload::from_vec(buf)
    };
    Ok(Frame::from_header(h, body))
}

fn spawn_reader(
    peer: usize,
    mut s: Stream,
    tx: Sender<(usize, Frame)>,
    waiter: Arc<OnceLock<Thread>>,
    drops: Arc<AtomicU64>,
) {
    std::thread::Builder::new()
        .name(format!("flows-net-rx-p{peer}"))
        .spawn(move || {
            // Reads until the peer closes (clean GOODBYE path) or dies
            // (the machine layer learns of deaths from control frames
            // and child reaping, not from this EOF).
            while let Ok(frame) = read_one_frame(&mut s, &drops) {
                tx.send((peer, frame));
                if let Some(t) = waiter.get() {
                    t.unpark();
                }
            }
        })
        .expect("spawn reader thread");
}

impl SockTransport {
    /// Build the full mesh for `rank` of `procs` processes. Unix-domain
    /// when `tcp_base` is `None` (sockets live in `dir`), TCP loopback
    /// on ports `base + rank` otherwise. Blocks until every peer is
    /// connected or `timeout` passes.
    pub fn connect(
        rank: usize,
        procs: usize,
        dir: &Path,
        tcp_base: Option<u16>,
        timeout: Duration,
    ) -> io::Result<Arc<SockTransport>> {
        let (tx, rx) = unbounded::<(usize, Frame)>();
        let waiter = Arc::new(OnceLock::new());
        let drops = Arc::new(AtomicU64::new(0));
        let mut writers: Vec<Option<Mutex<Stream>>> = (0..procs).map(|_| None).collect();

        enum Listener {
            Unix(std::os::unix::net::UnixListener),
            Tcp(std::net::TcpListener),
        }
        // Listen before dialing so the mesh can't deadlock: every rank's
        // listener exists before any peer retries against it.
        let listener = match tcp_base {
            None => Listener::Unix(rawsock::uds_listen(&dir.join(format!("p{rank}.sock")))?),
            Some(base) => {
                let addr: SocketAddr = format!("127.0.0.1:{}", base + rank as u16).parse().unwrap();
                Listener::Tcp(rawsock::tcp_listen(addr)?)
            }
        };

        for (peer, writer) in writers.iter_mut().enumerate().take(rank) {
            let mut s = match tcp_base {
                None => Stream::Unix(rawsock::uds_connect_retry(
                    &dir.join(format!("p{peer}.sock")),
                    timeout,
                )?),
                Some(base) => {
                    let addr: SocketAddr =
                        format!("127.0.0.1:{}", base + peer as u16).parse().unwrap();
                    Stream::Tcp(rawsock::tcp_connect_retry(addr, timeout)?)
                }
            };
            s.write_all(&[rank as u8])?;
            spawn_reader(
                peer,
                s.try_clone()?,
                tx.clone(),
                waiter.clone(),
                drops.clone(),
            );
            *writer = Some(Mutex::new(s));
        }

        for _ in 0..procs.saturating_sub(rank + 1) {
            let mut s = match &listener {
                Listener::Unix(l) => Stream::Unix(l.accept()?.0),
                Listener::Tcp(l) => {
                    let (t, _) = l.accept()?;
                    t.set_nodelay(true)?;
                    Stream::Tcp(t)
                }
            };
            let mut hello = [0u8; 1];
            s.read_exact(&mut hello)?;
            let peer = hello[0] as usize;
            if peer <= rank || peer >= procs || writers[peer].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad hello rank {peer}"),
                ));
            }
            spawn_reader(
                peer,
                s.try_clone()?,
                tx.clone(),
                waiter.clone(),
                drops.clone(),
            );
            writers[peer] = Some(Mutex::new(s));
        }

        Ok(Arc::new(SockTransport {
            rank,
            procs,
            writers,
            rx,
            waiter,
            dead: (0..procs).map(|_| AtomicBool::new(false)).collect(),
            drops,
        }))
    }

    /// Send a frame to process `dst`; frames to dead peers are dropped,
    /// and a broken pipe marks the peer dead.
    pub fn send(&self, dst: usize, frame: &Frame) {
        debug_assert_ne!(dst, self.rank);
        if self.dead[dst].load(Ordering::Relaxed) {
            return;
        }
        let Some(w) = &self.writers[dst] else { return };
        let mut buf = Vec::with_capacity(frame.wire_len());
        frame.encode(&mut buf);
        let mut s = w.lock();
        if rawsock::write_frame(&mut *s, &buf).is_err() {
            self.dead[dst].store(true, Ordering::SeqCst);
        }
    }

    /// Next delivered frame, if any.
    pub fn try_recv(&self) -> Option<(usize, Frame)> {
        self.rx.try_recv()
    }

    /// Sleep until a reader thread delivers a frame or `timeout` passes.
    /// Only the one thread that receives may park. Its first call
    /// registers it as the thread the readers wake and returns at once:
    /// a frame pushed before the registration woke nobody, and the
    /// caller's next [`SockTransport::try_recv`] (which takes the inbox
    /// lock the push took) is what finds it. Modeled in
    /// `crates/converse/tests/wake_interleave.rs`.
    pub fn park(&self, timeout: Duration) {
        if !self.rx.is_empty() {
            return;
        }
        if self.waiter.get().is_none() {
            let _ = self.waiter.set(std::thread::current());
            return;
        }
        std::thread::park_timeout(timeout);
    }

    /// Frames the reader threads refused: a header that does not decode,
    /// or a body its peer's EOF cut short (a crash mid-write, or a header
    /// that claims more bytes than were sent). Each ends its stream.
    pub fn frame_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Stop sending to process `proc`.
    pub fn mark_dead(&self, proc: usize) {
        self.dead[proc].store(true, Ordering::SeqCst);
    }

    /// Shut every stream down, releasing the reader threads.
    pub fn close(&self) {
        for w in self.writers.iter().flatten() {
            w.lock().shutdown();
        }
    }

    /// Mesh degree (for tests).
    pub fn peers(&self) -> usize {
        self.procs - 1
    }

    /// This endpoint's process rank.
    pub fn rank_of(&self) -> usize {
        self.rank
    }

    /// Number of processes in the mesh.
    pub fn procs_of(&self) -> usize {
        self.procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flows_sys::counters;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("flows-net-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn mesh(dir: &Path, procs: usize) -> Vec<Arc<SockTransport>> {
        let handles: Vec<_> = (0..procs)
            .map(|r| {
                let dir = dir.to_path_buf();
                std::thread::spawn(move || {
                    SockTransport::connect(r, procs, &dir, None, Duration::from_secs(5)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn uds_mesh_round_trip() {
        let dir = tmp_dir("mesh");
        let m = mesh(&dir, 3);
        let before = counters::snapshot();
        m[0].send(2, &Frame::data(0, 4, 1, 2, 3, vec![5u8; 300].into()));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let (src, f) = loop {
            if let Some(got) = m[2].try_recv() {
                break got;
            }
            assert!(std::time::Instant::now() < deadline, "frame never arrived");
            m[2].park(Duration::from_millis(50));
        };
        assert_eq!(src, 0);
        assert_eq!(f.body, vec![5u8; 300]);
        assert_eq!((f.a, f.b, f.c), (1, 2, 3));
        let d = counters::snapshot().since(&before);
        assert_eq!(d.sock_send, 1, "one framed write per send");
        for t in &m {
            t.close();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn send_to_closed_peer_marks_dead_not_panics() {
        let dir = tmp_dir("dead");
        let m = mesh(&dir, 2);
        m[1].close();
        // The first send may still land in the socket buffer; keep
        // writing until the broken pipe surfaces, then sends drop.
        for _ in 0..10_000 {
            m[0].send(1, &Frame::ack(0, 1, 1));
            if m[0].dead[1].load(Ordering::Relaxed) {
                break;
            }
        }
        m[0].close();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Topology bring-up: describing an `N processes × M PEs` machine,
//! spawning or attaching its processes, and tearing it down cleanly.
//!
//! Bring-up is file-based. The leader (rank 0) creates a session
//! directory containing a `meta` file — magic, geometry, backend, and
//! the attach coordinates (leader pid + memfd number for shm, port base
//! for TCP) — then either spawns the other ranks itself (re-executing
//! its own binary with `FLOWS_NET_RANK`/`FLOWS_NET_DIR` in the
//! environment) or waits for independently started processes to attach
//! by reading the same meta file. Shared-memory attach reopens the
//! leader's memfd through `/proc/<pid>/fd/<n>`; socket attach dials by
//! the `p{rank}.sock` / `base + rank` convention.
//!
//! Shutdown is the leader's job: close the transport, reap every child,
//! propagate nonzero exit statuses, and unlink the session directory so
//! no memfd link or socket file outlives the machine.

use crate::frame::Frame;
use crate::shm::{Segment, ShmTransport, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES};
use crate::sock::SockTransport;
use crate::Transport;
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable carrying a spawned child's process rank.
pub const ENV_RANK: &str = "FLOWS_NET_RANK";
/// Environment variable carrying the session directory path.
pub const ENV_DIR: &str = "FLOWS_NET_DIR";

/// How long bring-up waits for the full topology to assemble.
const BRINGUP_TIMEOUT: Duration = Duration::from_secs(30);
/// How long shutdown waits for a child before killing it.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

/// Which transport carries inter-process frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Lock-free shared-memory rings over a memfd (intra-host).
    Shm,
    /// Unix-domain stream sockets (intra-host).
    Uds,
    /// TCP loopback/LAN sockets (multi-host capable).
    Tcp,
}

impl Backend {
    /// The name used in meta files and `--backend` flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Shm => "shm",
            Backend::Uds => "uds",
            Backend::Tcp => "tcp",
        }
    }

    /// Parse a `--backend` flag / meta-file value.
    pub fn parse(s: &str) -> Option<Backend> {
        Some(match s {
            "shm" => Backend::Shm,
            "uds" => Backend::Uds,
            "tcp" => Backend::Tcp,
            _ => return None,
        })
    }
}

/// The meta file's parsed contents.
struct Meta {
    procs: usize,
    pes_per_proc: usize,
    backend: Backend,
    leader_pid: i32,
    memfd_fd: i32,
    tcp_base: u16,
}

impl Meta {
    fn write(&self, dir: &Path) -> io::Result<()> {
        let body = format!(
            "flows-net 1\nprocs {}\npes_per_proc {}\nbackend {}\nleader_pid {}\nmemfd_fd {}\ntcp_base {}\n",
            self.procs,
            self.pes_per_proc,
            self.backend.as_str(),
            self.leader_pid,
            self.memfd_fd,
            self.tcp_base,
        );
        let tmp = dir.join("meta.tmp");
        std::fs::write(&tmp, body)?;
        // Rename so attachers never observe a half-written meta file.
        std::fs::rename(tmp, dir.join("meta"))
    }

    fn read(dir: &Path) -> io::Result<Meta> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, format!("meta: {m}"));
        let text = std::fs::read_to_string(dir.join("meta"))?;
        let mut fields = std::collections::HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 {
                if line != "flows-net 1" {
                    return Err(bad("bad magic line"));
                }
                continue;
            }
            let (k, v) = line.split_once(' ').ok_or_else(|| bad("bad line"))?;
            fields.insert(k.to_string(), v.to_string());
        }
        let get = |k: &str| fields.get(k).ok_or_else(|| bad(&format!("missing {k}")));
        let num = |k: &str| -> io::Result<i64> {
            get(k)?.parse().map_err(|_| bad(&format!("bad {k}")))
        };
        Ok(Meta {
            procs: num("procs")? as usize,
            pes_per_proc: num("pes_per_proc")? as usize,
            backend: Backend::parse(get("backend")?).ok_or_else(|| bad("bad backend"))?,
            leader_pid: num("leader_pid")? as i32,
            memfd_fd: num("memfd_fd")? as i32,
            tcp_base: num("tcp_base")? as u16,
        })
    }
}

/// Builder for an `N processes × M PEs` machine topology.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    procs: usize,
    pes_per_proc: usize,
    backend: Backend,
    child_args: Vec<String>,
    dir: Option<PathBuf>,
    migratable: bool,
}

impl TopologySpec {
    /// A topology of `procs` processes each driving `pes_per_proc` PEs.
    pub fn new(procs: usize, pes_per_proc: usize) -> TopologySpec {
        assert!(procs >= 2, "a multi-process topology needs >= 2 processes");
        assert!(pes_per_proc >= 1);
        TopologySpec {
            procs,
            pes_per_proc,
            backend: Backend::Shm,
            child_args: Vec::new(),
            dir: None,
            migratable: false,
        }
    }

    /// Declare that packed thread images will cross process boundaries in
    /// this topology (cross-process migration or recovery respawn).
    ///
    /// An image is a raw byte copy of a thread's isomalloc slot; the slot
    /// addresses are machine-wide constants, but the stack inside it also
    /// holds return addresses into the *text segment* — valid in another
    /// process only when the binary is mapped at the same base there.
    /// Under this flag [`TopologySpec::launch`] guarantees that layout:
    /// if ASLR is still on it sets `ADDR_NO_RANDOMIZE` and re-executes the
    /// current binary with identical arguments (children inherit the
    /// personality through spawn, exactly as `setarch -R` would arrange).
    /// Callers must therefore tolerate the process restarting from `main`
    /// once; idempotent test binaries and SPMD benchmarks do.
    pub fn migratable(mut self) -> TopologySpec {
        self.migratable = true;
        self
    }

    /// Select the transport backend (default: shared memory).
    pub fn backend(mut self, b: Backend) -> TopologySpec {
        self.backend = b;
        self
    }

    /// Arguments passed to spawned children (the leader re-executes its
    /// own binary; under `cargo test` this is typically
    /// `["<child_test_name>", "--exact", "--nocapture"]`).
    pub fn child_args<I: IntoIterator<Item = S>, S: Into<String>>(mut self, args: I) -> TopologySpec {
        self.child_args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Use a caller-managed session directory (attach-by-address mode:
    /// independently launched processes agree on this path out of band
    /// and join it through [`attach_from_env`], `FLOWS_NET_DIR` naming it).
    pub fn session_dir(mut self, dir: PathBuf) -> TopologySpec {
        self.dir = Some(dir);
        self
    }

    /// Leader entry: create the session, spawn children, connect the
    /// transport, and wait for the whole topology to come up.
    pub fn launch(self) -> io::Result<Arc<World>> {
        if self.migratable {
            reexec_without_aslr()?;
        }
        static SESSION: AtomicU64 = AtomicU64::new(0);
        let owns_dir = self.dir.is_none();
        let dir = self.dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "flows-net-{}-{}",
                std::process::id(),
                SESSION.fetch_add(1, Ordering::Relaxed)
            ))
        });
        std::fs::create_dir_all(&dir)?;

        let sys_err = |e: flows_sys::SysError| io::Error::other(e.to_string());
        let segment = match self.backend {
            Backend::Shm => Some(Segment::create(self.procs, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES).map_err(sys_err)?),
            _ => None,
        };
        // TCP port base: spread sessions out by pid so concurrent test
        // runs don't collide on a fixed port.
        let tcp_base = 20_000 + (std::process::id() % 20_000) as u16;
        let meta = Meta {
            procs: self.procs,
            pes_per_proc: self.pes_per_proc,
            backend: self.backend,
            leader_pid: std::process::id() as i32,
            memfd_fd: segment.as_ref().map(|s| s.fd()).unwrap_or(-1),
            tcp_base,
        };
        meta.write(&dir)?;

        let exe = std::env::current_exe()?;
        let mut children = Vec::new();
        for rank in 1..self.procs {
            let child = Command::new(&exe)
                .args(&self.child_args)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_DIR, &dir)
                .stdin(Stdio::null())
                .spawn()?;
            children.push(ChildSlot {
                rank,
                child: Some(child),
                status: None,
            });
        }

        let transport = match self.backend {
            Backend::Shm => {
                let t = ShmTransport::new(segment.unwrap(), 0);
                t.set_ready();
                if !t.wait_all_ready(BRINGUP_TIMEOUT) {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "children never attached the shm segment",
                    ));
                }
                t as Arc<dyn Transport>
            }
            Backend::Uds => {
                SockTransport::connect(0, self.procs, &dir, None, BRINGUP_TIMEOUT)? as Arc<dyn Transport>
            }
            Backend::Tcp => {
                SockTransport::connect(0, self.procs, &dir, Some(tcp_base), BRINGUP_TIMEOUT)?
                    as Arc<dyn Transport>
            }
        };

        Ok(Arc::new(World {
            rank: 0,
            procs: self.procs,
            pes_per_proc: self.pes_per_proc,
            backend: self.backend,
            transport,
            children: Mutex::new(children),
            dir,
            owns_dir,
            closed: AtomicBool::new(false),
        }))
    }
}

/// Marker set across the ASLR re-exec so a failure to disable
/// randomization is detected instead of looping.
const ENV_REEXEC: &str = "FLOWS_NET_ASLR_REEXEC";

/// Ensure this process runs without address-space randomization,
/// re-executing itself (argv preserved) after setting
/// `ADDR_NO_RANDOMIZE` if needed. Returns `Ok(())` when ASLR is already
/// off; otherwise it only returns on error.
fn reexec_without_aslr() -> io::Result<()> {
    if flows_sys::os::aslr_disabled() {
        return Ok(());
    }
    if std::env::var_os(ENV_REEXEC).is_some() {
        return Err(io::Error::other(
            "ASLR still enabled after ADDR_NO_RANDOMIZE re-exec",
        ));
    }
    if !flows_sys::os::disable_aslr() {
        return Err(io::Error::other(
            "personality(ADDR_NO_RANDOMIZE) is not permitted here; \
             migratable multi-process topologies need it (or run under \
             `setarch -R`)",
        ));
    }
    use std::os::unix::process::CommandExt;
    let exe = std::env::current_exe()?;
    let err = Command::new(exe)
        .args(std::env::args().skip(1))
        .env(ENV_REEXEC, "1")
        .exec();
    Err(err)
}

/// This process's rank, when it was spawned (or addressed) as a
/// flows-net child; `None` in ordinary single-process runs.
pub fn child_rank() -> Option<usize> {
    std::env::var(ENV_RANK).ok()?.parse().ok()
}

/// Child entry: join the topology described by the environment
/// (`FLOWS_NET_RANK` + `FLOWS_NET_DIR`).
pub fn attach_from_env() -> io::Result<Arc<World>> {
    let rank = child_rank()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{ENV_RANK} not set")))?;
    let dir = PathBuf::from(
        std::env::var(ENV_DIR)
            .map_err(|_| io::Error::new(io::ErrorKind::NotFound, format!("{ENV_DIR} not set")))?,
    );
    attach(rank, &dir)
}

/// Attach-by-address: join the session at `dir` as `rank`. Waits for
/// the leader's meta file when it has not appeared yet.
fn attach(rank: usize, dir: &Path) -> io::Result<Arc<World>> {
    let deadline = Instant::now() + BRINGUP_TIMEOUT;
    let meta = loop {
        match Meta::read(dir) {
            Ok(m) => break m,
            Err(e) if e.kind() == io::ErrorKind::NotFound && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    };
    if rank == 0 || rank >= meta.procs {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("rank {rank} out of range for {} procs", meta.procs),
        ));
    }
    let sys_err = |e: flows_sys::SysError| io::Error::other(e.to_string());
    let transport = match meta.backend {
        Backend::Shm => {
            let fd = flows_sys::MemFd::open_pid_fd(meta.leader_pid, meta.memfd_fd).map_err(sys_err)?;
            let t = ShmTransport::new(Segment::attach(fd).map_err(sys_err)?, rank);
            t.set_ready();
            if !t.wait_all_ready(BRINGUP_TIMEOUT) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "topology never fully attached",
                ));
            }
            t as Arc<dyn Transport>
        }
        Backend::Uds => {
            SockTransport::connect(rank, meta.procs, dir, None, BRINGUP_TIMEOUT)? as Arc<dyn Transport>
        }
        Backend::Tcp => {
            SockTransport::connect(rank, meta.procs, dir, Some(meta.tcp_base), BRINGUP_TIMEOUT)?
                as Arc<dyn Transport>
        }
    };
    Ok(Arc::new(World {
        rank,
        procs: meta.procs,
        pes_per_proc: meta.pes_per_proc,
        backend: meta.backend,
        transport,
        children: Mutex::new(Vec::new()),
        dir: dir.to_path_buf(),
        owns_dir: false,
        closed: AtomicBool::new(false),
    }))
}

struct ChildSlot {
    rank: usize,
    child: Option<Child>,
    status: Option<i32>,
}

/// One process's handle on a running multi-process machine.
pub struct World {
    rank: usize,
    procs: usize,
    pes_per_proc: usize,
    backend: Backend,
    transport: Arc<dyn Transport>,
    children: Mutex<Vec<ChildSlot>>,
    dir: PathBuf,
    owns_dir: bool,
    closed: AtomicBool,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("rank", &self.rank)
            .field("procs", &self.procs)
            .field("pes_per_proc", &self.pes_per_proc)
            .field("backend", &self.backend.as_str())
            .finish()
    }
}

impl World {
    /// This process's rank (0 = leader).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the topology.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// PEs driven by each process.
    pub fn pes_per_proc(&self) -> usize {
        self.pes_per_proc
    }

    /// Total PEs across the machine.
    pub fn num_pes(&self) -> usize {
        self.procs * self.pes_per_proc
    }

    /// First global PE id owned by this process.
    pub fn first_pe(&self) -> usize {
        self.rank * self.pes_per_proc
    }

    /// Which process owns global PE `pe`.
    pub fn proc_of_pe(&self, pe: usize) -> usize {
        pe / self.pes_per_proc
    }

    /// Is this process the leader (rank 0)?
    pub fn is_leader(&self) -> bool {
        self.rank == 0
    }

    /// The active backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The session directory (meta file, socket files).
    pub fn session_dir(&self) -> &Path {
        &self.dir
    }

    /// Send `frame` to process `dst` (dropped if `dst` is dead).
    pub fn send(&self, dst: usize, frame: &Frame) {
        self.transport.send(dst, frame);
    }

    /// Next frame from any peer, if one is pending.
    pub fn try_recv(&self) -> Option<(usize, Frame)> {
        self.transport.try_recv()
    }

    /// Block until traffic arrives or `timeout` elapses.
    pub fn park(&self, timeout: Duration) {
        self.transport.park(timeout);
    }

    /// Stop sending to process `proc` (it died).
    pub fn mark_proc_dead(&self, proc: usize) {
        self.transport.mark_dead(proc);
    }

    /// The shared arena's address range, on the shm backend (zero-copy
    /// assertions in tests).
    pub fn shm_range(&self) -> Option<(usize, usize)> {
        self.transport.shm_range()
    }

    /// Leader only: poll for children that exited since the last call.
    /// Returns `(rank, exit_code)` pairs; a signal death reports -1.
    pub fn poll_children(&self) -> Vec<(usize, i32)> {
        let mut out = Vec::new();
        for slot in self.children.lock().iter_mut() {
            let Some(child) = slot.child.as_mut() else { continue };
            if let Ok(Some(status)) = child.try_wait() {
                let code = status.code().unwrap_or(-1);
                slot.status = Some(code);
                slot.child = None;
                out.push((slot.rank, code));
            }
        }
        out
    }

    /// Tear the machine down. The leader reaps every child (killing
    /// stragglers after a grace period), unlinks the session directory,
    /// and reports any child that exited nonzero; children just close
    /// their transport. Idempotent.
    pub fn shutdown(&self) -> Result<(), String> {
        if self.closed.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        self.transport.close();
        let mut failures = Vec::new();
        if self.is_leader() {
            let deadline = Instant::now() + REAP_TIMEOUT;
            for slot in self.children.lock().iter_mut() {
                let code = match (slot.status, slot.child.as_mut()) {
                    (Some(code), _) => code,
                    (None, None) => continue,
                    (None, Some(child)) => loop {
                        match child.try_wait() {
                            Ok(Some(status)) => break status.code().unwrap_or(-1),
                            Ok(None) if Instant::now() < deadline => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Ok(None) => {
                                let _ = child.kill();
                                let _ = child.wait();
                                break -2;
                            }
                            Err(_) => break -1,
                        }
                    },
                };
                slot.status = Some(code);
                slot.child = None;
                if code != 0 {
                    failures.push(format!("rank {} exited with {}", slot.rank, code));
                }
            }
            if self.owns_dir {
                let _ = std::fs::remove_dir_all(&self.dir);
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        // Best-effort cleanup when the caller forgot to shut down: no
        // zombie children, no leaked session directory.
        let _ = self.shutdown();
    }
}

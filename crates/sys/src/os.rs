//! Process-level OS services: yielding, resource limits, `/proc` discovery.
//!
//! Table 2 of the paper reports the *practical* limits each platform places
//! on processes and kernel threads. This module exposes the knobs those
//! limits come from (`RLIMIT_NPROC`, `/proc/sys/kernel/threads-max`,
//! `pid_max`) so the probing harness can report both the configured limit
//! and the empirically reached one.

use crate::error::{SysError, SysResult};

/// Yield the processor (`sched_yield`), as the process/pthread context
/// switch benchmarks in §4.1 of the paper do.
#[inline]
pub fn sched_yield() {
    // SAFETY: sched_yield has no preconditions.
    unsafe { libc::sched_yield() };
}

/// A soft/hard resource-limit pair. `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limit {
    /// Soft limit (enforced); `None` = unlimited.
    pub soft: Option<u64>,
    /// Hard limit (ceiling for the soft limit); `None` = unlimited.
    pub hard: Option<u64>,
}

fn getrlimit(resource: libc::__rlimit_resource_t) -> SysResult<Limit> {
    let mut rl = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: getrlimit writes into the struct we provide.
    if unsafe { libc::getrlimit(resource, &mut rl) } != 0 {
        return Err(SysError::last("getrlimit"));
    }
    let cvt = |v: libc::rlim_t| {
        if v == libc::RLIM_INFINITY {
            None
        } else {
            Some(v)
        }
    };
    Ok(Limit {
        soft: cvt(rl.rlim_cur),
        hard: cvt(rl.rlim_max),
    })
}

/// `RLIMIT_NPROC`: maximum number of processes/threads for this user.
pub fn nproc_limit() -> SysResult<Limit> {
    getrlimit(libc::RLIMIT_NPROC)
}

/// `RLIMIT_STACK`: default stack size for new kernel threads.
pub fn stack_limit() -> SysResult<Limit> {
    getrlimit(libc::RLIMIT_STACK)
}

fn read_proc_u64(path: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .trim()
        .parse::<u64>()
        .ok()
}

/// Kernel-wide maximum thread count (`/proc/sys/kernel/threads-max`).
pub fn kernel_threads_max() -> Option<u64> {
    read_proc_u64("/proc/sys/kernel/threads-max")
}

/// Kernel-wide maximum pid (`/proc/sys/kernel/pid_max`).
pub fn kernel_pid_max() -> Option<u64> {
    read_proc_u64("/proc/sys/kernel/pid_max")
}

/// Maximum distinct memory mappings per process
/// (`/proc/sys/vm/max_map_count`) — the resource that bounds how many
/// isomalloc slots can be *committed* simultaneously.
pub fn max_map_count() -> Option<u64> {
    read_proc_u64("/proc/sys/vm/max_map_count")
}

/// `personality(2)` syscall number.
#[cfg(target_arch = "x86_64")]
const SYS_PERSONALITY: libc::c_long = 135;
#[cfg(target_arch = "aarch64")]
const SYS_PERSONALITY: libc::c_long = 92;

/// The `ADDR_NO_RANDOMIZE` personality bit: disable address-space layout
/// randomization for this process and everything it execs.
const ADDR_NO_RANDOMIZE: libc::c_long = 0x0040000;

/// Query the current personality word without changing it.
fn personality_get() -> libc::c_long {
    // SAFETY: 0xffffffff is the documented "query only" argument.
    unsafe { libc::syscall(SYS_PERSONALITY, 0xffff_ffffu64 as libc::c_long) }
}

/// Is address-space layout randomization off for this process — either
/// system-wide (`randomize_va_space = 0`) or via `ADDR_NO_RANDOMIZE`?
///
/// Migratable-thread images embed raw return addresses into the text
/// segment, so images may only cross a process boundary between processes
/// whose executable is mapped at the same base: same binary, ASLR off.
pub fn aslr_disabled() -> bool {
    if personality_get() & ADDR_NO_RANDOMIZE != 0 {
        return true;
    }
    matches!(
        std::fs::read_to_string("/proc/sys/kernel/randomize_va_space")
            .map(|s| s.trim().to_string()),
        Ok(ref v) if v == "0"
    )
}

/// Set `ADDR_NO_RANDOMIZE` on the current process. The flag survives
/// `execve`, so a process that sets it and re-execs itself gets a
/// deterministic layout, as do all children it then spawns (this is what
/// `setarch -R` does). Returns whether the bit is now set.
pub fn disable_aslr() -> bool {
    let cur = personality_get();
    if cur & ADDR_NO_RANDOMIZE != 0 {
        return true;
    }
    // SAFETY: personality only alters execution-domain flags of the
    // calling process.
    unsafe { libc::syscall(SYS_PERSONALITY, cur | ADDR_NO_RANDOMIZE) };
    personality_get() & ADDR_NO_RANDOMIZE != 0
}

/// Number of online CPUs.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pointer width of this platform in bits (the paper's 32-bit vs 64-bit
/// distinction that motivates memory-aliasing stacks).
pub fn pointer_bits() -> u32 {
    (std::mem::size_of::<usize>() * 8) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_does_not_crash() {
        for _ in 0..10 {
            sched_yield();
        }
    }

    #[test]
    fn limits_are_readable() {
        let n = nproc_limit().unwrap();
        // Either unlimited or a positive count.
        if let Some(s) = n.soft {
            assert!(s > 0);
        }
        let st = stack_limit().unwrap();
        if let Some(s) = st.soft {
            assert!(s >= 4096);
        }
    }

    #[test]
    fn proc_values_parse_on_linux() {
        // These files exist on any modern Linux; values must be sane.
        if let Some(v) = kernel_threads_max() {
            assert!(v > 16);
        }
        if let Some(v) = kernel_pid_max() {
            assert!(v > 16);
        }
        if let Some(v) = max_map_count() {
            assert!(v > 16);
        }
    }

    #[test]
    fn aslr_personality_round_trip() {
        // Setting the bit only affects future execs; safe to do in-process.
        assert!(disable_aslr());
        assert!(aslr_disabled());
    }

    #[test]
    fn platform_sanity() {
        assert!(cpu_count() >= 1);
        let bits = pointer_bits();
        assert!(bits == 32 || bits == 64);
    }
}

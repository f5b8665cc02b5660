//! Host facts that ride in every result, and the process's own resource
//! readings (`/proc` only — no libc from here).

use std::fs;

fn first_line(path: &str) -> Option<String> {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
}

/// What a reader needs to judge whether two results are comparable.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub kernel: String,
    pub cpu_model: String,
    pub governor: String,
    pub load1: f64,
    pub vcpu_contention: f64,
    pub commit: String,
}

impl HostFacts {
    pub fn read() -> HostFacts {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "n/a".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "n/a".into()),
            cpu_model,
            governor: first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(|| "n/a".into()),
            load1: load1(),
            vcpu_contention: vcpu_contention(),
            commit: git_commit(),
        }
    }

    /// One `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "nproc={} kernel={} cpu=\"{}\" governor={} load1={:.2} vcpu_contention={:.2} commit={}",
            self.nproc,
            self.kernel,
            self.cpu_model,
            self.governor,
            self.load1,
            self.vcpu_contention,
            self.commit
        )
    }
}

/// How much slower a compute loop runs on one CPU while a second thread
/// computes on another: 1.0 on a host that really gives the VM two cores.
/// The reference VM has stretches in which it is 1.15–1.25, and in those
/// the two-thread lock-step workloads lose 20–35 % (README.md,
/// *Steadiness*), so the ratio rides in every host line. Best of three, so
/// that a moment with both threads on one CPU does not count. About 50 ms.
pub fn vcpu_contention() -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};
    fn spin(iters: u64) -> u64 {
        let mut acc = 1u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc)
    }
    fn timed() -> f64 {
        let t0 = std::time::Instant::now();
        spin(20_000_000);
        t0.elapsed().as_secs_f64()
    }
    let alone = (0..3).map(|_| timed()).fold(f64::INFINITY, f64::min);
    let (running, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let beside = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                running.store(true, Ordering::Relaxed);
                spin(100_000);
            }
        });
        while !running.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
        let t = (0..3).map(|_| timed()).fold(f64::INFINITY, f64::min);
        stop.store(true, Ordering::Relaxed);
        t
    });
    beside / alone
}

/// One-minute load average.
pub fn load1() -> f64 {
    first_line("/proc/loadavg")
        .and_then(|l| l.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// HEAD of the repository the benchmark runs from, read without `git`
/// ("n/a" in an exported checkout).
fn git_commit() -> String {
    let head = match first_line(".git/HEAD") {
        Some(h) => h,
        None => return "n/a".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => first_line(&format!(".git/{r}")).unwrap_or_else(|| "n/a".into()),
        None => head,
    }
}

fn status_kib(pid: &str, key: &str) -> Option<u64> {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("self", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set of this process, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kib("self", "VmRSS:").unwrap_or(0) * 1024
}

/// CPU seconds (user + system) this process has consumed, all its threads
/// included and its children not (a child process reports its own).
/// `/proc/self/stat` counts in USER_HZ ticks, which is 100 on every Linux
/// this runs on.
pub fn cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/self/stat")
}

/// The same for the calling OS thread alone.
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/thread-self/stat")
}

fn cpu_seconds_of(stat_path: &str) -> f64 {
    let stat = fs::read_to_string(stat_path).unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11) // state ppid pgrp session tty tpgid flags minflt cminflt majflt cmajflt
        .take(2) // utime stime
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Pin every task (OS thread) of this process to the CPU `cpu_of` picks
/// from its name, through `taskset` — the benchmark links no libc of its
/// own. Best effort: without `taskset`, or on a host without that CPU,
/// the thread simply stays where the kernel put it.
pub fn pin_tasks(cpu_of: impl Fn(&str) -> usize) {
    set_affinity(|name| cpu_of(name).to_string());
}

/// Pin the calling OS thread to `cpu` (best effort, like [`pin_tasks`]).
pub fn pin_current_thread(cpu: usize) {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let Some(tid) = fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
    else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Pins each PE's OS thread to the CPU of the same number, once: the first
/// rank to run on a PE does it for all that follow. Two PE threads that
/// keep waking each other are exactly what the kernel's wake-affine
/// heuristic likes to stack on one CPU, and a lock-step exchange then runs
/// several times slower for as long as that lasts.
#[derive(Debug, Default)]
pub struct PePins {
    done: [std::sync::atomic::AtomicBool; 8],
}

impl PePins {
    pub fn pin(&self, pe: usize) {
        use std::sync::atomic::Ordering;
        if let Some(flag) = self.done.get(pe) {
            if !flag.swap(true, Ordering::Relaxed) {
                pin_current_thread(pe);
            }
        }
    }
}

/// [`pin_tasks`], once a task called `awaited` exists. A thread names
/// itself as it starts, so a thread spawned a moment ago may still carry
/// the process's name; pinning by name before it shows up would file it
/// under the wrong role. Gives up waiting after 100 ms.
pub fn pin_tasks_once_named(awaited: &str, cpu_of: impl Fn(&str) -> usize) {
    let named = || {
        fs::read_dir("/proc/self/task").is_ok_and(|tasks| {
            tasks.flatten().any(|t| {
                first_line(&format!("{}/comm", t.path().display())).is_some_and(|n| n == awaited)
            })
        })
    };
    for _ in 0..100 {
        if named() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    pin_tasks(cpu_of);
}

/// Undo [`pin_tasks`]: every task may run on every CPU again (threads
/// spawned later inherit their creator's mask, so this matters to whatever
/// the process does next).
pub fn unpin_tasks() {
    // Not `available_parallelism()`: that honours the very mask being undone.
    let Some(all) = first_line("/sys/devices/system/cpu/online") else {
        return;
    };
    set_affinity(|_| all.clone());
}

fn set_affinity(cpus_of: impl Fn(&str) -> String) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let Ok(tid) = task.file_name().into_string() else {
            continue;
        };
        let name = first_line(&format!("/proc/self/task/{tid}/comm")).unwrap_or_default();
        let _ = std::process::Command::new("taskset")
            .args(["-p", "-c", &cpus_of(&name), &tid])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
    }
}

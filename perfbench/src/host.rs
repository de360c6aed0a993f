//! Host accounting with the standard library only: CPU time and peak
//! resident memory from `/proc/self`, and the metadata printed beside
//! every result.

use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/self/stat` times. Linux has reported
/// `USER_HZ = 100` to user space on every architecture for decades.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of the whole process, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user: f64,
    pub system: f64,
}

/// Reads `utime` and `stime` (fields 14 and 15) from `/proc/self/stat`.
/// The command name in field 2 may hold spaces, so fields are counted
/// from the closing parenthesis.
pub fn cpu_times() -> CpuTimes {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' come field 3 (state) onwards, so field n sits at n - 3.
    let tick = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    CpuTimes {
        user: tick(14) / TICKS_PER_SEC,
        system: tick(15) / TICKS_PER_SEC,
    }
}

/// `struct timespec` of the C library on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

fn cpu_clock(clock: std::ffi::c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, the only thing
    // the call writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of the whole process, every thread, to the nanosecond. On a
/// paravirtualised guest it leaves out the time the host ran other
/// tenants on this guest's CPUs (steal), and on any host the time other
/// processes held the CPUs.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, to the nanosecond.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU mask words: 1024 CPUs, the size of the C library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut u64) -> std::ffi::c_int;
    fn sched_setaffinity(pid: std::ffi::c_int, size: usize, mask: *const u64) -> std::ffi::c_int;
}

/// Confines the calling thread, and the threads it spawns, to one of the
/// CPUs it may run on, until dropped. `std::thread::available_parallelism`
/// then reports 1, as on a one-CPU host.
pub struct OneCpu {
    saved: [u64; MASK_WORDS],
}

impl OneCpu {
    /// `None` when the affinity mask cannot be read or set.
    pub fn pin() -> Option<OneCpu> {
        let mut saved = [0u64; MASK_WORDS];
        // SAFETY: `saved` is a live, writable buffer of exactly the size
        // passed, and the call writes no more than that size into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&saved), saved.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let word = saved.iter().position(|&w| w != 0)?;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << saved[word].trailing_zeros();
        // SAFETY: `one` is a live buffer of exactly the size passed; the
        // call only reads it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (rc == 0).then_some(OneCpu { saved })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`: a live buffer of exactly the size passed,
        // only read. A failure leaves the thread on one CPU, which the
        // next measurement would show; there is nothing to undo here.
        let _ = unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.saved), self.saved.as_ptr())
        };
    }
}

/// Wall and CPU time across one measured section.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostUsage {
    pub wall: Duration,
    /// Process CPU time, from [`process_cpu`].
    pub cpu: Duration,
    pub user: f64,
    pub system: f64,
}

impl HostUsage {
    /// CPU seconds per wall second (2.0 = two cores busy throughout).
    pub fn cpu_per_wall(&self) -> f64 {
        self.cpu.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Share of CPU time spent in the kernel. Threads that block on
    /// futexes many times per simulated cycle show up here.
    pub fn sys_share(&self) -> f64 {
        self.system / (self.user + self.system).max(1e-9)
    }

    /// Adds another section to this one.
    pub fn add(&mut self, other: HostUsage) {
        self.wall += other.wall;
        self.cpu += other.cpu;
        self.user += other.user;
        self.system += other.system;
    }
}

/// Runs `f`, returning its result and the host time it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HostUsage) {
    let cpu0 = cpu_times();
    let t0 = Instant::now();
    let c0 = process_cpu();
    let out = f();
    let cpu = process_cpu().saturating_sub(c0);
    let wall = t0.elapsed();
    let cpu1 = cpu_times();
    (
        out,
        HostUsage {
            wall,
            cpu,
            user: cpu1.user - cpu0.user,
            system: cpu1.system - cpu0.system,
        },
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Each
/// workload runs in its own process, so the peak is that workload's.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host and build metadata, as `(key, value)` pairs.
pub fn metadata(
    workload: &str,
    seed: u64,
    input_seed: u64,
    scale: &str,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    // Recorded, never set: the benchmark measures the defaults users get.
    let lva_threads =
        std::env::var("LVA_THREADS").map_or_else(|_| "unset".to_owned(), |v| format!("set:{v}"));
    vec![
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("input_seed", input_seed.to_string()),
        ("scale", scale.to_owned()),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("git_commit", git_commit()),
        ("lva_threads", lva_threads),
    ]
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git; "unavailable" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_owned)
                })
                .unwrap_or_else(|| "unavailable".to_owned()),
            None => head,
        },
        None => "unavailable".to_owned(),
    }
}

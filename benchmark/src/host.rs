//! Host-side plumbing: CPU pinning, `getrusage` deltas, peak RSS from
//! `/proc`, and the per-process work directory.
//!
//! Everything here is Linux-only, like the numbers it supports: the
//! benchmark is meaningless unpinned (see `README.md`), and pinning,
//! `/proc/<pid>/status` and `RUSAGE_CHILDREN` are the Linux spellings.

use std::ffi::{c_int, c_long};
use std::path::{Path, PathBuf};

/// Words in the kernel's default `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

/// `struct rusage` as glibc lays it out on Linux: two `timeval`s
/// followed by fourteen `long`s.
#[repr(C)]
struct RawRusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    rest: [c_long; 14],
}

/// Pin the calling process — and, by inheritance, every thread, daemon
/// and child it starts afterwards — to the first CPU of its allowed
/// mask. Returns the CPU number.
///
/// Must run before anything is spawned: affinity is inherited at
/// `clone`/`fork`, never retroactively.
pub fn pin_to_first_allowed_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or("sched_getaffinity returned an empty CPU mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is
    // only read by the kernel.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// CPU time and context switches consumed so far by this process and
/// by the children it has already reaped.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches (every thread of the process).
    pub vol_ctxsw: u64,
}

impl Usage {
    /// `RUSAGE_SELF` plus `RUSAGE_CHILDREN`. A daemon's share only
    /// shows up once it has been waited for, so take the "after"
    /// sample once the children are reaped.
    pub fn now() -> Usage {
        const RUSAGE_SELF: c_int = 0;
        const RUSAGE_CHILDREN: c_int = -1;
        let mut total = Usage::default();
        for who in [RUSAGE_SELF, RUSAGE_CHILDREN] {
            let mut raw = RawRusage {
                utime: [0; 2],
                stime: [0; 2],
                rest: [0; 14],
            };
            // SAFETY: `raw` is a live, writable `struct rusage`-shaped
            // buffer; `who` is one of the two documented selectors.
            let rc = unsafe { getrusage(who, &mut raw) };
            assert_eq!(rc, 0, "getrusage cannot fail with a valid selector");
            total.user_s += raw.utime[0] as f64 + raw.utime[1] as f64 * 1e-6;
            total.sys_s += raw.stime[0] as f64 + raw.stime[1] as f64 * 1e-6;
            total.vol_ctxsw += raw.rest[12] as u64;
        }
        total
    }

    /// What was consumed between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_ctxsw: self.vol_ctxsw - earlier.vol_ctxsw,
        }
    }

    /// System share of the CPU time, `sys / (user + sys)`.
    pub fn sys_share(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Reset this process's peak-RSS mark so each workload of a full run
/// reports its own peak. Best effort: where `/proc/self/clear_refs`
/// is read-only the marks simply accumulate across workloads.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A scratch directory under `<out>/work-<pid>` for caches, journals,
/// checkpoints and daemon working directories, removed on drop — also
/// when a failed assertion unwinds through it.
///
/// It lives inside the benchmark's own directory rather than under the
/// system temp dir so a run reads and writes only inside its checkout;
/// daemons get it as `TMPDIR`, which moves the executor's per-job
/// scratch directories here too.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `<out>/work-<pid>`, replacing a stale one.
    pub fn create(out: &Path) -> Result<WorkDir, String> {
        let dir = out.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory `name`.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

//! What the ledger reads about its own process and host from `/proc`,
//! plus the fixed-work calibration spin. Host figures give context for
//! a disturbed run; they are never used as correction factors.

use std::fs;
use std::time::Instant;

extern "C" {
    // From the C library std already links; std has no wrapper for them.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread — and every thread it spawns from now on —
/// to one CPU (the highest-numbered one it may run on). Call first thing
/// in `main`. Returns the CPU, or `None` if the kernel refused.
///
/// On the shared two-vCPU host the second vCPU comes and goes; a client,
/// an event loop and the engine's background threads spread over "one or
/// two" CPUs swing 2x from second to second. On one CPU the rate is the
/// CPU work per transaction, whatever the neighbours do.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a valid, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).rev().find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the size passed; pid 0 = this thread.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

/// Linux reports `utime`/`stime` in USER_HZ ticks, 100 per second on
/// every mainstream architecture.
const TICK_US: u64 = 10_000;

/// Process user+system CPU time (all threads, exited ones included).
pub fn cpu_time_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut f = rest.split_ascii_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(f.next()) + ticks(f.next())) * TICK_US
}

fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Read + write system calls issued by the process so far.
pub fn io_syscalls() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .filter_map(|l| l.strip_prefix("syscr: ").or_else(|| l.strip_prefix("syscw: ")))
        .filter_map(|v| v.trim().parse::<u64>().ok())
        .sum()
}

/// Voluntary + involuntary context switches summed over live threads.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .flat_map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.rsplit(':').next()?.trim().parse::<u64>().ok())
                .collect::<Vec<_>>()
        })
        .sum()
}

/// `(steal, total)` jiffies of the whole host, from `/proc/stat`.
pub fn host_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let cols: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    (cols.get(7).copied().unwrap_or(0), cols.iter().take(8).sum())
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Fixed single-thread spin: millions of dependent multiply-xor steps per
/// second. A disturbed host shows up as a low figure before or after.
pub fn calib_mops() -> f64 {
    const STEPS: u64 = 20_000_000;
    let t0 = Instant::now();
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..STEPS {
        z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
    }
    std::hint::black_box(z);
    STEPS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// The header printed with every result. `nproc` is read by the caller
/// before the process pins itself.
pub fn header(nproc: usize) -> String {
    // The ceiling keeps git from searching above the directory the run
    // was started in (the driver's checkout is no git repository).
    let cwd = std::env::current_dir().unwrap_or_default();
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("git {rev} · nproc {nproc} · kernel {}", kernel.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let t0 = cpu_time_us();
        let mops = calib_mops();
        assert!(mops > 1.0);
        assert!(cpu_time_us() >= t0);
        assert!(rss_peak_mib() > 0.5);
        assert!(ctx_switches() > 0 || io_syscalls() > 0);
        let (steal, total) = host_jiffies();
        assert!(total > 0 && steal <= total);
    }
}

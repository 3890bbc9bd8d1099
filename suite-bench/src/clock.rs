//! CPU clocks and peak memory, read straight from the OS.
//!
//! The workspace has no libc crate, so `clock_gettime(2)` is declared
//! here directly, the same way `lp_obs::journal` reaches `signal(2)`.
//! The container this benchmark targets has no hardware PMU, so no
//! instruction counters are read.

#[cfg(not(target_os = "linux"))]
compile_error!("the suite benchmark reads Linux CPU clocks and /proc/self/status");

use std::ffi::{c_int, c_long};

/// `struct timespec` as Linux lays it out (`time_t` and `long` are both
/// `c_long` on every Linux target the toolchain supports).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock_id: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call and
    // both clock ids are valid on Linux, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU clock is non-negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("CPU clock is non-negative");
    secs * 1_000_000_000 + nanos
}

/// CPU time consumed by the whole process (every thread), in ns.
pub fn process_cpu_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

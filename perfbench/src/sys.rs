//! Process and thread resource readings taken without a sampler thread:
//! per-thread CPU time through `getrusage(RUSAGE_THREAD)` (declared here,
//! no external crate) and resident-set figures from `/proc/self/status`.

use std::time::Duration;

/// The layout below (64-bit `long` and `time_t`) holds on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    use std::os::raw::c_int;

    /// `struct timeval` from `<sys/time.h>`.
    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` from `<sys/resource.h>`: two timevals followed by
    /// fourteen `long` counters this module does not read.
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub counters: [i64; 14],
    }

    /// Linux `RUSAGE_THREAD`: usage of the calling thread only.
    pub const RUSAGE_THREAD: c_int = 1;

    extern "C" {
        pub fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
}

/// User plus system CPU time consumed so far by the calling thread, or
/// `None` where the platform has no per-thread usage call.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Option<Duration> {
    let mut usage = std::mem::MaybeUninit::<ffi::Rusage>::zeroed();
    // SAFETY: `usage` points to writable memory of the exact `struct rusage`
    // layout the C library fills, and `RUSAGE_THREAD` only reads the calling
    // thread's counters; the struct is read only after the call succeeded.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_THREAD, usage.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    // SAFETY: `getrusage` returned 0, so it initialised the whole struct
    // (and `zeroed` already made every bit pattern valid for these integers).
    let usage = unsafe { usage.assume_init() };
    let micros = |t: &ffi::Timeval| t.tv_sec * 1_000_000 + t.tv_usec;
    let total = micros(&usage.ru_utime) + micros(&usage.ru_stime);
    u64::try_from(total).ok().map(Duration::from_micros)
}

/// User plus system CPU time consumed so far by the calling thread, or
/// `None` where the platform has no per-thread usage call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Option<Duration> {
    None
}

/// One `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`) in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM")
}

/// Current resident set size of this process, in MB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS")
}

/// The host name, for stamping results.
pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_grows_with_work_and_rss_is_readable() {
        let Some(before) = thread_cpu() else { return };
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = thread_cpu().expect("second reading");
        assert!(
            after > before,
            "cpu time must advance: {before:?} -> {after:?}"
        );
        assert!(peak_rss_mb().expect("VmHWM") >= rss_mb().expect("VmRSS") * 0.5);
    }
}

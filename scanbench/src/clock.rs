//! Process and thread clocks: per-thread CPU time, run-queue wait and
//! the process's peak resident set.
//!
//! Three party threads share two cores on the reference host, so wall
//! time inside a call overstates the work done there by whatever time
//! the thread spent descheduled. Thread CPU time is read from the
//! kernel's per-thread runtime counter (`CLOCK_THREAD_CPUTIME_ID`, the
//! nanosecond-resolution source of `/proc/thread-self/stat`'s tick
//! counts, which are 10 ms coarse and too blunt for a ~10 ms block), and
//! the time a runnable thread waited for a core comes from
//! `/proc/thread-self/schedstat`.

/// CPU time consumed by the calling thread, in nanoseconds.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread (unavailable off Linux: 0).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    0
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// core (second field of `/proc/thread-self/schedstat`; 0 if absent).
pub fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`; 0 if absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_with_work() {
        let before = thread_cpu_ns();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.0);
    }
}

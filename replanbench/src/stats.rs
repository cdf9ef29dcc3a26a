//! Bounded latency statistics and process-wide resource usage.
//!
//! Per-op latencies go into a log-bucketed [`Histogram`] of fixed size, so a
//! run of half a million ops adds nothing to the peak RSS it reports.
//! [`cpu_s`] reads user + system CPU time of every thread the process ever
//! ran (threads that already exited included), [`peak_rss_mb`] the peak
//! resident set.

/// Sub-buckets per power of two: 2^7 = 128, so a bucket is at most 1/128
/// (0.78%) of its lower edge wide.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for every `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A log-bucketed histogram of non-negative integer samples (nanoseconds,
/// counts).  Each bucket keeps its count and the exact sum of its samples,
/// so a percentile is reported as the mean of the samples in the bucket that
/// holds the nearest-rank order statistic: exact when that bucket holds one
/// distinct value, and never off by more than the bucket width.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    sums: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) - SUB) as usize
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket(v);
        self.counts[b] += 1;
        self.sums[b] = self.sums[b].saturating_add(v);
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile: the `ceil(q·n)`-th smallest sample (rank
    /// clamped to `1..=n`).  `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &count) in self.counts.iter().enumerate() {
            seen += count;
            if count > 0 && seen >= rank {
                return Some(self.sums[b] as f64 / count as f64);
            }
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.total)
    }
}

#[repr(C)]
struct Timeval {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [std::os::raw::c_long; 14],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
}

const RUSAGE_SELF: std::os::raw::c_int = 0;

fn rusage(who: std::os::raw::c_int) -> Rusage {
    let mut raw = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `raw` is a valid, writable `struct rusage` with Linux's
    // layout and `who` is one of the RUSAGE_* selectors defined here;
    // getrusage writes only within that struct.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage({who}) cannot fail for a valid selector");
    raw
}

impl Rusage {
    fn cpu_s(&self) -> f64 {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        secs(&self.utime) + secs(&self.stime)
    }
}

/// `VmHWM` of `/proc/self/status`, in MiB: the peak resident set of this
/// program image.  `ru_maxrss` is no substitute, because it survives
/// `execve` and so reports the launching process's peak when that was
/// larger.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// `VmRSS` of `/proc/self/status`, in MiB: the resident set right now.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS:") as f64 / 1024.0
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux has /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has a {field} line in kB"))
}

extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Return the allocator's free memory to the kernel, then reset the
/// process's peak resident set (`VmHWM`) to its current resident set, so
/// that a later [`peak_rss_mb`] reports the peak since this call, free of
/// whatever earlier phases left cached in the allocator.  Best effort: on a
/// kernel without `clear_refs` the peak stays process-wide.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free heap pages; it takes
    // no pointers and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU seconds of every thread the process ran
/// (`getrusage(RUSAGE_SELF)`, which on Linux includes exited threads).
pub fn cpu_s() -> f64 {
    rusage(RUSAGE_SELF).cpu_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn nearest_rank_of_one_sample_is_that_sample() {
        let h = filled([4_321]);
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(h.percentile(q), Some(4_321.0));
        }
    }

    #[test]
    fn nearest_rank_of_two_samples_uses_ceil() {
        let h = filled([2_000, 1_000]);
        // ceil(0.5 * 2) = 1 -> the smaller; ceil(0.9 * 2) = 2 -> the larger.
        assert_eq!(h.percentile(0.5), Some(1_000.0));
        assert_eq!(h.percentile(0.9), Some(2_000.0));
    }

    #[test]
    fn nearest_rank_of_a_hundred_samples_has_no_off_by_one() {
        // 1..=100 µs, in ns; each value falls in its own bucket.
        let h = filled((1..=100).rev().map(|us| us * 1_000));
        assert_eq!(h.percentile(0.5), Some(50_000.0));
        assert_eq!(h.percentile(0.9), Some(90_000.0));
        assert_eq!(h.percentile(0.99), Some(99_000.0));
        assert_eq!(h.percentile(1.0), Some(100_000.0));
        assert_eq!(h.len(), 100);
    }

    #[test]
    fn buckets_are_monotone_and_narrow() {
        let mut last = 0;
        for v in (0..20_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let b = bucket(v);
            assert!(b >= last && b < BUCKETS);
            last = b;
        }
        // Samples within 0.78% of each other may share a bucket; the
        // reported value is their mean.
        let h = filled([1_000_000, 1_000_001]);
        assert_eq!(h.percentile(0.5), Some(1_000_000.5));
    }

    #[test]
    fn empty_histogram_has_no_percentile() {
        assert_eq!(Histogram::default().percentile(0.5), None);
    }

    #[test]
    fn process_cpu_time_counts_a_helper_thread_after_it_exits() {
        fn thread_cpu_s() -> f64 {
            const RUSAGE_THREAD: std::os::raw::c_int = 1;
            rusage(RUSAGE_THREAD).cpu_s()
        }
        let before = cpu_s();
        // The helper burns 200 ms of its own CPU time, however long the
        // host takes to give it that much, then exits.
        let burned = std::thread::spawn(|| {
            let start = thread_cpu_s();
            let mut x = 0u64;
            while thread_cpu_s() - start < 0.2 {
                for i in 0..10_000u64 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                }
            }
            thread_cpu_s() - start
        })
        .join()
        .expect("helper thread panicked");
        let counted = cpu_s() - before;
        assert!(burned >= 0.2);
        assert!(
            counted >= burned - 0.01,
            "process CPU grew {counted:.3}s while the exited helper burned {burned:.3}s"
        );
    }
}

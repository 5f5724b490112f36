//! Measurement primitives: a latency histogram, order statistics, and
//! the process's CPU time and peak resident set.

use std::time::Duration;

/// Sub-buckets per power of two, as a bit count: 2⁷ = 128 buckets per
/// octave, so a bucket is at most 1/128 ≈ 0.8 % of its value wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Buckets needed to cover every `u64` nanosecond value.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear nanosecond histogram: values below 128 ns are counted
/// exactly, larger ones in buckets at most 0.8 % wide.  Fixed memory
/// (≈ 59 KiB), so recording every acquisition of a long run does not
/// move the run's peak RSS.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    pub(crate) total: u64,
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist").field("total", &self.total).finish()
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    // The top SUB_BITS + 1 bits of `v`, in [SUB, 2·SUB).
    let mant = (v >> shift) as usize;
    ((shift as usize + 1) << SUB_BITS) + (mant - SUB)
}

/// `[low, low + width)` of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = (b >> SUB_BITS) - 1;
    let mant = (b & (SUB - 1)) + SUB;
    (
        (mant as f64) * (1u64 << shift) as f64,
        (1u64 << shift) as f64,
    )
}

impl Hist {
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside
    /// the bucket that holds it.  `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bucket_range(b);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + width * frac);
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0)?;
        let (lo, width) = bucket_range(last);
        Some(lo + width)
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = v.len() / 2;
    if v.len() % 2 == 1 {
        v[h]
    } else {
        (v[h - 1] + v[h]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `xs`: the smallest sample with at
/// least `q` of the samples at or below it (the maximum for q = 0.99
/// with fewer than 100 samples).
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of this process, all threads included
/// (joined ones too).
pub fn cpu_time() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_SELF is a valid `who`; getrusage writes
    // only inside the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let us = |t: &Timeval| {
        Duration::from_secs(u64::try_from(t.sec).unwrap_or(0))
            + Duration::from_micros(u64::try_from(t.usec).unwrap_or(0))
    };
    us(&ru.utime) + us(&ru.stime)
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut prev_end = 0.0;
        for b in 0..BUCKETS - 1 {
            let (lo, w) = bucket_range(b);
            assert_eq!(
                lo,
                prev_end,
                "bucket {b} starts where {} ended",
                b.saturating_sub(1)
            );
            assert!(lo < 128.0 || w / lo <= 1.0 / 128.0);
            prev_end = lo + w;
        }
        for v in [0u64, 1, 127, 128, 255, 256, 1000, 123_456_789, u64::MAX] {
            let (lo, w) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < lo + w || v == u64::MAX);
        }
    }

    #[test]
    fn quantiles_track_exact_values() {
        let mut h = Hist::default();
        for ns in 1..=10_000u64 {
            h.record(Duration::from_nanos(ns));
        }
        let p50 = h.quantile_ns(0.5).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.01, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.01, "p99 {p99}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.99), 3.0);
    }
}

//! The threaded lock runtime under contention: a closed loop of two
//! threads, one `Participant` each, entering the critical section of
//! one `RwAnonLock` for a fixed time window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use amx_core::{MutexSpec, Participant, RwAnonLock};
use amx_registers::{Adversary, OpSnapshot};

use crate::stats::Hist;

/// The lock workload's configuration: Algorithm 1 at (n, m) = (2, 3),
/// the smallest RW point with m ∈ M(n), one participant per thread.
pub const N: usize = 2;
pub const M: usize = 3;
pub const THREADS: usize = 2;

/// Mean spin-loop iterations of non-critical-section work between two
/// acquisitions of one thread (2–4 µs on a 2-vCPU x86-64 VM, about
/// twice what a thread spends in lock, critical section and unlock): short
/// enough that the other thread often competes for the lock, long
/// enough that the throughput does not swing with how the two threads
/// happen to interleave.
pub const NCS_MEAN_ITERS: u64 = 2_000;

/// Builds the lock and its participants.
pub fn setup(n: usize, m: usize, adversary: &Adversary) -> Vec<Participant> {
    let spec = MutexSpec::rw(n, m).expect("m ∈ M(n) for the benchmark's configurations");
    RwAnonLock::new(spec)
        .participants(adversary)
        .expect("adversary materializes for (n, m)")
}

/// What one window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub acquisitions: u64,
    pub wall: Duration,
    /// `lock()` call to guard returned, per acquisition.
    pub lock_ns: Hist,
    /// Guard drop (the unlock protocol), per acquisition; traced only.
    pub unlock_ns: Hist,
    /// Overlapping critical sections, lost counter updates and
    /// poisoned guards.
    pub failures: u64,
    pub per_thread: Vec<u64>,
    /// Most acquisitions by others one acquisition waited through;
    /// traced only.
    pub max_pending_depth: u64,
    pub ops: OpSnapshot,
    pub thread_spans: Vec<(Instant, Instant)>,
}

/// SplitMix64 step: the seeded source of each thread's
/// non-critical-section work.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `iters` dependent multiply-xorshift rounds the compiler cannot drop.
fn spin_work(iters: u64, acc: &mut u64) {
    let mut x = *acc | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    *acc = std::hint::black_box(x);
}

/// Runs `participants` (one thread each) for `window`.  `traced` adds
/// the unlock timing and the pending-depth epoch counter, which cost
/// two clock reads and one shared atomic per acquisition.
pub fn run_window(
    participants: Vec<Participant>,
    window: Duration,
    seed: u64,
    ncs_mean_iters: u64,
    traced: bool,
) -> Window {
    let threads = participants.len();
    let before: Vec<OpSnapshot> = participants
        .iter()
        .map(|p| p.counters().snapshot_counts())
        .collect();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let occupancy = AtomicU64::new(0);
    let shared = AtomicU64::new(0);
    let epoch = AtomicU64::new(0);
    let mut w = Window::default();
    let (t0, results) = std::thread::scope(|s| {
        let handles: Vec<_> = participants
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                let (stop, start, occupancy, shared, epoch) =
                    (&stop, &start, &occupancy, &shared, &epoch);
                s.spawn(move || {
                    let mut rng = seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
                    let mut acc = splitmix(&mut rng);
                    let mut lock_ns = Hist::default();
                    let mut unlock_ns = Hist::default();
                    let (mut entries, mut failures, mut max_pending) = (0u64, 0u64, 0u64);
                    start.wait();
                    let began = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        spin_work(
                            ncs_mean_iters / 2 + splitmix(&mut rng) % ncs_mean_iters,
                            &mut acc,
                        );
                        let seen = if traced {
                            epoch.load(Ordering::SeqCst)
                        } else {
                            0
                        };
                        let a = Instant::now();
                        let guard = p.lock();
                        let b = Instant::now();
                        // Critical section: an occupancy count catches an
                        // overlap directly, and a non-atomic increment of
                        // a shared counter loses updates if one happens.
                        if occupancy.fetch_add(1, Ordering::SeqCst) != 0 {
                            failures += 1;
                        }
                        let c = shared.load(Ordering::Relaxed);
                        shared.store(c + 1, Ordering::Relaxed);
                        if guard.poisoned() {
                            failures += 1;
                        }
                        occupancy.fetch_sub(1, Ordering::SeqCst);
                        if traced {
                            let now = epoch.fetch_add(1, Ordering::SeqCst);
                            max_pending = max_pending.max(now - seen);
                            let u = Instant::now();
                            drop(guard);
                            unlock_ns.record(u.elapsed());
                        } else {
                            drop(guard);
                        }
                        lock_ns.record(b - a);
                        entries += 1;
                    }
                    let ops = p.counters().snapshot_counts();
                    (
                        lock_ns,
                        unlock_ns,
                        entries,
                        failures,
                        max_pending,
                        ops,
                        began,
                        Instant::now(),
                    )
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("lock worker thread panicked"))
            .collect();
        (t0, results)
    });
    w.wall = t0.elapsed();
    for (i, (lock_ns, unlock_ns, entries, failures, max_pending, ops, began, ended)) in
        results.into_iter().enumerate()
    {
        w.lock_ns.merge(&lock_ns);
        w.unlock_ns.merge(&unlock_ns);
        w.acquisitions += entries;
        w.failures += failures;
        w.max_pending_depth = w.max_pending_depth.max(max_pending);
        w.per_thread.push(entries);
        let d = ops.since(&before[i]);
        w.ops = OpSnapshot {
            reads: w.ops.reads + d.reads,
            writes: w.ops.writes + d.writes,
            cas_ops: w.ops.cas_ops + d.cas_ops,
            snapshots: w.ops.snapshots + d.snapshots,
            collect_rounds: w.ops.collect_rounds + d.collect_rounds,
        };
        w.thread_spans.push((began, ended));
    }
    // Lost updates of the unprotected counter are overlaps the
    // occupancy check raced past.
    w.failures += w.acquisitions - shared.load(Ordering::SeqCst).min(w.acquisitions);
    w
}

/// Shared-memory operations of one uncontended acquisition + release:
/// one participant alone, `rounds` times.  Exact for a given algorithm
/// configuration.
pub fn solo_ops_per_acq(mut p: Participant, rounds: u64) -> f64 {
    let before = p.counters().snapshot_counts();
    for _ in 0..rounds {
        drop(p.lock());
    }
    let d = p.counters().snapshot_counts().since(&before);
    d.total_primitive_ops() as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_window_is_mutually_exclusive() {
        let ps = setup(N, M, &Adversary::Random(7));
        let w = run_window(ps, Duration::from_millis(100), 7, 100, true);
        assert!(w.acquisitions > 0);
        assert_eq!(w.failures, 0);
        assert_eq!(w.per_thread.len(), THREADS);
        assert_eq!(w.lock_ns.total, w.acquisitions);
        assert_eq!(w.unlock_ns.total, w.acquisitions);
    }
}

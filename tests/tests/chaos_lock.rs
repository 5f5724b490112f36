//! Crash-injection chaos tests for the threaded lock runtime (PR 8).
//!
//! The model checker's crash semantics (`CrashMode` in `amx-sim`) have a
//! threaded twin, and these tests pin the correspondence down:
//!
//! * **Drop = clean withdraw.**  A `Participant` dropped mid-doorway
//!   (bounded probe exhausted, claims in shared memory) withdraws
//!   automatically: memory ends clean, the lock is *not* poisoned, and
//!   survivors proceed.  Poisoning is reserved for interrupted critical
//!   sections — a doorway holds no application state.
//! * **`hard_crash` = StaleClaims.**  Hard-dropping a participant leaves
//!   its claims in memory, exactly the model's `CrashMode::StaleClaims`.
//!   Stale claims can block survivors forever, for both algorithms: the
//!   model's `crash-stale` points are `fair-livelock`.  An Algorithm 2
//!   survivor that resigns (lines 6–7) then waits in lines 8–10 for an
//!   all-⊥ pass the ghost's claims never allow, and a 2–2 split beside
//!   a one-register ghost never resigns and never reaches a majority.
//!   So under `hard_crash` the stress asserts mutual exclusion on every
//!   entry and bounded stale claims, never progress.  Progress of every
//!   survivor is asserted only where the ghost's claims are erased (a
//!   mid-doorway drop, the `crash-wipe` twin, verdict `ok`), and for a
//!   single survivor beside a one-register ghost, which still
//!   assembles a majority.
//! * **Backoff is waiting strategy only.**  Every `Backoff` policy must
//!   preserve mutual exclusion and per-thread completion under
//!   contention; only latency may differ.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use amx_core::lock::{BuildLock, Participant};
use amx_core::threaded::{RmwAnonLock, RwAnonLock};
use amx_core::{AmxLock, Backoff, MutexSpec};
use amx_registers::Adversary;

/// Mid-doorway drop leaves memory clean and the lock unpoisoned: the
/// `Drop` auto-withdraw is equivalent to an explicit `withdraw()`.
#[test]
fn dropped_pending_participant_withdraws_cleanly() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let lock = RwAnonLock::new(spec);
    let parts = lock.participants(&Adversary::Identity).unwrap();
    let (mut a, mut b) = {
        let mut it = parts.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let guard = a.lock();
    // b runs out of steps mid-doorway: still competing, may own registers.
    assert!(b.try_lock_steps(100).is_none());
    assert!(b.has_pending());
    let b_pid = b.pid();
    drop(b);
    assert!(
        lock.memory()
            .observe_all()
            .iter()
            .all(|s| !s.is_owned_by(b_pid)),
        "a dropped doorway must erase its claims"
    );
    assert!(
        !lock.is_poisoned(),
        "a doorway drop is not a critical-section interruption"
    );
    drop(guard);
    // The survivor (and the lock) are fully usable afterwards.
    let g = a.lock();
    drop(g);
    assert_eq!(a.entries(), 2);
}

/// `hard_crash` is the opposite contract: the claims stay, bit-for-bit —
/// the threaded incarnation of `CrashMode::StaleClaims`.
#[test]
fn hard_crash_leaves_stale_claims_without_poisoning() {
    let spec = MutexSpec::rmw(2, 3).unwrap();
    let lock = RmwAnonLock::new(spec);
    let parts = lock.participants(&Adversary::Identity).unwrap();
    let (mut a, b) = {
        let mut it = parts.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let a_pid = a.pid();
    // A few protocol steps: a claims at least one register by CAS.
    while !lock
        .memory()
        .observe_all()
        .iter()
        .any(|s| s.is_owned_by(a_pid))
    {
        assert!(
            a.try_lock_steps(1).is_none(),
            "a must not reach the CS before claiming its first register"
        );
    }
    a.hard_crash();
    let stale = lock
        .memory()
        .observe_all()
        .iter()
        .filter(|s| s.is_owned_by(a_pid))
        .count();
    assert!(stale >= 1, "the crash must leave the claims in memory");
    assert!(!lock.is_poisoned(), "a crash outside the CS never poisons");

    // Algorithm 2 survivors out-claim the ghost: with one stale claim of
    // m = 3 registers, the survivor can still assemble a majority — the
    // threaded analogue of the model checker's Alg 2 crash-survival
    // verdict.
    let mut b = b;
    for _ in 0..50 {
        let g = b.lock();
        drop(g);
    }
    assert_eq!(b.entries(), 50);
    // And the stale claims are still there: nobody repaired them.
    assert_eq!(
        lock.memory()
            .observe_all()
            .iter()
            .filter(|s| s.is_owned_by(a_pid))
            .count(),
        stale,
        "survivors must not touch the crashed process's registers"
    );
}

/// Hammers the lock from every survivor, asserting no overlap on each
/// entry.  Each survivor acquires at most `cycles` times, with
/// `try_lock_for` bounded by the shared `deadline` when one is given
/// (blocking `lock()` otherwise).  Returns the total number of entries.
fn hammer(parts: Vec<Participant>, cycles: u64, deadline: Option<Instant>) -> u64 {
    let in_cs = AtomicU64::new(0);
    let entries = AtomicU64::new(0);
    std::thread::scope(|s| {
        for mut p in parts {
            let (in_cs, entries) = (&in_cs, &entries);
            s.spawn(move || {
                for _ in 0..cycles {
                    let guard = match deadline {
                        None => p.lock(),
                        Some(d) => {
                            let left = d.saturating_duration_since(Instant::now());
                            match p.try_lock_for(left) {
                                Some(g) => g,
                                None => break,
                            }
                        }
                    };
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                    entries.fetch_add(1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                }
            });
        }
    });
    entries.into_inner()
}

/// Threaded stress: one process is dropped mid-doorway — its claims
/// auto-withdraw, the threaded `WipeRegisters` — while the survivors
/// keep hammering Algorithm 2; every survivor completes its cycles and
/// mutual exclusion holds throughout.
#[test]
fn alg2_survivors_progress_past_a_mid_doorway_drop() {
    let spec = MutexSpec::rmw(3, 5).unwrap();
    let lock = RmwAnonLock::new(spec);
    let mut parts = lock.participants(&Adversary::Random(11)).unwrap();
    let mut ghost = parts.remove(0);
    let ghost_pid = ghost.pid();
    let entries = std::thread::scope(|s| {
        s.spawn(move || {
            // Step partway into the doorway, then drop: auto-withdraw.
            let _ = ghost.try_lock_steps(2);
            drop(ghost);
        });
        hammer(parts, 200, None)
    });
    assert_eq!(
        entries, 400,
        "both survivors must complete once the ghost's claims are erased"
    );
    assert!(!lock.is_poisoned());
    assert!(
        lock.memory()
            .observe_all()
            .iter()
            .all(|s| !s.is_owned_by(ghost_pid)),
        "a dropped doorway leaves no claims"
    );
}

/// Threaded stress: one process hard-crashes mid-doorway while the
/// survivors keep trying Algorithm 2.  Its stale claims may livelock
/// the survivors (the model's `crash-stale` verdict), so each
/// acquisition is a `try_lock_for` inside a fixed total deadline and
/// only safety is asserted: no overlap on any entry, no poisoning, and
/// at most two stale claims.
#[test]
fn alg2_hard_crash_keeps_exclusion_among_survivors() {
    let spec = MutexSpec::rmw(3, 5).unwrap();
    let lock = RmwAnonLock::new(spec);
    let mut parts = lock.participants(&Adversary::Random(11)).unwrap();
    let mut crasher = parts.remove(0);
    let crasher_pid = crasher.pid();
    let deadline = Instant::now() + Duration::from_secs(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            // Step partway into the doorway, then die hard.
            let _ = crasher.try_lock_steps(2);
            crasher.hard_crash();
        });
        hammer(parts, 200, Some(deadline));
    });
    assert!(!lock.is_poisoned());
    // Whatever the crasher claimed in its two steps is still claimed.
    let stale = lock
        .memory()
        .observe_all()
        .iter()
        .filter(|s| s.is_owned_by(crasher_pid))
        .count();
    assert!(
        stale <= 2,
        "two doorway steps (one CAS each) claim at most two registers, saw {stale}"
    );
}

/// Every backoff policy preserves exclusion and completion under real
/// contention — the ladder is waiting strategy, not protocol.
#[test]
fn all_backoff_policies_preserve_exclusion() {
    for backoff in Backoff::all() {
        let spec = MutexSpec::rmw(3, 5).unwrap();
        let participants: Vec<_> = RmwAnonLock::with_participants(spec, &Adversary::Random(5))
            .unwrap()
            .into_iter()
            .map(|p| p.with_backoff(backoff))
            .collect();
        let counter = AtomicU64::new(0);
        let in_cs = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in participants {
                assert_eq!(p.backoff(), backoff);
                let (counter, in_cs) = (&counter, &in_cs);
                s.spawn(move || {
                    for _ in 0..100 {
                        let g = p.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                        counter.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            300,
            "{}: every thread completes",
            backoff.name()
        );
    }
}

/// The parking policy still meets a deadline-bounded acquisition: a
/// `try_lock_for` under a parked waiter wakes up in time to win once the
/// holder leaves.
#[test]
fn parked_waiter_wakes_and_acquires() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let lock = RwAnonLock::new(spec);
    let parts = lock.participants(&Adversary::Identity).unwrap();
    let (mut a, b) = {
        let mut it = parts.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let guard = a.lock();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut b = b.with_backoff(Backoff::SpinYieldPark);
            let acquired = b.try_lock_for(Duration::from_secs(30)).is_some();
            acquired
        });
        // Let the waiter climb into the park band, then release.
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        assert!(
            waiter.join().expect("waiter thread"),
            "the parked waiter must wake and acquire"
        );
    });
}

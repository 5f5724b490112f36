//! Out-of-core exploration contracts (PR 7).
//!
//! Three properties must hold for the spillable, sharded, resumable
//! engine to be trustworthy:
//!
//! * **Sharded ≡ single-table** — the hash-prefix-sharded seen table
//!   (multi-worker path, 64 shards) reports the same verdict kind and,
//!   on completing runs, the same canonical/concrete counts as the
//!   sequential single-shard table, even while a tiny resident budget
//!   forces page eviction and fault-in mid-exploration.  (On aborting
//!   runs the counts depend on how far past the violation each layout
//!   expands, and livelock witness selection follows gid order, which
//!   the shard interleaving permutes — exactly the contract the
//!   pre-sharding engine differential pinned down.)
//! * **Spill transparency** — running under a resident budget changes
//!   the report only in the spill-accounting fields: within one shard
//!   layout the spilled report is bit-identical, witness included.
//! * **Kill/resume equivalence** — a sweep halted at any level-k
//!   checkpoint and resumed from disk finishes with a report identical
//!   to the uninterrupted run (counts, verdict, witness schedule), at
//!   one and two threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_registers::Adversary;
use amx_sim::mc::{McReport, ModelChecker, Symmetry};
use amx_sim::toys::{NaiveFlagLock, PetersonTwo, SpinForever};
use amx_sim::{Automaton, EncodeState, MemoryModel, Verdict};

fn alg1(n: usize, m: usize) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(FreeSlotPolicy::FirstFree))
        .collect()
}

fn alg2(n: usize, m: usize) -> Vec<Alg2Automaton> {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect()
}

/// A process-unique, collision-free scratch directory for checkpoint
/// tests; removed on drop so reruns start clean.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("amx-ooc-{tag}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test checkpoint dir");
        TempDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts the parts of two reports that must be bit-identical across
/// engine configurations: verdict (including witness payloads), exact
/// counts, and orbit accounting.
fn assert_equivalent(a: &McReport, b: &McReport, what: &str) {
    assert_eq!(a.verdict, b.verdict, "{what}: verdict diverged");
    assert_eq!(a.states, b.states, "{what}: states diverged");
    assert_eq!(
        a.canonical_states, b.canonical_states,
        "{what}: canonical count diverged"
    );
    assert_eq!(
        a.full_states_estimate, b.full_states_estimate,
        "{what}: concrete count diverged"
    );
    assert_eq!(a.transitions, b.transitions, "{what}: transitions diverged");
    assert_eq!(
        a.acquisitions, b.acquisitions,
        "{what}: acquisitions diverged"
    );
}

/// Sharded-vs-single differential: multi-worker sharded exploration
/// under a deliberately starved resident budget must match the
/// sequential single-shard run, under both symmetry modes.  Spill is
/// bit-transparent within a layout; across layouts the verdict kind is
/// invariant always, the exact counts on every completing run.
fn sharded_differential<A, F>(make: F, model: MemoryModel, m: usize, what: &str)
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    for symmetry in [Symmetry::Off, Symmetry::Process] {
        let run = |threads: usize, budget: Option<usize>| {
            let mut mc = ModelChecker::with_automata(make(), model, m, &Adversary::Identity)
                .unwrap()
                .max_states(2_000_000)
                .symmetry(symmetry)
                .threads(threads);
            if let Some(bytes) = budget {
                mc = mc.resident_budget(bytes);
            }
            mc.run().unwrap()
        };
        let seq = run(1, None);
        // A zero-byte budget evicts every sealed page (the engine
        // always keeps at least one resident), so any state space
        // bigger than one page genuinely exercises the spill path.
        let seq_spill = run(1, Some(0));
        let sharded = run(4, None);
        let sharded_spill = run(4, Some(0));
        assert_equivalent(&seq, &seq_spill, &format!("{what}/{symmetry:?} seq-spill"));
        assert_equivalent(
            &sharded,
            &sharded_spill,
            &format!("{what}/{symmetry:?} sharded-spill"),
        );
        assert_eq!(
            std::mem::discriminant(&seq.verdict),
            std::mem::discriminant(&sharded.verdict),
            "{what}/{symmetry:?}: verdict kind diverged across shard layouts: \
             {:?} vs {:?}",
            seq.verdict,
            sharded.verdict
        );
        if matches!(seq.verdict, Verdict::Ok | Verdict::FairLivelock { .. }) {
            // Completing runs expand every level fully in both layouts,
            // so all counts are exact invariants of the canonical set.
            assert_eq!(
                seq.canonical_states, sharded.canonical_states,
                "{what}/{symmetry:?}: canonical count diverged across layouts"
            );
            assert_eq!(
                seq.full_states_estimate, sharded.full_states_estimate,
                "{what}/{symmetry:?}: concrete count diverged across layouts"
            );
            assert_eq!(
                seq.transitions, sharded.transitions,
                "{what}/{symmetry:?}: transitions diverged across layouts"
            );
            assert_eq!(
                seq.acquisitions, sharded.acquisitions,
                "{what}/{symmetry:?}: acquisitions diverged across layouts"
            );
        }
        if seq.canonical_states > 600 {
            assert!(
                seq_spill.arena_spilled_bytes > 0,
                "{what}/{symmetry:?}: a zero budget must force eviction \
                 (resident {} of {} logical bytes)",
                seq_spill.arena_resident_bytes,
                seq_spill.arena_resident_bytes + seq_spill.arena_spilled_bytes,
            );
            assert!(
                seq_spill.spill_faults > 0,
                "{what}/{symmetry:?}: dedup probes above evicted pages must fault"
            );
        }
    }
}

#[test]
fn sharded_matches_single_on_toys() {
    let mut pool = PidPool::sequential();
    let peterson = vec![
        PetersonTwo::new(pool.mint(), 0),
        PetersonTwo::new(pool.mint(), 1),
    ];
    sharded_differential(move || peterson.clone(), MemoryModel::Rw, 3, "peterson");
    let mut pool = PidPool::sequential();
    let naive: Vec<NaiveFlagLock> = (0..2).map(|_| NaiveFlagLock::new(pool.mint())).collect();
    sharded_differential(move || naive.clone(), MemoryModel::Rw, 1, "naive-flag");
}

#[test]
fn sharded_matches_single_on_alg1() {
    // (2,3) verifies; (2,2) is invalid and produces a livelock witness.
    sharded_differential(|| alg1(2, 3), MemoryModel::Rw, 3, "alg1(2,3)");
    sharded_differential(|| alg1(2, 2), MemoryModel::Rw, 2, "alg1(2,2)");
}

#[test]
fn sharded_matches_single_on_alg2() {
    sharded_differential(|| alg2(2, 3), MemoryModel::Rmw, 3, "alg2(2,3)");
    sharded_differential(|| alg2(3, 1), MemoryModel::Rmw, 1, "alg2(3,1)");
}

/// One configuration a kill/resume roundtrip explores.
struct ResumeCase<'a> {
    what: &'a str,
    model: MemoryModel,
    m: usize,
    adversary: Adversary,
    symmetry: Symmetry,
    every: u32,
}

/// Kill-at-level-k / resume equivalence: at one and two threads, halting
/// after the k-th checkpoint — for every k the uninterrupted run writes
/// — yields `Verdict::Interrupted`, and resuming from the on-disk
/// checkpoint reproduces the uninterrupted report exactly (verdict with
/// its witness and `scc_states`, and every count), including under a
/// starved resident budget, so the checkpoint write and the restore
/// both cross the spill machinery.  Later halts restore more of the
/// livelock edge table from disk, so a row the checkpoint drops or
/// misplaces changes the livelock component the resumed run sees.
fn kill_resume_roundtrip<A, F>(make: F, case: &ResumeCase<'_>)
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let what = case.what;
    let new_checker = || {
        ModelChecker::with_automata(make(), case.model, case.m, &case.adversary)
            .unwrap()
            .max_states(2_000_000)
            .symmetry(case.symmetry)
    };
    for threads in [1, 2] {
        let baseline = new_checker().threads(threads).run().unwrap();
        let checkpointing = |dir: &TempDir| {
            new_checker()
                .threads(threads)
                .resident_budget(0)
                .checkpoint_dir(dir.path())
                .checkpoint_every(case.every)
        };
        let full_dir = TempDir::new("resume-full");
        let full = checkpointing(&full_dir).run().unwrap();
        assert_equivalent(
            &baseline,
            &full,
            &format!("{what} t{threads} checkpointing"),
        );
        assert!(
            full.checkpoints_written >= 1,
            "{what}: the uninterrupted run must write a checkpoint"
        );
        for k in 1..=full.checkpoints_written {
            let tag = format!("{what} t{threads} halt@{k}");
            let dir = TempDir::new("resume");
            let halted = checkpointing(&dir).halt_after_checkpoints(k).run().unwrap();
            let Verdict::Interrupted { level, checkpoints } = halted.verdict else {
                panic!("{tag}: expected an interruption, got {:?}", halted.verdict);
            };
            assert_eq!(checkpoints, k, "{tag}: halts right after checkpoint {k}");
            assert_eq!(
                level,
                k * case.every,
                "{tag}: checkpoints land on level-{} boundaries",
                case.every
            );
            assert!(
                dir.path().join(format!("mc-{level:08}.ckpt")).is_file(),
                "{tag}: the level-{level} checkpoint file must exist after the halt"
            );
            let resumed = checkpointing(&dir).resume(true).run().unwrap();
            assert_eq!(
                resumed.resumed_from_level,
                Some(level),
                "{tag}: resume must pick up at the checkpointed level"
            );
            assert!(resumed.degraded.is_empty(), "{tag}: {:?}", resumed.degraded);
            assert_equivalent(&baseline, &resumed, &tag);
        }

        // A fingerprint mismatch (a smaller max-states bound here) must
        // refuse the checkpoint rather than silently resume the wrong
        // run — as a typed McError::Checkpoint, never a panic.
        let mismatch = new_checker()
            .threads(threads)
            .max_states(1_000_000)
            .checkpoint_dir(full_dir.path())
            .resume(true)
            .run();
        assert!(
            matches!(mismatch, Err(amx_sim::mc::McError::Checkpoint(_))),
            "{what}: resuming under an incompatible configuration must be refused \
             with a typed error, got {mismatch:?}"
        );
    }
}

#[test]
fn kill_and_resume_alg1_livelock() {
    // Invalid configuration: the resumed run must still converge on the
    // same fair-livelock witness schedule.
    kill_resume_roundtrip(
        || alg1(2, 2),
        &ResumeCase {
            what: "alg1(2,2)",
            model: MemoryModel::Rw,
            m: 2,
            adversary: Adversary::Identity,
            symmetry: Symmetry::Process,
            every: 3,
        },
    );
}

#[test]
fn kill_and_resume_alg1_rotations_wreath_livelock() {
    // Rotations make ρ ≠ id, so the wreath quotient records a
    // nontrivial group element on its edges and the orbit confirmation
    // reads them back from the restored rows.
    let case = ResumeCase {
        what: "alg1(3,3) rotations/wreath",
        model: MemoryModel::Rw,
        m: 3,
        adversary: Adversary::Rotations { stride: 1 },
        symmetry: Symmetry::Wreath,
        every: 4,
    };
    let report = ModelChecker::with_automata(alg1(3, 3), case.model, case.m, &case.adversary)
        .unwrap()
        .symmetry(case.symmetry)
        .run()
        .unwrap();
    assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
    assert_eq!(report.canonical_states, 8_371);
    kill_resume_roundtrip(|| alg1(3, 3), &case);
}

#[test]
fn kill_and_resume_spinners_livelock() {
    // A lone spinner already livelocks at depth 1, so later halts
    // restore the livelock component's rows from the checkpoint.
    kill_resume_roundtrip(
        || vec![SpinForever, SpinForever, SpinForever],
        &ResumeCase {
            what: "spin-forever x3",
            model: MemoryModel::Rw,
            m: 1,
            adversary: Adversary::Identity,
            symmetry: Symmetry::Off,
            every: 1,
        },
    );
}

#[test]
fn kill_and_resume_alg2_verifies() {
    kill_resume_roundtrip(
        || alg2(2, 3),
        &ResumeCase {
            what: "alg2(2,3)",
            model: MemoryModel::Rmw,
            m: 3,
            adversary: Adversary::Identity,
            symmetry: Symmetry::Process,
            every: 4,
        },
    );
}

#[test]
fn resume_without_checkpoint_starts_fresh() {
    let dir = TempDir::new("fresh");
    let report = ModelChecker::with_automata(alg2(2, 1), MemoryModel::Rmw, 1, &Adversary::Identity)
        .unwrap()
        .max_states(1_000_000)
        .symmetry(Symmetry::Process)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run()
        .unwrap();
    assert_eq!(report.resumed_from_level, None);
    assert_eq!(report.verdict, Verdict::Ok);
}

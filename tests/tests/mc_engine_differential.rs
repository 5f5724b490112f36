//! Differential validation of the work-stealing sharded frontier: a
//! multi-worker run must reproduce the sequential engine's verdicts and
//! counts on every automaton in this workspace.
//!
//! The contract under test:
//!
//! * the verdict kind is thread-count independent everywhere; state
//!   counts, transition counts, and the orbit accounting additionally
//!   so on completing (non-violating) runs;
//! * on completing runs the whole report is thread-count independent —
//!   witnesses, `max_pending_depth`, monitor and query results — except
//!   clocks, steal counts and the shard layout's byte figures, because
//!   the livelock pass numbers states in BFS discovery order;
//! * the compressed arena reports strictly fewer record bytes per
//!   state than the raw encodings it replaced.

use std::time::Duration;

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_props::predicate;
use amx_props::property::{monitor_for, scc_query_for};
use amx_registers::{Adversary, Permutation};
use amx_sim::mc::{CrashBudget, CrashMode, McReport, ModelChecker, Symmetry};
use amx_sim::toys::{CasLock, NaiveFlagLock, PetersonTwo, SpinForever};
use amx_sim::{Automaton, EncodeState, MemoryModel, Verdict};

fn alg1_automata(n: usize, m: usize) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(FreeSlotPolicy::FirstFree))
        .collect()
}

fn alg2_automata(n: usize, m: usize) -> Vec<Alg2Automaton> {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect()
}

/// Runs the same configuration sequentially and on 2, 3 and 4 workers
/// (the sharded frontier), under both
/// symmetry modes; checks the differential contract and returns the
/// sequential reduced report for extra assertions.
fn engine_differential<A, F>(make: F, model: MemoryModel, m: usize) -> McReport
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let run = |symmetry: Symmetry, threads: usize| {
        ModelChecker::with_automata(make(), model, m, &Adversary::Identity)
            .unwrap()
            .max_states(4_000_000)
            .symmetry(symmetry)
            .threads(threads)
            .run()
            .unwrap()
    };
    let mut reduced_seq = None;
    for symmetry in [Symmetry::Off, Symmetry::Process] {
        let seq = run(symmetry, 1);
        for threads in [2, 3, 4] {
            let par = run(symmetry, threads);
            assert_eq!(
                std::mem::discriminant(&seq.verdict),
                std::mem::discriminant(&par.verdict),
                "verdict kind diverged (symmetry {symmetry:?}, threads {threads}): \
                 {:?} vs {:?}",
                seq.verdict,
                par.verdict
            );
            if !matches!(seq.verdict, Verdict::MutualExclusionViolation { .. }) {
                // On completing runs (Ok / livelock) every level is
                // fully expanded regardless of scheduling, so all
                // counts are exact thread-count invariants.  Violating
                // runs abort mid-level — the sequential engine stops at
                // the first violating node while stealing workers
                // finish their share, so only the verdict is compared
                // there.
                assert_eq!(
                    seq.states, par.states,
                    "state count must be thread-invariant"
                );
                assert_eq!(seq.canonical_states, par.canonical_states);
                assert_eq!(seq.full_states_estimate, par.full_states_estimate);
                assert_eq!(seq.transitions, par.transitions);
                assert_eq!(seq.acquisitions, par.acquisitions);
            }
        }
        if symmetry == Symmetry::Process {
            reduced_seq = Some(seq);
        }
    }
    reduced_seq.expect("reduced run recorded")
}

#[test]
fn toys_parallel_engine_differential() {
    let r = engine_differential(
        || {
            let ids = PidPool::sequential().mint_many(3);
            ids.into_iter().map(CasLock::new).collect()
        },
        MemoryModel::Rmw,
        1,
    );
    assert_eq!(r.verdict, Verdict::Ok);

    engine_differential(
        || {
            let ids = PidPool::sequential().mint_many(2);
            ids.into_iter().map(NaiveFlagLock::new).collect()
        },
        MemoryModel::Rw,
        1,
    );

    let r = engine_differential(
        || vec![SpinForever, SpinForever, SpinForever],
        MemoryModel::Rw,
        1,
    );
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));

    engine_differential(
        || {
            let mut pool = PidPool::sequential();
            vec![
                PetersonTwo::new(pool.mint(), 0),
                PetersonTwo::new(pool.mint(), 1),
            ]
        },
        MemoryModel::Rw,
        3,
    );
}

#[test]
fn algorithms_parallel_engine_differential() {
    // Valid and invalid configurations of both paper algorithms.
    let r = engine_differential(|| alg1_automata(2, 3), MemoryModel::Rw, 3);
    assert_eq!(r.verdict, Verdict::Ok);
    let r = engine_differential(|| alg1_automata(2, 2), MemoryModel::Rw, 2);
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));
    let r = engine_differential(|| alg2_automata(2, 3), MemoryModel::Rmw, 3);
    assert_eq!(r.verdict, Verdict::Ok);
    let r = engine_differential(|| alg2_automata(2, 4), MemoryModel::Rmw, 4);
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));
    let r = engine_differential(|| alg2_automata(3, 2), MemoryModel::Rmw, 2);
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));
}

#[test]
fn forced_parallel_scc_livelock_witness_replays() {
    // A livelock found by a multi-worker run must still carry a valid
    // witness: replaying it
    // concretely is a legal, violation-free execution that completes no
    // workload (it leads into a completion-free component).
    use amx_sim::{Runner, Scheduler, Stop, Workload};
    let automata = alg1_automata(2, 2);
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 2, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Process)
            .threads(4)
            .run()
            .unwrap();
    let Verdict::FairLivelock {
        witness_schedule,
        scc_states,
        ..
    } = report.verdict
    else {
        panic!("expected livelock, got {:?}", report.verdict);
    };
    assert!(scc_states >= 1);
    let steps = witness_schedule.len() as u64;
    let rr = Runner::with_adversary(automata, MemoryModel::Rw, 2, &Adversary::Identity)
        .unwrap()
        .workload(Workload::unbounded())
        .scheduler(Scheduler::script(witness_schedule))
        .max_steps(steps)
        .run();
    assert!(
        matches!(rr.stop, Stop::StepBudgetExhausted | Stop::Stuck),
        "witness replay must stay violation-free, got {:?}",
        rr.stop
    );
}

#[test]
fn compressed_arena_beats_raw_encodings() {
    // The tentpole's memory claim, asserted: the compressed arena's
    // record+index bytes per canonical state must undercut the raw
    // encoding footprint (the old arena stored every state raw).
    let report = ModelChecker::with_automata(
        alg2_automata(2, 5),
        MemoryModel::Rmw,
        5,
        &Adversary::Identity,
    )
    .unwrap()
    .symmetry(Symmetry::Process)
    .run()
    .unwrap();
    assert_eq!(report.verdict, Verdict::Ok);
    // Raw would be ≥ (4 bytes per slot × 5 slots) + 2 processes ≥ 24
    // bytes per state before any index; require the compressed figure
    // (records + offset index) to be at least 30% under that floor's
    // realistic value, conservatively: under the raw slot bytes alone.
    let per_state = report.arena_bytes as f64 / report.canonical_states as f64;
    assert!(
        per_state < 24.0,
        "compressed arena too large: {per_state:.1} B/state"
    );
    assert!(report.seen_table_bytes > 0);
}

#[test]
fn steal_counter_is_consistent() {
    // steal_count is zero on sequential runs; on multi-worker runs it
    // depends on thread scheduling, so only the sequential invariant
    // is asserted exactly.
    let seq = ModelChecker::with_automata(
        alg2_automata(2, 3),
        MemoryModel::Rmw,
        3,
        &Adversary::Identity,
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(seq.steal_count, 0);
    assert_eq!(seq.threads, 1);
}

/// A report with the clocks, the worker count and the steal counter
/// zeroed, and — unless `layout` — the figures that depend on the shard
/// layout (arena and seen-table bytes, spill traffic) too, rendered
/// for comparison.
fn non_timing(report: &McReport, layout: bool) -> String {
    let mut r = report.clone();
    r.wall_time = Duration::ZERO;
    r.scc_wall_time = Duration::ZERO;
    r.threads = 0;
    r.steal_count = 0;
    if !layout {
        r.arena_bytes = 0;
        r.arena_resident_bytes = 0;
        r.arena_spilled_bytes = 0;
        r.spill_faults = 0;
        r.spill_evictions = 0;
        r.seen_table_bytes = 0;
    }
    format!("{r:#?}")
}

#[test]
fn whole_report_is_identical_at_one_two_and_three_threads() {
    // Alg 1 (2, 3) with one stale-claims crash, and Alg 2 (2, 4): each
    // has several livelock components, so which one the pass reports
    // first — its witness, size and query answers — depends on how
    // states are numbered.  One and several workers use different shard
    // layouts; two and three workers share the 64-shard one, so there
    // even the byte figures agree.
    let alg1_run = |threads: usize| {
        let spec = MutexSpec::rw_unchecked(2, 3);
        let mut pool = PidPool::sequential();
        let automata: Vec<Alg1Automaton> = (0..2)
            .map(|_| Alg1Automaton::new(spec, pool.mint()))
            .collect();
        let perms = vec![Permutation::identity(3); 2];
        let monitor = monitor_for(
            &predicate::by_name("writer-collision").unwrap(),
            &automata,
            &perms,
            false,
        );
        let query = scc_query_for(&predicate::by_name("full-view").unwrap(), &automata, &perms);
        ModelChecker::with_automata(automata, MemoryModel::Rw, 3, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .crashes(CrashBudget::total(1), CrashMode::StaleClaims)
            .monitor(monitor)
            .scc_query(query)
            .threads(threads)
            .run()
            .unwrap()
    };
    let alg2_run = |threads: usize| {
        ModelChecker::with_automata(
            alg2_automata(2, 4),
            MemoryModel::Rmw,
            4,
            &Adversary::Identity,
        )
        .unwrap()
        .threads(threads)
        .run()
        .unwrap()
    };
    for (what, run) in [
        (
            "alg1(2,3) stale crash",
            &alg1_run as &dyn Fn(usize) -> McReport,
        ),
        ("alg2(2,4)", &alg2_run),
    ] {
        let [one, two, three] = [1, 2, 3].map(run);
        assert!(
            matches!(one.verdict, Verdict::FairLivelock { .. }),
            "{what}: {:?}",
            one.verdict
        );
        assert_eq!(
            non_timing(&one, false),
            non_timing(&two, false),
            "{what}: 1 vs 2 threads"
        );
        assert_eq!(
            non_timing(&two, true),
            non_timing(&three, true),
            "{what}: 2 vs 3 threads"
        );
    }
}

//! The two model-checking workloads: Algorithm 1 at (n, m) = (3, 5),
//! checked for deadlock-freedom and fair livelock.
//!
//! The seed picks a register relabeling ρ ∈ S₅ applied on the left of
//! every adversary permutation (ρ ∘ f_i).  Relabeling physical
//! registers maps the state graph onto an isomorphic one, so verdict,
//! state counts and property hits are the same on every seed — the
//! exact checks hold whatever the seed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use amx_core::{Alg1Automaton, MutexSpec};
use amx_ids::PidPool;
use amx_props::predicate;
use amx_props::property::{monitor_for, scc_query_for};
use amx_registers::{Adversary, Permutation};
use amx_sim::{
    CrashBudget, CrashMode, McError, McReport, MemoryModel, ModelChecker, Symmetry, Verdict,
};

pub const N: usize = 3;
pub const M: usize = 5;

/// Resident budget of the out-of-core workload: far below its ~14 MB
/// arena, so pages spill and fault back in.
const OOC_RESIDENT_BUDGET: usize = 1 << 20;
const OOC_CHECKPOINT_EVERY: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ring adversary (id, c, c²), wreath symmetry, one thread, in
    /// memory.
    Ring,
    /// Identity adversary, one stale-claims crash, two threads, 1 MiB
    /// resident budget, checkpoints.
    Ooc,
}

/// The exact outputs a verification must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub verdict: &'static str,
    pub canonical: usize,
    pub full: usize,
    pub transitions: usize,
    pub monitor_hits: usize,
}

impl Kind {
    pub fn expected(self) -> Outputs {
        match self {
            Kind::Ring => Outputs {
                verdict: "ok",
                canonical: 244_623,
                full: 733_851,
                transitions: 733_869,
                monitor_hits: 7_161,
            },
            Kind::Ooc => Outputs {
                verdict: "fair-livelock",
                canonical: 643_991,
                full: 3_852_351,
                transitions: 2_295_676,
                monitor_hits: 22_341,
            },
        }
    }
}

/// The seed's register relabeling ρ ∈ S_m.
pub fn relabeling(m: usize, seed: u64) -> Permutation {
    Permutation::random(m, seed)
}

/// The workload's adversary permutations, relabeled by the seed's ρ.
pub fn permutations(kind: Kind, seed: u64) -> Vec<Permutation> {
    let base = match kind {
        Kind::Ring => {
            let c = Permutation::from_forward(vec![1, 2, 0, 3, 4]).expect("3-cycle on 5 points");
            vec![Permutation::identity(M), c.clone(), c.compose(&c)]
        }
        Kind::Ooc => vec![Permutation::identity(M); N],
    };
    let rho = relabeling(M, seed);
    base.iter().map(|p| rho.compose(p)).collect()
}

pub fn automata(n: usize, m: usize) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()))
        .collect()
}

/// A built checker plus the time its property compilation took.
pub struct Built {
    pub checker: ModelChecker<Alg1Automaton>,
    pub props_time: Duration,
}

/// Checker of Algorithm 1 at (n, m) under `perms`: wreath symmetry,
/// one worker, the `writer-collision` monitor, and the `full-view`
/// livelock query when `query` is set.
pub fn checker(n: usize, m: usize, perms: &[Permutation], query: bool) -> Built {
    let automata = automata(n, m);
    let adversary = Adversary::Explicit(perms.to_vec());
    let t = Instant::now();
    let monitor = monitor_for(
        &predicate::by_name("writer-collision").expect("built-in predicate"),
        &automata,
        perms,
        false,
    );
    let query = query.then(|| {
        scc_query_for(
            &predicate::by_name("full-view").expect("built-in predicate"),
            &automata,
            perms,
        )
    });
    let props_time = t.elapsed();
    let mut checker = ModelChecker::with_automata(automata, MemoryModel::Rw, m, &adversary)
        .expect("permutations match (n, m)")
        .symmetry(Symmetry::Wreath)
        .threads(1)
        .monitor(monitor);
    if let Some(q) = query {
        checker = checker.scc_query(q);
    }
    Built {
        checker,
        props_time,
    }
}

/// Builds the workload's checker: automata, adversary, monitor and
/// query.  `scratch` receives the spill files and checkpoints.
pub fn build(kind: Kind, perms: &[Permutation], scratch: &Path) -> Built {
    let mut b = checker(N, M, perms, kind == Kind::Ooc);
    if kind == Kind::Ooc {
        b.checker = b
            .checker
            .threads(2)
            .crashes(CrashBudget::total(1), CrashMode::StaleClaims)
            .resident_budget(OOC_RESIDENT_BUDGET)
            .spill_dir(scratch.to_path_buf())
            .checkpoint_dir(checkpoint_dir(scratch))
            .checkpoint_every(OOC_CHECKPOINT_EVERY);
    }
    b
}

pub fn checkpoint_dir(scratch: &Path) -> PathBuf {
    scratch.join("ckpt")
}

pub fn verdict_tag(v: &Verdict) -> &'static str {
    match v {
        Verdict::Ok => "ok",
        Verdict::MutualExclusionViolation { .. } => "mutex-violation",
        Verdict::FairLivelock { .. } => "fair-livelock",
        Verdict::PropertyViolation { .. } => "property-violation",
        Verdict::Interrupted { .. } => "interrupted",
    }
}

pub fn outputs_of(rep: &McReport) -> Outputs {
    Outputs {
        verdict: verdict_tag(&rep.verdict),
        canonical: rep.canonical_states,
        full: rep.full_states_estimate,
        transitions: rep.transitions,
        monitor_hits: rep.monitors.first().map_or(0, |m| m.hit_states),
    }
}

/// Every way the run's outputs differ from what `kind` must produce
/// (empty = correct).  A degraded run (spill or checkpoint fell back)
/// counts as wrong too: it did not exercise the layers the workload is
/// for.
///
/// The `full-view` query's answer is not compared with a fixed value:
/// `verify-ooc` has several livelock components, the engine reports the
/// first in its own node order, and that order moves with the seed's
/// relabeling.  Most seeds get a one-state component where the query
/// holds, seed 209 a one-state component where it does not.  So the
/// check is that
/// the query was answered once, over a non-empty component, with its
/// flags agreeing with its counts; the answer is the traced run's
/// `props.query_outcome`.
pub fn mismatches(kind: Kind, res: &Result<McReport, McError>) -> Vec<String> {
    let expected = kind.expected();
    let rep = match res {
        Ok(rep) => rep,
        Err(e) => return vec![format!("run failed: {e}")],
    };
    let got = outputs_of(rep);
    let mut out = Vec::new();
    if got != expected {
        out.push(format!(
            "outputs {got:?} ({:?}, queries {:?}), expected {expected:?}",
            rep.verdict, rep.scc_queries
        ));
    }
    let queries_ok = match (kind, rep.scc_queries.as_slice()) {
        (Kind::Ring, []) => true,
        (Kind::Ooc, [q]) => {
            q.states_examined > 0
                && q.hit_states <= q.states_examined
                && q.holds_somewhere == (q.hit_states > 0)
                && q.holds_everywhere == (q.hit_states == q.states_examined)
        }
        _ => false,
    };
    if !queries_ok {
        out.push(format!("query answers {:?}", rep.scc_queries));
    }
    for d in &rep.degraded {
        out.push(format!("degraded: {d}"));
    }
    out
}

/// Bytes under `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two seeds relabel the registers differently, yet every exact
    /// output matches the expected values on both workloads.
    #[test]
    fn two_seeds_give_identical_exact_outputs() {
        for kind in [Kind::Ring, Kind::Ooc] {
            let a = permutations(kind, 1);
            let b = permutations(kind, 2);
            assert_ne!(a, b, "the seeds pick different relabelings");
            let mut got = Vec::new();
            for (i, perms) in [a, b].iter().enumerate() {
                let scratch = crate::scratch_dir(&format!("test-verify-{kind:?}-{i}")).unwrap();
                let res = build(kind, perms, &scratch).checker.run();
                let _ = std::fs::remove_dir_all(&scratch);
                assert_eq!(mismatches(kind, &res), Vec::<String>::new());
                got.push(outputs_of(&res.expect("run succeeds")));
            }
            assert_eq!(got[0], got[1]);
        }
    }
}

//! Per-layer probes of the traced run: each times one layer's public
//! functions directly on inputs made from the workload's own
//! configuration, and checks what they return.

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use amx_props::graph;
use amx_registers::{Adversary, Permutation};
use amx_sim::intern::{anon_spill_file, hash_bytes, StateArena};
use amx_sim::scc::{self, NO_EDGE};
use amx_sim::{closed_loop_step, encode, Automaton, EncodeState, MemoryModel, Phase, SimMemory};

use crate::lockrun::splitmix;
use crate::verify;

/// Distinct encodings the arena replay interns.
const REPLAY_STATES: usize = 100_000;
/// Resident budget of the spilled replay: a few pages, so nearly every
/// read faults a page back in.
const REPLAY_SPILL_BUDGET: usize = 16 << 10;

/// Encodings of the first states of Algorithm 1 at (n, m) under
/// `perms`, in breadth-first order (as the checker meets them), up to
/// [`REPLAY_STATES`].  States are stepped with `closed_loop_step` over a
/// `SimMemory` and encoded as the slots, then each process's phase and
/// state — the fields the checker's own encoding has.  The seed
/// shuffles the order in which each state's successors are generated.
pub fn bfs_encodings(perms: &[Permutation], m: usize, seed: u64) -> Vec<Vec<u8>> {
    let n = perms.len();
    let automata = verify::automata(n, m);
    let adversary = Adversary::Explicit(perms.to_vec());
    let mut mem = SimMemory::new(MemoryModel::Rw, m, &adversary, n).expect("perms match (n, m)");
    let init: Vec<(Phase, _)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    let encode = |mem: &SimMemory, procs: &[(Phase, _)]| {
        let mut buf = Vec::new();
        mem.encode_slots_into(&mut buf);
        for (phase, state) in procs {
            encode::put_u8(*phase as u8, &mut buf);
            EncodeState::encode(state, &mut buf);
        }
        buf
    };
    let mut rng = seed;
    let first = encode(&mem, &init);
    let mut seen = HashSet::from([first.clone()]);
    let mut out = vec![first];
    let mut queue = VecDeque::from([(mem.slots().to_vec(), init)]);
    let mut actors: Vec<usize> = (0..n).collect();
    while let Some((slots, procs)) = queue.pop_front() {
        for i in (1..n).rev() {
            actors.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
        }
        for &k in &actors {
            if out.len() == REPLAY_STATES {
                return out;
            }
            mem.restore(&slots);
            let mut next = procs.clone();
            let (phase, state) = &mut next[k];
            closed_loop_step(&automata[k], phase, state, &mut mem.view(k));
            let bytes = encode(&mem, &next);
            if seen.insert(bytes.clone()) {
                out.push(bytes);
                queue.push_back((mem.slots().to_vec(), next));
            }
        }
    }
    out
}

/// Mean nanoseconds per call of each arena operation.
#[derive(Debug, Clone, Copy)]
pub struct ArenaTimes {
    pub states: usize,
    pub intern_ns: f64,
    pub lookup_ns: f64,
    pub get_ns: f64,
    pub get_spilled_ns: f64,
    /// Reads whose bytes differ from what was interned, plus interns
    /// and lookups that returned the wrong index.
    pub mismatches: usize,
}

fn per_call(d: Duration, calls: usize) -> f64 {
    d.as_nanos() as f64 / calls.max(1) as f64
}

/// Replays `keys` through `StateArena::intern_hashed`, `lookup_hashed`
/// and `get_into` (in a seeded shuffled order), then reads them back
/// once more from an arena whose pages are spilled to a file in
/// `scratch`.
pub fn arena_replay(keys: &[Vec<u8>], seed: u64, scratch: &Path) -> std::io::Result<ArenaTimes> {
    let hashes: Vec<u64> = keys.iter().map(|k| hash_bytes(k)).collect();
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    let mut rng = seed;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    let mut mismatches = 0;

    let mut arena = StateArena::new();
    let t = Instant::now();
    for (i, k) in keys.iter().enumerate() {
        let (idx, fresh) = arena
            .intern_hashed(hashes[i], k)
            .map_err(std::io::Error::other)?;
        mismatches += usize::from(idx as usize != i || !fresh);
    }
    let intern = t.elapsed();

    let t = Instant::now();
    for &i in &order {
        let got = arena
            .lookup_hashed(hashes[i as usize], &keys[i as usize])
            .map_err(std::io::Error::other)?;
        mismatches += usize::from(got != Some(i));
    }
    let lookup = t.elapsed();

    let read_back = |arena: &StateArena, mismatches: &mut usize| -> std::io::Result<Duration> {
        let mut out = Vec::new();
        let t = Instant::now();
        for &i in &order {
            arena.get_into(i, &mut out).map_err(std::io::Error::other)?;
            *mismatches += usize::from(out != keys[i as usize]);
        }
        Ok(t.elapsed())
    };
    let get = read_back(&arena, &mut mismatches)?;

    std::fs::create_dir_all(scratch)?;
    arena.set_spill(anon_spill_file(scratch)?, REPLAY_SPILL_BUDGET);
    let get_spilled = read_back(&arena, &mut mismatches)?;

    Ok(ArenaTimes {
        states: keys.len(),
        intern_ns: per_call(intern, keys.len()),
        lookup_ns: per_call(lookup, keys.len()),
        get_ns: per_call(get, keys.len()),
        get_spilled_ns: per_call(get_spilled, keys.len()),
        mismatches,
    })
}

/// Seconds per decomposition of each SCC algorithm, and whether the two
/// found the same components.
#[derive(Debug, Clone, Copy)]
pub struct SccTimes {
    pub nodes: usize,
    pub tarjan_s: f64,
    pub fwbw_s: f64,
    pub agree: bool,
}

/// Decomposition repetitions per algorithm; the median is reported.
const SCC_REPS: usize = 5;

/// Times `scc::tarjan_sccs_csr` and `scc::parallel_sccs(…, 2)` on the
/// completion-free successor table (the graph the livelock pass
/// decomposes) of Algorithm 1 at (n, m) under `perms`, explored by the
/// naive `amx_props::graph::explore`.
pub fn scc_probe(perms: &[Permutation], m: usize) -> SccTimes {
    let n = perms.len();
    let g = graph::explore(
        &verify::automata(n, m),
        MemoryModel::Rw,
        m,
        &Adversary::Explicit(perms.to_vec()),
        500_000,
    )
    .expect("probe configuration fits the naive explorer");
    let succ: Vec<u32> = g
        .succ
        .iter()
        .zip(&g.completed)
        .map(|(&w, &done)| if done { NO_EDGE } else { w })
        .collect();
    let canon = |mut c: Vec<Vec<u32>>| {
        for s in &mut c {
            s.sort_unstable();
        }
        c.sort();
        c
    };
    let mut tarjan = Vec::new();
    let mut fwbw = Vec::new();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..SCC_REPS {
        let t = Instant::now();
        a = std::hint::black_box(scc::tarjan_sccs_csr(g.len(), n, &succ));
        tarjan.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b = std::hint::black_box(scc::parallel_sccs(g.len(), n, &succ, 2));
        fwbw.push(t.elapsed().as_secs_f64());
    }
    SccTimes {
        nodes: g.len(),
        tarjan_s: crate::stats::median(&tarjan),
        fwbw_s: crate::stats::median(&fwbw),
        agree: canon(a) == canon(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arena hands back exactly the bytes it interned, resident and
    /// spilled.
    #[test]
    fn arena_replay_reads_back_what_it_interned() {
        let perms = verify::permutations(verify::Kind::Ring, 3);
        let keys = bfs_encodings(&perms, verify::M, 3);
        assert_eq!(keys.len(), REPLAY_STATES);
        let scratch = crate::scratch_dir("test-arena").unwrap();
        let t = arena_replay(&keys, 3, &scratch).expect("replay I/O");
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(t.mismatches, 0);
    }

    #[test]
    fn scc_algorithms_agree_on_the_probe_graph() {
        let perms = verify::permutations(verify::Kind::Ring, 5);
        let t = scc_probe(&perms[..2], verify::M);
        assert!(t.agree && t.nodes > 100);
    }
}

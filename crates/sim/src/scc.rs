//! Strongly-connected components over the model checker's state graphs.
//!
//! Two engines over one graph representation:
//!
//! * [`tarjan`] — iterative single-pass Tarjan, generic over an implicit
//!   successor function.  Exact, sequential and deterministic: it
//!   returns the partition flat ([`Components`]: a component id per
//!   node plus a members CSR), with components numbered in the order
//!   Tarjan emits them, reverse topological.  The model checker's
//!   fair-livelock pass uses it on every run.  [`tarjan_sccs`] and
//!   [`tarjan_sccs_csr`] wrap it into one `Vec` per component.
//! * [`parallel_sccs`] — a forward–backward (FW–BW) decomposition with
//!   region coloring and trimming over a pool of workers.  Pick a
//!   pivot, compute its forward and backward reachable sets inside the
//!   current region; the intersection is one SCC, and the three
//!   remainders (forward-only, backward-only, untouched) are
//!   independent subproblems.  Regions below [`SEQ_REGION`] nodes fall
//!   back to sequential Tarjan.  The model checker no longer calls it:
//!   on its completion-free graphs, whose components are almost all
//!   singletons, it measured slower than one Tarjan pass.
//!
//! Both operate on the same dense out-edge table ("CSR" here): a
//! `Vec<u32>` of `n * d` entries where entry `v * d + k` is the target
//! of node `v`'s `k`-th edge, or [`NO_EDGE`] when that edge is filtered
//! out (the fair-livelock pass filters completion edges).  The model
//! checker records that table during exploration, so decomposition
//! never steps an automaton.
//!
//! The component *partition* the two engines compute is identical (it
//! is a property of the graph); only the emission order differs, which
//! callers needing determinism normalize by sorting.

use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Sentinel for a filtered-out edge slot in the dense out-edge table.
pub const NO_EDGE: u32 = u32::MAX;

/// Regions at or below this size are finished with sequential Tarjan
/// instead of further FW–BW splitting.
const SEQ_REGION: usize = 8_192;

/// Marks an unvisited node (`index`) or an unassigned one (`comp`).
const NONE: u32 = u32::MAX;

/// A graph's strongly-connected components in flat form: no heap
/// allocation per component, which matters on graphs whose components
/// are almost all singletons.
#[derive(Debug)]
pub struct Components {
    /// Component id of every node.
    comp: Vec<u32>,
    /// Component `c`'s members are `members[starts[c]..starts[c + 1]]`;
    /// `starts` has one entry more than there are components.
    starts: Vec<u32>,
    /// Every node once, grouped by component.
    members: Vec<u32>,
}

impl Components {
    /// Component id of every node.
    #[must_use]
    pub fn comp(&self) -> &[u32] {
        &self.comp
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` when the graph has no node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The members of component `c`.
    #[must_use]
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// The components in id order, as one `Vec` each.
    #[must_use]
    pub fn to_nested(&self) -> Vec<Vec<u32>> {
        (0..self.len()).map(|c| self.members(c).to_vec()).collect()
    }
}

/// Iterative Tarjan strongly-connected components over an implicit
/// graph: node `v`'s candidate successors are `succ(v, k)` for
/// `k < out_degree`, with `None` meaning "edge filtered out".
///
/// Components are numbered in emission order, which is reverse
/// topological; each one lists its members in the order they leave
/// Tarjan's stack.  A node is on that stack exactly while it is
/// visited and not yet assigned a component, so no separate flag is
/// kept, and a node's lowlink lives in its call frame only.
pub fn tarjan(
    n: usize,
    out_degree: usize,
    mut succ: impl FnMut(u32, usize) -> Option<u32>,
) -> Components {
    #[derive(Clone, Copy)]
    struct Frame {
        v: u32,
        edge: usize,
        low: u32,
    }

    let mut index = vec![NONE; n];
    let mut comp = vec![NONE; n];
    let mut starts = vec![0u32];
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut call_stack: Vec<Frame> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != NONE {
            continue;
        }
        index[root as usize] = next_index;
        call_stack.push(Frame {
            v: root,
            edge: 0,
            low: next_index,
        });
        next_index += 1;
        stack.push(root);

        while let Some(frame) = call_stack.last_mut() {
            let v = frame.v;
            if frame.edge < out_degree {
                let k = frame.edge;
                frame.edge += 1;
                let Some(w) = succ(v, k) else { continue };
                let wi = index[w as usize];
                if wi == NONE {
                    index[w as usize] = next_index;
                    call_stack.push(Frame {
                        v: w,
                        edge: 0,
                        low: next_index,
                    });
                    next_index += 1;
                    stack.push(w);
                } else if comp[w as usize] == NONE {
                    frame.low = frame.low.min(wi);
                }
            } else {
                let low = frame.low;
                call_stack.pop();
                if let Some(parent) = call_stack.last_mut() {
                    parent.low = parent.low.min(low);
                }
                if low == index[v as usize] {
                    let c = starts.len() as u32 - 1;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        comp[w as usize] = c;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    starts.push(members.len() as u32);
                }
            }
        }
    }
    Components {
        comp,
        starts,
        members,
    }
}

/// [`tarjan`] over a dense out-edge table ([`NO_EDGE`]-filtered).
#[must_use]
pub fn tarjan_csr(n: usize, d: usize, succ: &[u32]) -> Components {
    debug_assert_eq!(succ.len(), n * d);
    tarjan(n, d, |v, k| {
        let w = succ[v as usize * d + k];
        (w != NO_EDGE).then_some(w)
    })
}

/// [`tarjan`] with one `Vec` per component, in emission order.
pub fn tarjan_sccs(
    n: usize,
    out_degree: usize,
    succ: impl FnMut(u32, usize) -> Option<u32>,
) -> Vec<Vec<u32>> {
    tarjan(n, out_degree, succ).to_nested()
}

/// [`tarjan_csr`] with one `Vec` per component, in emission order.
pub fn tarjan_sccs_csr(n: usize, d: usize, succ: &[u32]) -> Vec<Vec<u32>> {
    tarjan_csr(n, d, succ).to_nested()
}

/// One FW–BW subproblem: a region id, its member nodes, and how many
/// pivot splits produced it.
struct Task {
    rid: u32,
    members: Vec<u32>,
    depth: u8,
}

/// Regions produced by this many splits are finished with sequential
/// Tarjan no matter their size.  Model-checking quotient graphs keep
/// their nontrivial SCCs as ~10⁵ tiny scattered cycles joined by DAG
/// tissue that survives trimming; each pivot split sheds only one such
/// cycle plus whatever the partition happens to separate, so unbounded
/// recursion would degrade to O(splits · edges).  A few splits create
/// plenty of independent regions for the worker pool; Tarjan cleans up
/// whatever resists decomposition in O(edges).
const MAX_SPLIT_DEPTH: u8 = 4;

/// Region label for trimmed (already-emitted) nodes; no task ever
/// carries this id, so trimmed nodes fail every `in_region` filter.
const DEAD: u32 = u32::MAX;

/// Everything the FW–BW workers share.
struct FwBw<'a> {
    d: usize,
    succ: &'a [u32],
    roff: &'a [u32],
    radj: &'a [u32],
    /// Current region id of every node; regions partition the graph, so
    /// concurrent tasks touch disjoint entries (atomics for aliasing,
    /// `Relaxed` everywhere).
    region: Vec<AtomicU32>,
    /// Per-node scratch bits: bit 0 = forward-reached, bit 1 =
    /// backward-reached.  Only a node's owning task reads or writes its
    /// flags, and it clears them before splitting the region.
    flags: Vec<AtomicU8>,
    /// Per-node in/out degree scratch for the trim phase; like `flags`,
    /// only the owning task touches a node's entries.
    deg_in: Vec<AtomicU32>,
    deg_out: Vec<AtomicU32>,
    /// Per-node region-local index scratch for the Tarjan finish; only
    /// the owning task touches a node's entry.
    local: Vec<AtomicU32>,
    queue: Mutex<Vec<Task>>,
    idle: Condvar,
    /// Tasks queued or in flight; workers exit when it reaches zero.
    pending: AtomicUsize,
    next_region: AtomicU32,
    out: Mutex<Vec<Vec<u32>>>,
}

impl FwBw<'_> {
    fn in_region(&self, v: u32, rid: u32) -> bool {
        self.region[v as usize].load(Ordering::Relaxed) == rid
    }

    fn push_task(&self, task: Task) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.queue.lock().expect("fwbw queue poisoned").push(task);
        self.idle.notify_one();
    }

    /// Reachability sweep from `pivot` within region `rid`, over either
    /// the forward or the reverse adjacency, marking `bit` on every
    /// node reached.
    fn sweep(&self, pivot: u32, rid: u32, bit: u8, forward: bool, stack: &mut Vec<u32>) {
        stack.clear();
        stack.push(pivot);
        self.flags[pivot as usize].fetch_or(bit, Ordering::Relaxed);
        while let Some(v) = stack.pop() {
            let push = |w: u32, stack: &mut Vec<u32>| {
                if self.in_region(w, rid)
                    && self.flags[w as usize].fetch_or(bit, Ordering::Relaxed) & bit == 0
                {
                    stack.push(w);
                }
            };
            if forward {
                for k in 0..self.d {
                    let w = self.succ[v as usize * self.d + k];
                    if w != NO_EDGE {
                        push(w, stack);
                    }
                }
            } else {
                for i in self.roff[v as usize]..self.roff[v as usize + 1] {
                    push(self.radj[i as usize], stack);
                }
            }
        }
    }

    /// Tarjan over the subgraph induced by a region's members, mapping
    /// node ids through a region-local dense index.
    fn finish_with_tarjan(&self, rid: u32, members: &[u32]) {
        for (li, &v) in members.iter().enumerate() {
            self.local[v as usize].store(li as u32, Ordering::Relaxed);
        }
        let sccs = tarjan_sccs(members.len(), self.d, |lv, k| {
            let w = self.succ[members[lv as usize] as usize * self.d + k];
            if w == NO_EDGE || !self.in_region(w, rid) {
                return None;
            }
            Some(self.local[w as usize].load(Ordering::Relaxed))
        });
        let mut out = self.out.lock().expect("fwbw out poisoned");
        out.extend(
            sccs.into_iter()
                .map(|scc| scc.into_iter().map(|lv| members[lv as usize]).collect()),
        );
    }

    fn process(&self, task: Task, stack: &mut Vec<u32>) {
        let Task {
            rid,
            mut members,
            depth,
        } = task;

        // --- Trim: iteratively peel nodes with no in- or no out-edge
        // inside the region; each is a trivial SCC.  The model
        // checker's completion-free quotient graphs are overwhelmingly
        // acyclic (2.2M of 2.3M components on the Alg 2 deep point are
        // trivial), and a pivot split sheds only a sliver of such a
        // graph — without trimming, the recursion degenerates to
        // O(depth · edges).
        for &v in &members {
            let (mut din, mut dout) = (0u32, 0u32);
            for k in 0..self.d {
                let w = self.succ[v as usize * self.d + k];
                if w != NO_EDGE && self.in_region(w, rid) {
                    dout += 1;
                }
            }
            for i in self.roff[v as usize]..self.roff[v as usize + 1] {
                if self.in_region(self.radj[i as usize], rid) {
                    din += 1;
                }
            }
            self.deg_in[v as usize].store(din, Ordering::Relaxed);
            self.deg_out[v as usize].store(dout, Ordering::Relaxed);
        }
        stack.clear();
        for &v in &members {
            if self.deg_in[v as usize].load(Ordering::Relaxed) == 0
                || self.deg_out[v as usize].load(Ordering::Relaxed) == 0
            {
                self.region[v as usize].store(DEAD, Ordering::Relaxed);
                stack.push(v);
            }
        }
        let mut trimmed: Vec<Vec<u32>> = Vec::new();
        while let Some(v) = stack.pop() {
            trimmed.push(vec![v]);
            for k in 0..self.d {
                let w = self.succ[v as usize * self.d + k];
                if w != NO_EDGE
                    && self.in_region(w, rid)
                    && self.deg_in[w as usize].fetch_sub(1, Ordering::Relaxed) == 1
                {
                    self.region[w as usize].store(DEAD, Ordering::Relaxed);
                    stack.push(w);
                }
            }
            for i in self.roff[v as usize]..self.roff[v as usize + 1] {
                let w = self.radj[i as usize];
                if self.in_region(w, rid)
                    && self.deg_out[w as usize].fetch_sub(1, Ordering::Relaxed) == 1
                {
                    self.region[w as usize].store(DEAD, Ordering::Relaxed);
                    stack.push(w);
                }
            }
        }
        if !trimmed.is_empty() {
            self.out.lock().expect("fwbw out poisoned").extend(trimmed);
            members.retain(|&v| self.region[v as usize].load(Ordering::Relaxed) == rid);
        }
        if members.is_empty() {
            return;
        }

        if members.len() <= SEQ_REGION || depth >= MAX_SPLIT_DEPTH {
            self.finish_with_tarjan(rid, &members);
            return;
        }

        let pivot = members[0];
        self.sweep(pivot, rid, 1, true, stack);
        self.sweep(pivot, rid, 2, false, stack);

        let mut scc = Vec::new();
        let mut fwd_only = Vec::new();
        let mut bwd_only = Vec::new();
        let mut rest = Vec::new();
        for &v in &members {
            let f = self.flags[v as usize].load(Ordering::Relaxed);
            self.flags[v as usize].store(0, Ordering::Relaxed);
            match f & 3 {
                3 => scc.push(v),
                1 => fwd_only.push(v),
                2 => bwd_only.push(v),
                _ => rest.push(v),
            }
        }
        debug_assert!(scc.contains(&pivot));
        self.out.lock().expect("fwbw out poisoned").push(scc);
        for sub in [fwd_only, bwd_only, rest] {
            if sub.is_empty() {
                continue;
            }
            let nrid = self.next_region.fetch_add(1, Ordering::Relaxed);
            for &v in &sub {
                self.region[v as usize].store(nrid, Ordering::Relaxed);
            }
            self.push_task(Task {
                rid: nrid,
                members: sub,
                depth: depth + 1,
            });
        }
    }

    fn worker(&self) {
        let mut stack = Vec::new();
        loop {
            let task = {
                let mut q = self.queue.lock().expect("fwbw queue poisoned");
                loop {
                    if let Some(t) = q.pop() {
                        break Some(t);
                    }
                    if self.pending.load(Ordering::Acquire) == 0 {
                        break None;
                    }
                    q = self.idle.wait(q).expect("fwbw queue poisoned");
                }
            };
            let Some(task) = task else {
                // Wake any sleeper so it can observe pending == 0 too.
                self.idle.notify_all();
                return;
            };
            self.process(task, &mut stack);
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.idle.notify_all();
            }
        }
    }
}

/// Strongly-connected components of a dense out-edge table via
/// parallel forward–backward decomposition.
///
/// Equivalent to [`tarjan_sccs_csr`] up to component order (the
/// emission order depends on scheduling; sort the result for a
/// deterministic traversal).  Intended for graphs large enough that
/// the caller wants the decomposition spread over `threads` workers;
/// for anything below a few times [`SEQ_REGION`] nodes, sequential
/// Tarjan is the better call.
#[must_use]
pub fn parallel_sccs(n: usize, d: usize, succ: &[u32], threads: usize) -> Vec<Vec<u32>> {
    debug_assert_eq!(succ.len(), n * d);
    if n == 0 {
        return Vec::new();
    }
    // Reverse adjacency, CSR-packed: counting pass, prefix sum, fill.
    let mut roff = vec![0u32; n + 1];
    for &w in succ {
        if w != NO_EDGE {
            roff[w as usize + 1] += 1;
        }
    }
    for v in 0..n {
        roff[v + 1] += roff[v];
    }
    let mut radj = vec![0u32; roff[n] as usize];
    let mut cursor: Vec<u32> = roff[..n].to_vec();
    for v in 0..n {
        for k in 0..d {
            let w = succ[v * d + k];
            if w != NO_EDGE {
                radj[cursor[w as usize] as usize] = v as u32;
                cursor[w as usize] += 1;
            }
        }
    }

    let shared = FwBw {
        d,
        succ,
        roff: &roff,
        radj: &radj,
        region: (0..n).map(|_| AtomicU32::new(0)).collect(),
        flags: (0..n).map(|_| AtomicU8::new(0)).collect(),
        deg_in: (0..n).map(|_| AtomicU32::new(0)).collect(),
        deg_out: (0..n).map(|_| AtomicU32::new(0)).collect(),
        local: (0..n).map(|_| AtomicU32::new(0)).collect(),
        queue: Mutex::new(Vec::new()),
        idle: Condvar::new(),
        pending: AtomicUsize::new(0),
        next_region: AtomicU32::new(1),
        out: Mutex::new(Vec::new()),
    };
    shared.push_task(Task {
        rid: 0,
        members: (0..n as u32).collect(),
        depth: 0,
    });
    let workers = threads.max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let shared = &shared;
                s.spawn(move || shared.worker())
            })
            .collect();
        for h in handles {
            h.join().expect("fwbw worker panicked");
        }
    });
    shared.out.into_inner().expect("fwbw out poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalizes a component list into a canonical partition.
    fn normalize(mut sccs: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        for s in &mut sccs {
            s.sort_unstable();
        }
        sccs.sort();
        sccs
    }

    /// Tiny deterministic LCG so random-graph tests need no rng crate.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }
    }

    fn random_csr(seed: u64, n: usize, d: usize, edge_density_pct: u64) -> Vec<u32> {
        let mut rng = Lcg(seed);
        let mut succ = vec![NO_EDGE; n * d];
        for slot in &mut succ {
            if rng.next() % 100 < edge_density_pct {
                *slot = (rng.next() % n as u64) as u32;
            }
        }
        succ
    }

    /// The nested-list Tarjan the flat one replaced, kept as the
    /// reference for emission and member order.
    fn nested_tarjan_oracle(
        n: usize,
        out_degree: usize,
        mut succ: impl FnMut(u32, usize) -> Option<u32>,
    ) -> Vec<Vec<u32>> {
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        let mut call_stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != u32::MAX {
                continue;
            }
            call_stack.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(frame) = call_stack.last_mut() {
                let v = frame.0;
                if frame.1 < out_degree {
                    let k = frame.1;
                    frame.1 += 1;
                    let Some(w) = succ(v, k) else { continue };
                    if index[w as usize] == u32::MAX {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(p, _)) = call_stack.last() {
                        lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }

    /// Flat Tarjan emits exactly the oracle's components, in the same
    /// order and with members in the same order, and its `comp` ids
    /// agree with the member lists.
    fn assert_flat_matches_oracle(n: usize, d: usize, succ: &[u32]) {
        let flat = tarjan_csr(n, d, succ);
        let oracle = nested_tarjan_oracle(n, d, |v, k| {
            let w = succ[v as usize * d + k];
            (w != NO_EDGE).then_some(w)
        });
        assert_eq!(flat.to_nested(), oracle, "n {n}, d {d}");
        assert_eq!(flat.members.len(), n);
        for c in 0..flat.len() {
            assert!(flat
                .members(c)
                .iter()
                .all(|&v| flat.comp()[v as usize] == c as u32));
        }
    }

    #[test]
    fn flat_tarjan_reproduces_the_nested_order() {
        // The hand-built graphs of the tests below…
        assert_flat_matches_oracle(4, 1, &[1, 2, 0, NO_EDGE]);
        assert_flat_matches_oracle(3, 1, &[1, 2, NO_EDGE]);
        assert_flat_matches_oracle(3, 2, &[1, NO_EDGE, 0, NO_EDGE, NO_EDGE, NO_EDGE]);
        assert_flat_matches_oracle(9, 1, &[1, 2, 0, 4, 5, 3, 7, 8, NO_EDGE]);
        assert_flat_matches_oracle(0, 2, &[]);
        // …and the random ones.
        for seed in 0..12u64 {
            let n = 50 + (seed as usize * 97) % 400;
            let d = 1 + (seed as usize) % 4;
            assert_flat_matches_oracle(n, d, &random_csr(seed, n, d, 60));
        }
        let n = 4 * SEQ_REGION;
        assert_flat_matches_oracle(n, 2, &random_csr(0xC0FFEE, n, 2, 70));
    }

    #[test]
    fn tarjan_handles_simple_graphs() {
        // 0 → 1 → 2 → 0 (one SCC), 3 isolated.
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![0], vec![]];
        let sccs = normalize(tarjan_sccs(4, 1, |v, k| adj[v as usize].get(k).copied()));
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
    }

    #[test]
    fn tarjan_chain_has_singleton_components() {
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![]];
        let sccs = tarjan_sccs(3, 1, |v, k| adj[v as usize].get(k).copied());
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn csr_wrapper_filters_no_edge() {
        // 0 → 1, 1 → 0, 2 has only a filtered slot.
        let succ = vec![1, NO_EDGE, 0, NO_EDGE, NO_EDGE, NO_EDGE];
        let sccs = normalize(tarjan_sccs_csr(3, 2, &succ));
        assert_eq!(sccs, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn parallel_matches_tarjan_on_random_graphs() {
        for seed in 0..12u64 {
            let n = 50 + (seed as usize * 97) % 400;
            let d = 1 + (seed as usize) % 4;
            let succ = random_csr(seed, n, d, 60);
            let seq = normalize(tarjan_sccs_csr(n, d, &succ));
            for threads in [1usize, 4] {
                let par = normalize(parallel_sccs(n, d, &succ, threads));
                assert_eq!(seq, par, "seed {seed}, n {n}, d {d}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_matches_tarjan_beyond_the_sequential_cutoff() {
        // Big enough that the initial region must go through at least
        // one genuine FW–BW split before Tarjan finishes the leaves.
        let n = 4 * SEQ_REGION;
        let d = 2;
        let succ = random_csr(0xC0FFEE, n, d, 70);
        let seq = normalize(tarjan_sccs_csr(n, d, &succ));
        let par = normalize(parallel_sccs(n, d, &succ, 4));
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_handles_structured_graphs() {
        // Two disjoint cycles bridged one way, plus a tail: components
        // and sizes are known exactly.
        let n = 9;
        let d = 1;
        let mut succ = vec![NO_EDGE; n * d];
        // cycle A: 0→1→2→0; bridge 2→3 is the *second* edge — d = 1, so
        // instead: cycle B: 3→4→5→3; tail 6→7→8.
        succ[0] = 1;
        succ[1] = 2;
        succ[2] = 0;
        succ[3] = 4;
        succ[4] = 5;
        succ[5] = 3;
        succ[6] = 7;
        succ[7] = 8;
        let expect = normalize(vec![
            vec![0, 1, 2],
            vec![3, 4, 5],
            vec![6],
            vec![7],
            vec![8],
        ]);
        assert_eq!(normalize(tarjan_sccs_csr(n, d, &succ)), expect);
        assert_eq!(normalize(parallel_sccs(n, d, &succ, 3)), expect);
    }

    #[test]
    fn empty_graph_is_fine() {
        assert!(tarjan_sccs_csr(0, 2, &[]).is_empty());
        assert!(parallel_sccs(0, 2, &[], 4).is_empty());
    }
}

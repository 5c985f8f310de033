//! Ball–Larus path numbering with path cutting, over a call-aware
//! profiling CFG.
//!
//! The paper's tracing profiler (Sec. 6.1) builds on an IR-level
//! path-profiling technique with a *path-cutting* optimization that keeps
//! the number of paths tractable and, crucially, lets the trace interleave
//! runtime values (object identifiers) with statically known event
//! sequences: "each path ID (associated with a fixed sequence of events)
//! determines how many object identifiers are stored after the path ID"
//! (Sec. 6.1).
//!
//! We reproduce this as follows:
//!
//! * Each method body is re-expressed as a **profiling CFG** of
//!   *mini-blocks*: basic blocks are split after every call/spawn
//!   instruction, because a call hands control to a callee whose own trace
//!   records must not be reordered with the caller's — so paths are *cut* at
//!   calls.
//! * Loop **back edges** are cut, as in classic Ball–Larus.
//! * If the number of paths still exceeds a limit, additional edges are cut
//!   (highest-contribution first) until it does not — the paper's
//!   path-cutting optimization against exponential path explosion.
//! * Every mini-block carries its **static events** (method entry, heap
//!   access sites), so decoding a `(start, path id)` record replays the
//!   exact event sequence of the path.

use nimage_ir::{Instr, Method, Terminator};

/// The default Ball–Larus path limit per start node (the VM's default
/// `max_paths`).
pub const DEFAULT_MAX_PATHS: u64 = 1 << 14;

/// Index of a mini-block in a [`ProfilingCfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MiniBlockId(pub u32);

impl MiniBlockId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A statically known event inside a mini-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticEvent {
    /// The method is entered (attached to the entry mini-block only).
    MethodEntry,
    /// A field or array access at `(block, instr)`; at run time it
    /// contributes one object identifier to the trace.
    HeapAccess {
        /// Basic-block index in the original method.
        block: usize,
        /// Instruction index within the block.
        instr: usize,
    },
}

/// A segment of a basic block containing no internal call boundary.
#[derive(Debug, Clone)]
pub struct MiniBlock {
    /// Original basic-block index.
    pub block: usize,
    /// First instruction index covered (inclusive).
    pub seg_start: usize,
    /// One past the last instruction index covered.
    pub seg_end: usize,
    /// Static events occurring in this mini-block, in order.
    pub events: Vec<StaticEvent>,
    /// Successor mini-blocks (deduplicated).
    pub succs: Vec<MiniBlockId>,
}

/// The call-aware profiling CFG of one method.
#[derive(Debug, Clone)]
pub struct ProfilingCfg {
    minis: Vec<MiniBlock>,
    block_head: Vec<MiniBlockId>,
}

impl ProfilingCfg {
    /// Builds the profiling CFG of a method body.
    pub fn build(method: &Method) -> ProfilingCfg {
        let mut minis: Vec<MiniBlock> = vec![];
        let mut block_head: Vec<MiniBlockId> = vec![];

        for (bi, block) in method.blocks.iter().enumerate() {
            block_head.push(MiniBlockId(minis.len() as u32));
            let mut seg_start = 0usize;
            let mut events: Vec<StaticEvent> = vec![];
            if bi == 0 {
                events.push(StaticEvent::MethodEntry);
            }
            for (ii, ins) in block.instrs.iter().enumerate() {
                match ins {
                    Instr::GetField(..)
                    | Instr::PutField(..)
                    | Instr::ArrayGet(..)
                    | Instr::ArraySet(..) => {
                        events.push(StaticEvent::HeapAccess {
                            block: bi,
                            instr: ii,
                        });
                    }
                    Instr::Call { .. } | Instr::Spawn { .. } => {
                        // Segment ends *after* the call instruction; the cut
                        // happens when control returns.
                        minis.push(MiniBlock {
                            block: bi,
                            seg_start,
                            seg_end: ii + 1,
                            events: std::mem::take(&mut events),
                            succs: vec![],
                        });
                        seg_start = ii + 1;
                    }
                    _ => {}
                }
            }
            minis.push(MiniBlock {
                block: bi,
                seg_start,
                seg_end: block.instrs.len(),
                events,
                succs: vec![],
            });
        }

        // Wire successors: intra-block chains, then terminator edges from
        // each block's last mini to the head mini of successor blocks.
        let mut last_of_block: Vec<MiniBlockId> = vec![MiniBlockId(0); method.blocks.len()];
        for (i, m) in minis.iter().enumerate() {
            last_of_block[m.block] = MiniBlockId(i as u32);
        }
        let n = minis.len();
        for i in 0..n {
            let is_last_of_block = last_of_block[minis[i].block].index() == i;
            if !is_last_of_block {
                minis[i].succs.push(MiniBlockId(i as u32 + 1));
            }
        }
        for (bi, block) in method.blocks.iter().enumerate() {
            let last = last_of_block[bi];
            let mut targets: Vec<MiniBlockId> = match &block.terminator {
                Terminator::Ret(_) => vec![],
                Terminator::Jump(t) => vec![block_head[t.index()]],
                Terminator::Br {
                    then_blk, else_blk, ..
                } => vec![block_head[then_blk.index()], block_head[else_blk.index()]],
            };
            targets.dedup();
            minis[last.index()].succs = {
                let mut s = minis[last.index()].succs.clone();
                s.extend(targets);
                s.dedup();
                s
            };
        }

        ProfilingCfg { minis, block_head }
    }

    /// All mini-blocks; minis of the same basic block are contiguous and in
    /// segment order.
    pub fn minis(&self) -> &[MiniBlock] {
        &self.minis
    }

    /// One mini-block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn mini(&self, id: MiniBlockId) -> &MiniBlock {
        &self.minis[id.index()]
    }

    /// The first mini-block of a basic block.
    pub fn head_of_block(&self, block: usize) -> MiniBlockId {
        self.block_head[block]
    }

    /// The entry mini-block (head of block 0).
    pub fn entry(&self) -> MiniBlockId {
        MiniBlockId(0)
    }
}

/// Ball–Larus numbering of a [`ProfilingCfg`].
///
/// Edge facts are dense: mini `i`'s out-edges are
/// `edges[first[i]..first[i + 1]]`, parallel to its `succs`, so a lookup
/// scans the few out-edges of one mini instead of hashing an edge key.
#[derive(Debug, Clone)]
pub struct PathNumbering {
    /// numPaths per mini-block (over non-cut edges).
    num_paths: Vec<u64>,
    /// Start of each mini's out-edges in `edges`, plus one end sentinel.
    first: Vec<u32>,
    /// Every mini's out-edges, in `succs` order.
    edges: Vec<Edge>,
}

/// One out-edge of a mini-block.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    /// Increment of a non-cut edge; 0 for a cut edge.
    inc: u64,
    /// Call boundary, back edge or overflow cut: terminates the path.
    cut: bool,
}

/// The out-edge lists of a [`ProfilingCfg`] as flat arrays: mini `i`'s
/// targets are `to[first[i]..first[i + 1]]`.
struct EdgeLists {
    first: Vec<u32>,
    to: Vec<u32>,
}

impl EdgeLists {
    fn of(cfg: &ProfilingCfg) -> EdgeLists {
        let mut first = Vec::with_capacity(cfg.minis.len() + 1);
        let mut to = Vec::new();
        for m in &cfg.minis {
            first.push(to.len() as u32);
            to.extend(m.succs.iter().map(|s| s.0));
        }
        first.push(to.len() as u32);
        EdgeLists { first, to }
    }

    fn out(&self, v: usize) -> std::ops::Range<usize> {
        self.first[v] as usize..self.first[v + 1] as usize
    }
}

impl PathNumbering {
    /// Computes the numbering, cutting edges until no start node has more
    /// than `max_paths` paths.
    ///
    /// # Panics
    /// Panics if `max_paths` is 0.
    pub fn compute(cfg: &ProfilingCfg, max_paths: u64) -> PathNumbering {
        assert!(max_paths > 0, "max_paths must be positive");
        let n = cfg.minis.len();
        let lists = EdgeLists::of(cfg);
        let mut cut = vec![false; lists.to.len()];

        // Intra-block call-boundary edges are always cut: a mini whose
        // segment ends in a call hands control away.
        for (v, m) in cfg.minis.iter().enumerate() {
            for e in lists.out(v) {
                if cfg.minis[lists.to[e] as usize].block == m.block {
                    cut[e] = true;
                }
            }
        }

        // Back edges via iterative DFS over the non-cut subgraph. Paths can
        // start at any cut-edge target, so the DFS must root at every
        // not-yet-visited node, not just the entry — any cycle then
        // contains at least one back edge of the DFS forest.
        let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
        for root in 0..n {
            if color[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, lists.out(root).start)];
            color[root] = 1;
            while let Some(&mut (v, ref mut e)) = stack.last_mut() {
                if *e < lists.out(v).end {
                    let edge = *e;
                    *e += 1;
                    if cut[edge] {
                        continue;
                    }
                    let w = lists.to[edge] as usize;
                    match color[w] {
                        0 => {
                            color[w] = 1;
                            stack.push((w, lists.out(w).start));
                        }
                        1 => {
                            cut[edge] = true; // back edge
                        }
                        _ => {}
                    }
                } else {
                    color[v] = 2;
                    stack.pop();
                }
            }
        }

        loop {
            let (num_paths, inc) = number(&lists, &cut);
            let worst = num_paths.iter().copied().max().unwrap_or(1);
            // Overflow: cut the non-cut edge with the largest contribution
            // (increment + target's numPaths heuristic). With every edge
            // cut, each path is a single mini-block.
            let best = (worst > max_paths)
                .then(|| {
                    let mut best: Option<(usize, u64)> = None;
                    for (e, &to) in lists.to.iter().enumerate() {
                        let w = num_paths[to as usize];
                        if !cut[e] && best.is_none_or(|(_, bw)| w > bw) {
                            best = Some((e, w));
                        }
                    }
                    best
                })
                .flatten();
            match best {
                Some((e, _)) => cut[e] = true,
                None => {
                    let edges = lists
                        .to
                        .iter()
                        .zip(inc)
                        .zip(cut)
                        .map(|((&to, inc), cut)| Edge { to, inc, cut })
                        .collect();
                    return PathNumbering {
                        num_paths,
                        first: lists.first,
                        edges,
                    };
                }
            }
        }
    }

    /// The largest path count over all potential start nodes.
    pub fn max_num_paths(&self) -> u64 {
        self.num_paths.iter().copied().max().unwrap_or(1)
    }

    /// Number of distinct paths starting at `start`.
    pub fn num_paths_from(&self, start: MiniBlockId) -> u64 {
        self.num_paths[start.index()]
    }

    /// The out-edges of `from`, parallel to its `succs`.
    fn out(&self, from: MiniBlockId) -> &[Edge] {
        &self.edges[self.first[from.index()] as usize..self.first[from.index() + 1] as usize]
    }

    /// The edge `from → to`, if the CFG has it.
    fn edge(&self, from: MiniBlockId, to: MiniBlockId) -> Option<&Edge> {
        self.out(from).iter().find(|e| e.to == to.0)
    }

    /// The increment contributed by traversing edge `from → to` (0 for cut
    /// edges, which instead terminate the current path).
    pub fn increment(&self, from: MiniBlockId, to: MiniBlockId) -> u64 {
        self.edge(from, to).map_or(0, |e| e.inc)
    }

    /// Whether the edge terminates the current path.
    pub fn is_cut(&self, from: MiniBlockId, to: MiniBlockId) -> bool {
        self.edge(from, to).is_some_and(|e| e.cut)
    }

    /// Decodes a `(start, path id)` record back into the mini-block sequence
    /// it encodes. `cfg` is the CFG the numbering was computed over.
    ///
    /// # Panics
    /// Panics if `path_id` is out of range for `start`.
    pub fn decode(&self, cfg: &ProfilingCfg, start: MiniBlockId, path_id: u64) -> Vec<MiniBlockId> {
        debug_assert_eq!(
            cfg.minis.len(),
            self.num_paths.len(),
            "numbering of another CFG"
        );
        assert!(
            path_id < self.num_paths[start.index()].max(1),
            "path id {path_id} out of range at {start:?}"
        );
        let mut seq = vec![start];
        let mut rem = path_id;
        let mut cur = start;
        loop {
            // Among non-cut out-edges, pick the one with the largest
            // increment ≤ rem (standard Ball–Larus decode).
            let mut next: Option<(MiniBlockId, u64)> = None;
            for e in self.out(cur).iter().filter(|e| !e.cut) {
                if e.inc <= rem && next.is_none_or(|(_, bi)| e.inc >= bi) {
                    next = Some((MiniBlockId(e.to), e.inc));
                }
            }
            match next {
                Some((s, inc)) => {
                    rem -= inc;
                    seq.push(s);
                    cur = s;
                }
                None => break,
            }
        }
        debug_assert_eq!(rem, 0, "undecoded path remainder");
        seq
    }
}

/// Computes numPaths and edge increments (parallel to `lists.to`; 0 on cut
/// edges) over the non-cut subgraph (a DAG).
fn number(lists: &EdgeLists, cut: &[bool]) -> (Vec<u64>, Vec<u64>) {
    let n = lists.first.len() - 1;
    // Reverse-topological order via DFS on the DAG.
    let mut order: Vec<usize> = vec![];
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut stack = vec![(start, lists.out(start).start)];
        visited[start] = true;
        while let Some(&mut (v, ref mut e)) = stack.last_mut() {
            let end = lists.out(v).end;
            let mut advanced = false;
            while *e < end {
                let edge = *e;
                *e += 1;
                let w = lists.to[edge] as usize;
                if cut[edge] || visited[w] {
                    continue;
                }
                visited[w] = true;
                stack.push((w, lists.out(w).start));
                advanced = true;
                break;
            }
            if !advanced && stack.last().map(|&(v2, _)| v2) == Some(v) {
                // All successors handled.
                if stack.last().unwrap().1 >= end {
                    order.push(v);
                    stack.pop();
                }
            }
        }
    }

    let mut num_paths = vec![1u64; n];
    let mut inc = vec![0u64; lists.to.len()];
    for &v in &order {
        let mut total = 0u64;
        let mut any = false;
        for e in lists.out(v).filter(|&e| !cut[e]) {
            any = true;
            inc[e] = total;
            total = total.saturating_add(num_paths[lists.to[e] as usize]);
        }
        num_paths[v] = if any { total } else { 1 };
    }
    (num_paths, inc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_ir::{MethodId, Program, ProgramBuilder, TypeRef};

    fn build_method(body: impl FnOnce(&mut nimage_ir::BodyBuilder)) -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.P", None);
        let m = pb.declare_static(c, "m", &[TypeRef::Int], Some(TypeRef::Int));
        let mut f = pb.body(m);
        body(&mut f);
        pb.finish_body(m, f);
        pb.set_entry(m);
        (pb.build().unwrap(), m)
    }

    fn diamond() -> (Program, MethodId) {
        build_method(|f| {
            let x = f.param(0);
            let zero = f.iconst(0);
            let c = f.lt(x, zero);
            let out = f.local();
            f.if_then_else(
                c,
                |f| {
                    let v = f.iconst(1);
                    f.assign(out, v);
                },
                |f| {
                    let v = f.iconst(2);
                    f.assign(out, v);
                },
            );
            f.ret(Some(out));
        })
    }

    #[test]
    fn diamond_has_two_paths() {
        let (p, m) = diamond();
        let cfg = ProfilingCfg::build(p.method(m));
        let num = PathNumbering::compute(&cfg, 1 << 16);
        assert_eq!(num.num_paths_from(cfg.entry()), 2);
    }

    #[test]
    fn diamond_decode_distinguishes_branches() {
        let (p, m) = diamond();
        let cfg = ProfilingCfg::build(p.method(m));
        let num = PathNumbering::compute(&cfg, 1 << 16);
        let p0 = num.decode(&cfg, cfg.entry(), 0);
        let p1 = num.decode(&cfg, cfg.entry(), 1);
        assert_ne!(p0, p1);
        // Both start at the entry and end at the same ret block.
        assert_eq!(p0.first(), p1.first());
        assert_eq!(p0.last(), p1.last());
    }

    #[test]
    fn loop_back_edge_is_cut() {
        let (p, m) = build_method(|f| {
            let n = f.param(0);
            let i = f.iconst(0);
            f.while_loop(
                |f| f.lt(i, n),
                |f| {
                    let one = f.iconst(1);
                    let t = f.add(i, one);
                    f.assign(i, t);
                },
            );
            f.ret(Some(i));
        });
        let cfg = ProfilingCfg::build(p.method(m));
        let num = PathNumbering::compute(&cfg, 1 << 16);
        // The body→header edge must be cut; without cuts, a cyclic graph
        // could not be numbered at all.
        assert!(num.max_num_paths() >= 1);
        let has_cut = cfg.minis().iter().enumerate().any(|(i, mb)| {
            mb.succs
                .iter()
                .any(|&s| num.is_cut(MiniBlockId(i as u32), s))
        });
        assert!(has_cut);
    }

    #[test]
    fn calls_split_blocks_into_minis() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.P", None);
        let callee = pb.declare_static(c, "callee", &[], Some(TypeRef::Int));
        let mut f = pb.body(callee);
        let v = f.iconst(1);
        f.ret(Some(v));
        pb.finish_body(callee, f);
        let m = pb.declare_static(c, "m", &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let a = f.call_static(callee, &[], true).unwrap();
        let b = f.call_static(callee, &[], true).unwrap();
        let s = f.add(a, b);
        f.ret(Some(s));
        pb.finish_body(m, f);
        pb.set_entry(m);
        let p = pb.build().unwrap();

        let cfg = ProfilingCfg::build(p.method(m));
        // One block, two calls → three minis.
        assert_eq!(cfg.minis().len(), 3);
        let num = PathNumbering::compute(&cfg, 1 << 16);
        // Intra-block call edges are cut.
        assert!(num.is_cut(MiniBlockId(0), MiniBlockId(1)));
        assert!(num.is_cut(MiniBlockId(1), MiniBlockId(2)));
    }

    #[test]
    fn heap_access_events_are_recorded_in_order() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.P", None);
        let fx = pb.add_instance_field(c, "x", TypeRef::Int);
        let m = pb.declare_static(c, "m", &[TypeRef::Object(c)], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let o = f.param(0);
        let a = f.get_field(o, fx);
        f.put_field(o, fx, a);
        f.ret(Some(a));
        pb.finish_body(m, f);
        pb.set_entry(m);
        let p = pb.build().unwrap();

        let cfg = ProfilingCfg::build(p.method(m));
        let events = &cfg.mini(cfg.entry()).events;
        assert_eq!(events.len(), 3); // MethodEntry + 2 accesses
        assert_eq!(events[0], StaticEvent::MethodEntry);
        assert!(matches!(
            events[1],
            StaticEvent::HeapAccess { instr: 0, .. }
        ));
        assert!(matches!(
            events[2],
            StaticEvent::HeapAccess { instr: 1, .. }
        ));
    }

    /// A chain of k diamonds has 2^k paths; the limit must force cuts.
    #[test]
    fn path_cutting_bounds_explosion() {
        let (p, m) = build_method(|f| {
            let x = f.param(0);
            let zero = f.iconst(0);
            let out = f.iconst(0);
            for _ in 0..20 {
                let c = f.lt(x, zero);
                f.if_then_else(
                    c,
                    |f| {
                        let one = f.iconst(1);
                        let t = f.add(out, one);
                        f.assign(out, t);
                    },
                    |f| {
                        let two = f.iconst(2);
                        let t = f.add(out, two);
                        f.assign(out, t);
                    },
                );
            }
            f.ret(Some(out));
        });
        let cfg = ProfilingCfg::build(p.method(m));
        let unlimited = PathNumbering::compute(&cfg, u64::MAX);
        assert!(unlimited.max_num_paths() > 1 << 16);
        let limited = PathNumbering::compute(&cfg, 1 << 10);
        assert!(limited.max_num_paths() <= 1 << 10);
    }

    /// Every path id decodes to a distinct sequence (injectivity).
    #[test]
    fn decode_is_injective_over_all_ids() {
        let (p, m) = build_method(|f| {
            let x = f.param(0);
            let zero = f.iconst(0);
            let out = f.iconst(0);
            for _ in 0..4 {
                let c = f.lt(x, zero);
                f.if_then_else(
                    c,
                    |f| {
                        let one = f.iconst(1);
                        let t = f.add(out, one);
                        f.assign(out, t);
                    },
                    |_f| {},
                );
            }
            f.ret(Some(out));
        });
        let cfg = ProfilingCfg::build(p.method(m));
        let num = PathNumbering::compute(&cfg, 1 << 16);
        let total = num.num_paths_from(cfg.entry());
        assert_eq!(total, 16);
        let mut seen = std::collections::HashSet::new();
        for id in 0..total {
            let seq = num.decode(&cfg, cfg.entry(), id);
            assert!(seen.insert(seq), "duplicate decode for id {id}");
        }
    }
}

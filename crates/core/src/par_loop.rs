//! The per-loop executor: one loop declaration, every per-loop shape.
//!
//! OP2's contract (paper §3) is one `op_par_loop(kernel, set, access
//! descriptors…)` declaration from which the sequential, OpenMP,
//! vector-intrinsic (Fig. 3b) and OpenCL/SIMT (Fig. 3a) loops are
//! *generated*. Here an application states each loop once — its scalar
//! element body, its lane-chunk body, its reduction — as a call on the
//! [`IterSet`] it iterates ([`direct`](IterSet::direct),
//! [`direct_reduce`](IterSet::direct_reduce), [`inc`](IterSet::inc)),
//! and the set's [`LoopShape`] executes it. A shape is a product of
//! three choices:
//!
//! * **where ranges come from** — the whole set as one range on the
//!   calling thread, or the colored blocks of a two-level plan
//!   dispatched on an [`ExecPool`] ([`LoopShape::pool`]);
//! * **how a range is swept** — the scalar body alone, or the paper's
//!   three-sweep split (§4.2): scalar pre-/post-sweep items, then
//!   `lanes`-wide aligned chunks ([`LoopShape::lanes`]);
//! * **how an indirect increment lands** — in place, through SIMT
//!   private increments, or color-permuted with true vector scatters
//!   ([`IncMode`]).
//!
//! Sum/min reductions are per-block partials folded in block order (the
//! calling thread's whole set is one block), so a shape's result does
//! not depend on the team size.
//!
//! # The shared-write contract
//!
//! Bodies run concurrently on pool threads while holding `&mut` access
//! to the loop's written data; every `unsafe` block in this module
//! relies on the loop declaration honoring the coloring invariant the
//! plans are built for:
//!
//! * a **direct** loop's `scalar(w, p, e)` writes only element `e`'s
//!   rows of the dats in `w`, and `chunk(w, p, cs)` only rows
//!   `cs..cs + lanes` — blocks are disjoint element ranges, so
//!   concurrent blocks never touch the same row;
//! * an **increment** loop's bodies write only the rows of `dat` their
//!   element reaches through the set's map — two-level and
//!   block-permute plans give conflicting blocks different colors, and
//!   a color group of a permute plan holds no two elements sharing a
//!   target;
//! * dats a loop writes are *read* only at those same rows.
//!
//! The executor then guarantees that no two concurrent bodies overlap
//! and that every write happens-before the call returns (each pool
//! round ends in a barrier). The declarations themselves contain no
//! `unsafe`.

use std::ops::Range;
use std::sync::Arc;

use ump_color::PlanInputs;
use ump_mesh::MapTable;
use ump_simd::{split_sweep, Real};

use crate::exec::{apply_edge_inc, two_rows_mut, SharedDat, SharedMut};
use crate::plan::{AnyPlan, PlanCache, Scheme};
use crate::pool::{simt_block_sweep, ExecPool};

/// How a two-sided indirect increment lands in its target dat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncMode {
    /// The body increments the two target rows in place: exclusive on
    /// the calling thread, race-free across threads under block
    /// coloring (the OpenMP and Fig. 3b shapes).
    InPlace,
    /// SIMT emulation (Fig. 3a): work-items of a block advance in
    /// lock-step chunks of `width`, each running the scalar body on
    /// zeroed private rows; the increments are applied serialized by
    /// element color. `sched_overhead_ns` busy-waits once per
    /// work-group, modelling the OpenCL runtime's scheduling cost.
    Simt {
        /// Lock-step width (work-items per chunk).
        width: usize,
        /// Modelled per-work-group scheduling cost.
        sched_overhead_ns: u64,
    },
    /// Global color permutation (§4): each color group is
    /// conflict-free, so `lanes`-wide pieces use true vector scatters.
    FullPermute,
    /// Per-block color permutation: as [`FullPermute`](IncMode::FullPermute)
    /// within each block of a block-colored plan.
    BlockPermute,
}

/// One per-loop execution shape (see the module docs).
#[derive(Clone, Copy)]
pub struct LoopShape<'a> {
    /// `None`: each loop sweeps its whole set on the calling thread.
    /// `Some((pool, n_threads))`: colored blocks on at most
    /// `n_threads` members of `pool` (`0` = the whole team).
    pub pool: Option<(&'a ExecPool, usize)>,
    /// Lane count of the three-sweep split; `0` sweeps every range with
    /// the scalar body alone.
    pub lanes: usize,
    /// How indirect increments land.
    pub inc: IncMode,
}

impl<'a> LoopShape<'a> {
    /// Scalar sweeps of whole sets on the calling thread.
    pub fn calling_thread() -> LoopShape<'static> {
        LoopShape {
            pool: None,
            lanes: 0,
            inc: IncMode::InPlace,
        }
    }

    /// Scalar sweeps of colored blocks on `pool` (the OpenMP shape).
    pub fn on_pool(pool: &'a ExecPool, n_threads: usize) -> LoopShape<'a> {
        LoopShape {
            pool: Some((pool, n_threads)),
            lanes: 0,
            inc: IncMode::InPlace,
        }
    }

    /// This shape with `lanes`-wide three-sweep ranges.
    pub fn with_lanes(self, lanes: usize) -> LoopShape<'a> {
        LoopShape { lanes, ..self }
    }

    /// This shape with indirect increments landing per `inc`.
    pub fn with_inc(self, inc: IncMode) -> LoopShape<'a> {
        LoopShape { inc, ..self }
    }

    /// Iteration set of `n` elements for direct loops. Fetched once per
    /// timestep and reused by every loop over the set, like the plans
    /// behind it.
    pub fn direct_set(self, cache: &PlanCache, n: usize, block_size: usize) -> IterSet<'a> {
        let plan = self.pool.map(|_| {
            cache.get(
                Scheme::TwoLevel,
                &[],
                &PlanInputs::new(n, vec![], block_size),
            )
        });
        IterSet {
            shape: self,
            n,
            block_size,
            map: None,
            plan,
        }
    }

    /// Iteration set of an increment loop writing through `map` (arity
    /// 2: the two target rows of each element), colored as this
    /// shape's [`IncMode`] needs.
    pub fn inc_set(self, cache: &PlanCache, map: &'a MapTable, block_size: usize) -> IterSet<'a> {
        assert_eq!(map.dim, 2, "increment loops are two-sided");
        let scheme = match self.inc {
            IncMode::InPlace => self.pool.map(|_| Scheme::TwoLevel),
            IncMode::Simt { .. } => Some(Scheme::TwoLevel),
            IncMode::FullPermute => Some(Scheme::FullPermute),
            IncMode::BlockPermute => Some(Scheme::BlockPermute),
        };
        let plan = scheme.map(|s| {
            cache.get(
                s,
                &[&map.name],
                &PlanInputs::new(map.from_size, vec![map], block_size),
            )
        });
        IterSet {
            shape: self,
            n: map.from_size,
            block_size,
            map: Some(map),
            plan,
        }
    }
}

/// An iteration set as one [`LoopShape`] executes it: the shape, the
/// set's size, and the cached plan whose blocks (or color groups) the
/// shape dispatches. Built by [`LoopShape::direct_set`] /
/// [`LoopShape::inc_set`]; the loops over the set are its methods.
pub struct IterSet<'a> {
    shape: LoopShape<'a>,
    n: usize,
    block_size: usize,
    map: Option<&'a MapTable>,
    plan: Option<Arc<AnyPlan>>,
}

/// A plan's blocks (element ranges) and its block ids grouped by color.
type ColoredBlocks<'p> = (&'p [Range<u32>], &'p [Vec<u32>]);

impl IterSet<'_> {
    /// The plan's blocks and their color rounds; `None` when the set
    /// executes as a single range.
    fn blocks(&self) -> Option<ColoredBlocks<'_>> {
        match self.plan.as_deref()? {
            AnyPlan::TwoLevel(p) => Some((&p.blocks, &p.blocks_by_color)),
            AnyPlan::Block(p) => Some((&p.blocks, &p.blocks_by_color)),
            AnyPlan::Full(_) => None,
        }
    }

    /// Run `body(block, range)` over the set's blocks — color rounds
    /// on the pool, block-color order on the calling thread — or once
    /// over the whole set when it has no blocks.
    fn for_blocks(&self, body: impl Fn(usize, Range<usize>) + Sync) {
        let Some((blocks, by_color)) = self.blocks() else {
            return body(0, 0..self.n);
        };
        let body = |b: usize, r: Range<u32>| body(b, r.start as usize..r.end as usize);
        match self.shape.pool {
            Some((pool, n_threads)) => pool.colored_block_lists(blocks, by_color, n_threads, body),
            None => {
                for &b in by_color.iter().flatten() {
                    body(b as usize, blocks[b as usize].clone());
                }
            }
        }
    }

    /// Sweep one range: every element through `scalar`, or the
    /// three-sweep split — scalar items, then aligned `lanes`-wide
    /// chunks (the order the Fig. 3b loops have always run in).
    #[inline(always)]
    fn sweep<C: ?Sized>(
        &self,
        range: Range<usize>,
        ctx: &mut C,
        scalar: impl Fn(&mut C, usize),
        chunk: impl Fn(&mut C, usize),
    ) {
        let lanes = self.shape.lanes;
        let (pre, body, post) = if lanes == 0 {
            (range.clone(), range.end..range.end, range.end..range.end)
        } else {
            let sweep = split_sweep(range, lanes, 0);
            (sweep.pre, sweep.body, sweep.post)
        };
        // one call site per body, so each is inlined into its loop
        for part in [pre, post] {
            for e in part {
                scalar(ctx, e);
            }
        }
        for cs in body.step_by(lanes.max(1)) {
            chunk(ctx, cs);
        }
    }

    /// A direct loop with a reduction: `scalar(w, p, e)` per element
    /// and `chunk(w, p, cs)` per aligned lane chunk write their own
    /// rows of `w` and accumulate into the block's accumulator `p`
    /// (scalar and lane parts, say), which starts at `init`; `finish`
    /// closes a block's accumulator into the one partial stored for it,
    /// and `fold` then receives the partials in block order.
    #[inline]
    pub fn direct_reduce<W: Send, P: Copy + Send + Sync, Q: Copy + Send>(
        &self,
        w: &mut W,
        init: P,
        scalar: impl Fn(&mut W, &mut P, usize) + Sync,
        chunk: impl Fn(&mut W, &mut P, usize) + Sync,
        finish: impl Fn(P) -> Q + Sync,
        fold: impl FnMut(Q),
    ) {
        let n_blocks = self.blocks().map_or(1, |(blocks, _)| blocks.len());
        let mut partials = vec![finish(init); n_blocks];
        {
            let ws = SharedMut::new(w);
            let ps = SharedDat::new(&mut partials);
            self.for_blocks(|b, range| {
                // accumulate in a local (registers, not shared memory)
                let mut acc = init;
                // SAFETY: blocks are disjoint element ranges and direct
                // bodies write only their own elements' rows (module
                // docs); partial `b` belongs to this block alone.
                let w = unsafe { ws.get_mut() };
                self.sweep(
                    range,
                    &mut (w, &mut acc),
                    |(w, p), e| scalar(w, p, e),
                    |(w, p), cs| chunk(w, p, cs),
                );
                unsafe { ps.slice_mut(b, 1)[0] = finish(acc) };
            });
        }
        partials.into_iter().for_each(fold);
    }

    /// A direct loop without a reduction.
    #[inline]
    pub fn direct<W: Send>(
        &self,
        w: &mut W,
        scalar: impl Fn(&mut W, usize) + Sync,
        chunk: impl Fn(&mut W, usize) + Sync,
    ) {
        self.direct_reduce(
            w,
            (),
            |w, _, e| scalar(w, e),
            |w, _, cs| chunk(w, cs),
            |()| (),
            |()| {},
        );
    }

    /// A two-sided increment loop into `dat` (AoS rows of width `D`)
    /// through the set's map. One declaration serves every [`IncMode`]:
    ///
    /// * `scalar(e, r0, r1)` adds element `e`'s increments to the two
    ///   rows it is handed — the target rows themselves in place, zeroed
    ///   private rows under SIMT;
    /// * `chunk(es, dat)` handles elements `es..es + lanes` with
    ///   serialized lane scatters (in-place three-sweep ranges);
    /// * `group(ids, dat)` handles `lanes` permuted elements known to
    ///   share no target, so it may use true vector scatters.
    #[inline]
    pub fn inc<R: Real, const D: usize>(
        &self,
        dat: &mut [R],
        scalar: impl Fn(usize, &mut [R], &mut [R]) + Sync,
        chunk: impl Fn(usize, &mut [R]) + Sync,
        group: impl Fn(&[u32], &mut [R]) + Sync,
    ) {
        let map = self.map.expect("increment loops iterate an inc_set");
        let LoopShape { pool, lanes, inc } = self.shape;
        let targets = |e: usize| (map.data[2 * e] as usize, map.data[2 * e + 1] as usize);
        let in_place = |dat: &mut [R], e: usize| {
            let (c0, c1) = targets(e);
            let (r0, r1) = two_rows_mut(dat, D, c0, c1);
            scalar(e, r0, r1);
        };
        // a conflict-free color group: whole `lanes`-wide pieces through
        // the vector-scatter body, the sub-lane tail in place
        let run_group = |dat: &mut [R], ids: &[u32]| {
            let (vector, tail) = ids.split_at(match lanes {
                0 => 0,
                l => ids.len() / l * l,
            });
            for piece in vector.chunks_exact(lanes.max(1)) {
                group(piece, dat);
            }
            for &e in tail {
                in_place(dat, e as usize);
            }
        };
        let len = dat.len();
        let shared = SharedDat::new(dat);
        // SAFETY (every use below): concurrent bodies write only rows
        // their elements reach through `map`, which the set's plan
        // keeps disjoint within a color round (module docs).
        let whole = || unsafe { shared.slice_mut(0, len) };
        match (inc, self.plan.as_deref()) {
            (IncMode::InPlace, _) => self.for_blocks(|_b, range| {
                self.sweep(
                    range,
                    whole(),
                    |dat, e| in_place(dat, e),
                    |dat, es| chunk(es, dat),
                );
            }),
            (
                IncMode::Simt {
                    width,
                    sched_overhead_ns,
                },
                Some(AnyPlan::TwoLevel(plan)),
            ) => self.for_blocks(|b, range| {
                simt_block_sweep(
                    plan,
                    b,
                    range.start as u32..range.end as u32,
                    width,
                    sched_overhead_ns,
                    &|e| {
                        let (c0, c1) = targets(e);
                        let (mut r0, mut r1) = ([R::ZERO; D], [R::ZERO; D]);
                        scalar(e, &mut r0, &mut r1);
                        (c0, r0, c1, r1)
                    },
                    // SAFETY: the colored increment phase — elements of
                    // one color in a block share no target row.
                    &|_e, inc| unsafe { apply_edge_inc(&shared, inc) },
                );
            }),
            (IncMode::BlockPermute, Some(AnyPlan::Block(plan))) => self.for_blocks(|b, _| {
                for ids in plan.block_groups(b) {
                    run_group(whole(), ids);
                }
            }),
            (IncMode::FullPermute, Some(AnyPlan::Full(plan))) => {
                // any split of a color group is conflict-free; pieces
                // stay lane multiples so the pool changes no grouping
                let piece = self.block_size.next_multiple_of(lanes.max(1));
                for ids in plan.color_groups() {
                    let Some((pool, n_threads)) = pool else {
                        run_group(whole(), ids);
                        continue;
                    };
                    pool.run_round(ids.len().div_ceil(piece), n_threads, 1, &|i| {
                        run_group(whole(), &ids[i * piece..ids.len().min((i + 1) * piece)]);
                    });
                }
            }
            _ => unreachable!("inc_set builds the plan its IncMode needs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_mesh::generators::quad_channel;

    /// An edge-loop increment through the SIMT shape must equal the
    /// sequential result exactly (integer-valued data).
    #[test]
    fn simt_emulation_reproduces_sequential_increment() {
        let m = quad_channel(10, 10).mesh;
        let mut reference = vec![0.0f64; m.n_cells()];
        for e in 0..m.n_edges() {
            let c = m.edge2cell.row(e);
            reference[c[0] as usize] += (e % 7) as f64;
            reference[c[1] as usize] -= 1.0;
        }

        let pool = ExecPool::new(2);
        let shape = LoopShape::on_pool(&pool, 0).with_inc(IncMode::Simt {
            width: 8,
            sched_overhead_ns: 0,
        });
        let mut out = vec![0.0f64; m.n_cells()];
        shape
            .inc_set(&PlanCache::new(), &m.edge2cell, 16)
            .inc::<f64, 1>(
                &mut out,
                |e, r0, r1| {
                    r0[0] += (e % 7) as f64;
                    r1[0] -= 1.0;
                },
                |_, _| unreachable!("scalar sweep"),
                |_, _| unreachable!("no permute groups"),
            );
        assert_eq!(out, reference);
    }
}

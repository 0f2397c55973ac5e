//! Execution building blocks shared by all loop drivers.
//!
//! The engines mirror the paper's shared-memory backends:
//!
//! * [`seq_loop`] — the scalar reference (also the per-rank inner loop of
//!   the message-passing backend),
//! * [`ExecPool::colored_blocks`](crate::pool::ExecPool::colored_blocks)
//!   — the OpenMP analogue: blocks of one color dispatched to a
//!   *persistent* thread team, no synchronization needed inside a color
//!   round (paper §3),
//! * [`simt_block_sweep`](crate::pool::simt_block_sweep) — the
//!   OpenCL-on-CPU analogue: each block is a work-group executed by one
//!   thread; work-items advance in lock-step chunks of the SIMT width,
//!   buffering their indirect increments in private storage and applying
//!   them serialized by element color (paper Fig. 3a, with the
//!   work-group barrier removed exactly as §4.1 describes for sequential
//!   work-group execution).
//!
//! Every parallel dispatch names the [`ExecPool`](crate::pool::ExecPool)
//! it runs on — there is no process-wide team. Applications do not call
//! the engines per kernel: they record each loop once on an `ump_lazy`
//! chain, whose executor drives it through them.
//!
//! Bodies running on several threads at once reach a dat through a
//! [`DatRef`](ump_simd::DatRef), a raw-pointer handle whose safety
//! contract is the coloring invariant: *within one color round no two
//! concurrent bodies touch the same element*. Plans are validated (tests
//! + `debug_assert`) to uphold it.

use std::ops::Range;

/// Split two distinct rows out of a dat's AoS storage for a two-sided
/// update.
#[inline(always)]
pub fn two_rows_mut<R>(data: &mut [R], dim: usize, i: usize, j: usize) -> (&mut [R], &mut [R]) {
    debug_assert_ne!(i, j, "edge connects a cell to itself");
    if i < j {
        let (a, b) = data.split_at_mut(j * dim);
        (&mut a[i * dim..(i + 1) * dim], &mut b[..dim])
    } else {
        let (a, b) = data.split_at_mut(i * dim);
        (&mut b[..dim], &mut a[j * dim..(j + 1) * dim])
    }
}

/// The scalar reference executor: `body(e)` for every element in order.
#[inline]
pub fn seq_loop(range: Range<usize>, mut body: impl FnMut(usize)) {
    for e in range {
        body(e);
    }
}

/// Number of worker threads to use when the caller passes 0.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ExecPool;
    use ump_color::{PlanInputs, TwoLevelPlan};
    use ump_mesh::generators::quad_channel;
    use ump_simd::DatRef;

    #[test]
    fn seq_loop_visits_in_order() {
        let mut seen = Vec::new();
        seq_loop(3..7, |e| seen.push(e));
        assert_eq!(seen, vec![3, 4, 5, 6]);
    }

    #[test]
    fn shared_dat_disjoint_writes() {
        let mut data = vec![0.0f64; 100];
        // SAFETY: the two threads store disjoint halves
        let shared = unsafe { DatRef::flat_mut(&mut data) };
        std::thread::scope(|s| {
            s.spawn(move || (0..50).for_each(|e| shared.store_row(e, &[1.0])));
            s.spawn(move || (50..100).for_each(|e| shared.store_row(e, &[2.0])));
        });
        assert!(data[..50].iter().all(|&x| x == 1.0));
        assert!(data[50..].iter().all(|&x| x == 2.0));
    }

    /// Edge-loop increment executed through the colored engine must equal
    /// the sequential result exactly (same per-target accumulation order
    /// is NOT guaranteed across colors, but targets are hit by one color
    /// at a time and within a block sequentially — with f64 and small
    /// counts the check below is exact for these integer-valued data).
    #[test]
    fn colored_blocks_reproduce_sequential_increment() {
        let m = quad_channel(16, 12).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 32);
        let plan = TwoLevelPlan::build(&inputs);

        let mut reference = vec![0.0f64; m.n_cells()];
        for e in 0..m.n_edges() {
            let c = m.edge2cell.row(e);
            reference[c[0] as usize] += 1.0;
            reference[c[1] as usize] += 1.0;
        }

        let mut out = vec![0.0f64; m.n_cells()];
        // SAFETY: blocks that add to a common cell get different colors
        let shared = unsafe { DatRef::flat_mut(&mut out) };
        let e2c = &m.edge2cell;
        ExecPool::new(4).colored_blocks(&plan, 0, |_b, range| {
            for e in range {
                let c = e2c.row(e as usize);
                shared.add_row(c[0] as usize, &[1.0]);
                shared.add_row(c[1] as usize, &[1.0]);
            }
        });
        assert_eq!(out, reference);
    }

    #[test]
    fn single_thread_path_equals_multithread_path() {
        let m = quad_channel(8, 8).mesh;
        let inputs = PlanInputs::new(m.n_edges(), vec![&m.edge2cell], 16);
        let plan = TwoLevelPlan::build(&inputs);
        let run = |threads: usize| {
            let mut out = vec![0.0f64; m.n_cells()];
            // SAFETY: blocks that add to a common cell get different colors
            let shared = unsafe { DatRef::flat_mut(&mut out) };
            ExecPool::new(threads).colored_blocks(&plan, 0, |_b, range| {
                for e in range {
                    let c = m.edge2cell.row(e as usize);
                    shared.add_row(c[0] as usize, &[e as f64]);
                }
            });
            out
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}

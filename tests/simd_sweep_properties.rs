//! Property tests of the lane-sweep machinery behind the SIMD backends:
//! for random ranges, lane counts and alignment bases, `split_sweep` and
//! `ump_core::simd_block_sweep` must tile the range exactly (no element
//! visited twice or skipped), agree with each other, and a fused-SIMD
//! gather/scatter chain over integer-valued data must **bit-match** the
//! scalar sweep — integer arithmetic in f64 is exact, so any
//! lane-coverage or scatter-ordering bug is a hard mismatch. The same
//! chain lands a dim-4 dat through the row scatter with two
//! rounding-sensitive components, which must bit-match the *threaded*
//! execution of the chain: the row scatter's order contract (lane by
//! lane, `c0`'s row then `c1`'s — the scalar `apply` order). (The
//! product of executions of one recording lives in
//! `tests/fusion_properties.rs`.)

use std::cell::RefCell;

use proptest::prelude::*;
use ump_core::{simd_block_sweep, Access, ArgInfo, DatRef, ExecPool, LoopProfile, PlanCache};
use ump_lazy::{Chain, LoopDesc, Shape};
use ump_mesh::generators::perturbed_quads;
use ump_simd::{split_sweep, Aos, DatView, IdxVec, VecR};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // split_sweep invariants over arbitrary ranges/lane counts/bases:
    // exact tiling, lane-aligned body, sub-lane sweeps.
    #[test]
    fn split_sweep_tiles_any_range_exactly(
        start in 0usize..200,
        len in 0usize..400,
        lanes in 1usize..17,
        base_back in 0usize..50,
    ) {
        let align_base = start.saturating_sub(base_back);
        let range = start..start + len;
        let s = split_sweep(range.clone(), lanes, align_base);
        prop_assert_eq!(s.len(), len);
        prop_assert_eq!(s.pre.start, range.start);
        prop_assert_eq!(s.pre.end, s.body.start);
        prop_assert_eq!(s.body.end, s.post.start);
        prop_assert_eq!(s.post.end, range.end);
        prop_assert_eq!(s.body.len() % lanes, 0);
        prop_assert!(s.pre.len() < lanes);
        prop_assert!(s.post.len() < lanes);
        if !s.body.is_empty() {
            prop_assert_eq!((s.body.start - align_base) % lanes, 0);
        }
        // every element exactly once
        let mut seen: Vec<usize> = s.scalar_items().collect();
        for c in s.vector_chunks() {
            seen.extend(c..c + lanes);
        }
        seen.sort_unstable();
        let expect: Vec<usize> = range.collect();
        prop_assert_eq!(seen, expect);
    }

    // The pool's lane-aware block sweep agrees with split_sweep at
    // align_base 0: same scalar items, same chunk starts, every element
    // visited exactly once.
    #[test]
    fn simd_block_sweep_agrees_with_split_sweep(
        start in 0u32..300,
        len in 0u32..500,
        lanes in 1usize..17,
    ) {
        let range = start..start + len;
        let reference = split_sweep(start as usize..(start + len) as usize, lanes, 0);
        let scalars = RefCell::new(Vec::new());
        let chunks = RefCell::new(Vec::new());
        simd_block_sweep(
            range,
            lanes,
            &|e| scalars.borrow_mut().push(e),
            &|cs| chunks.borrow_mut().push(cs),
        );
        let expect_scalars: Vec<usize> = reference.scalar_items().collect();
        let expect_chunks: Vec<usize> = reference.vector_chunks().collect();
        prop_assert_eq!(scalars.into_inner(), expect_scalars);
        prop_assert_eq!(chunks.into_inner(), expect_chunks);
    }

    // Fused-SIMD legality end-to-end: a recorded chain (direct fill +
    // indirect gather/scatter through edge2cell) over integer-valued
    // data executed under Shape::Simd at L = 4 and 8, with random block
    // sizes, bit-matches the scalar loop-by-loop reference; its dim-4
    // row scatter bit-matches the threaded execution of the same chain.
    #[test]
    fn fused_simd_gather_scatter_bit_matches_scalar(
        nx in 3usize..12,
        ny in 3usize..10,
        seed in any::<u64>(),
        bs_sel in 0usize..4,
    ) {
        let mesh = perturbed_quads(nx, ny, 0.25, seed);
        let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
        let block_size = [5usize, 13, 32, 64][bs_sel];

        // scalar reference
        let mut ra = vec![0.0f64; ne];
        let mut racc = vec![0.0f64; nc];
        let mut racc4 = vec![0.0f64; nc * 4];
        for e in 0..ne {
            ra[e] = (e % 11 + 1) as f64;
        }
        for e in 0..ne {
            let c = mesh.edge2cell.row(e);
            racc[c[0] as usize] += 3.0 * ra[e];
            racc[c[1] as usize] -= ra[e];
            // the integer components of the dim-4 rows (0 and 3)
            racc4[c[0] as usize * 4] += 3.0 * ra[e];
            racc4[c[0] as usize * 4 + 3] += ra[e];
            racc4[c[1] as usize * 4] -= ra[e];
            racc4[c[1] as usize * 4 + 3] -= ra[e];
        }

        // the rows of edge value `v`: components 0 and 3 are integers
        // (exact in any order), 1 and 2 are full-mantissa fractions, so
        // their sums round differently in any other order
        fn rows(v: f64) -> ([f64; 4], [f64; 4]) {
            ([3.0 * v, v / 3.0, v * 0.1, v], [-v, v / 7.0, -(v / 9.0), -v])
        }

        fn run_lanes<const L: usize>(
            mesh: &ump_mesh::Mesh2d,
            block_size: usize,
            shape: Shape,
        ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
            let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
            let pool = ExecPool::new(3);
            let cache = PlanCache::new();
            let mut a = vec![0.0f64; ne];
            let mut acc = vec![0.0f64; nc];
            let mut acc4 = vec![0.0f64; nc * 4];
            {
                // SAFETY: the bodies keep a recording's side of the shared-write contract
                let av = unsafe { DatRef::flat_mut(&mut a) };
                let accv = unsafe { DatRef::flat_mut(&mut acc) };
                let acc4v = unsafe { DatRef::new_mut(&mut acc4, DatView::new(nc, 4, Aos)) };
                let desc = |name: &str, n: usize, args: Vec<ArgInfo>| {
                    LoopDesc::new(
                        LoopProfile {
                            name: name.into(),
                            set: "edges".into(),
                            args,
                            flops_per_elem: 1.0,
                            transcendentals_per_elem: 0.0,
                            description: String::new(),
                        },
                        n,
                    )
                };
                let mut chain = Chain::new("prop_simd");
                chain.register_map(&mesh.edge2cell);
                chain.record_simd(
                    desc("fill", ne, vec![ArgInfo::direct("a", 1, Access::Write)]),
                    L,
                    move |r| {
                        for e in r {
                            av.store_row(e, &[(e % 11 + 1) as f64]);
                        }
                    },
                    move |cs| {
                        let v = VecR::<f64, L>::from_fn(|k| ((cs + k) % 11 + 1) as f64);
                        av.storev(v, cs, 0);
                    },
                );
                {
                    let m = mesh;
                    chain.record_simd_two_phase(
                        desc(
                            "scatter",
                            ne,
                            vec![
                                ArgInfo::direct("a", 1, Access::Read),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                                ArgInfo::indirect("acc4", 4, Access::Inc, "edge2cell", 0),
                                ArgInfo::indirect("acc4", 4, Access::Inc, "edge2cell", 1),
                            ],
                        ),
                        L,
                        move |e| {
                            let c = m.edge2cell.row(e);
                            let [v] = av.load_row(e);
                            (c[0] as usize, c[1] as usize, v)
                        },
                        move |_e, inc| {
                            let (c0, c1, v) = *inc;
                            accv.add_row(c0, &[3.0 * v]);
                            accv.add_row(c1, &[-v]);
                            let (r0, r1) = rows(v);
                            acc4v.add_row(c0, &r0);
                            acc4v.add_row(c1, &r1);
                        },
                        move |es| {
                            // lane gather of a, serialized lane scatter
                            // into acc — the fused-SIMD indirect shape
                            let e2c = &m.edge2cell.data;
                            let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
                            let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
                            let v = av.loadv::<L>(es, 0);
                            accv.scatter_add_serialv(v * 3.0, c0, 0);
                            accv.scatter_add_serialv(-v, c1, 0);
                            // the dim-4 rows, `c0`'s then `c1`'s per lane
                            let r0 = [v * 3.0, v / 3.0, v * 0.1, v];
                            let r1 = [-v, v / 7.0, -(v / 9.0), -v];
                            acc4v.scatter_add_rows_serial([(&r0, c0), (&r1, c1)]);
                        },
                    );
                }
                chain.execute(&pool, &cache, shape, 0, block_size, 8, None);
            }
            (a, acc, acc4)
        }

        let (_, _, rows_threaded) = run_lanes::<4>(&mesh, block_size, Shape::Threaded);
        for c in 0..nc {
            prop_assert_eq!(rows_threaded[c * 4], racc4[c * 4], "threaded rows diverged");
            prop_assert_eq!(rows_threaded[c * 4 + 3], racc4[c * 4 + 3], "threaded rows diverged");
        }
        let (a4, acc4, rows4) = run_lanes::<4>(&mesh, block_size, Shape::Simd { lanes: 4 });
        prop_assert_eq!(&a4, &ra, "L=4 fill diverged");
        prop_assert_eq!(&acc4, &racc, "L=4 scatter diverged");
        prop_assert_eq!(&rows4, &rows_threaded, "L=4 row scatter left the scalar order");
        let (a8, acc8, rows8) = run_lanes::<8>(&mesh, block_size, Shape::Simd { lanes: 8 });
        prop_assert_eq!(&a8, &ra, "L=8 fill diverged");
        prop_assert_eq!(&acc8, &racc, "L=8 scatter diverged");
        prop_assert_eq!(&rows8, &rows_threaded, "L=8 row scatter left the scalar order");
    }
}

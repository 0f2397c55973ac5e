//! Property tests of the lane-sweep machinery behind the SIMD backends:
//! for random ranges, lane counts and alignment bases, `split_sweep` and
//! `ump_core::simd_block_sweep` must tile the range exactly (no element
//! visited twice or skipped), agree with each other, and both a
//! fused-SIMD gather/scatter chain and the per-loop [`LoopShape`]
//! executor over integer-valued data must **bit-match** the scalar sweep
//! in every shape — integer arithmetic in f64 is exact, so any
//! lane-coverage, block-coverage or scatter-ordering bug is a hard
//! mismatch.

use std::cell::RefCell;

use proptest::prelude::*;
use ump_core::{
    apply_edge_inc, simd_block_sweep, Access, ArgInfo, ExecPool, IncMode, LoopProfile, LoopShape,
    PlanCache, SharedDat,
};
use ump_lazy::{Chain, LoopDesc, Shape};
use ump_mesh::generators::perturbed_quads;
use ump_mesh::Mesh2d;
use ump_simd::{split_sweep, IdxVec, VecR};

/// What the four executor test loops leave behind: the direct fill,
/// the two-sided increments, the sum and the min.
type LoopResults = (Vec<f64>, Vec<f64>, f64, f64);

/// The executor test loops, stated the way an application declares
/// them (scalar body, `L`-lane chunk body, reduction), over
/// integer-valued data: a direct fill of `a` over edges, a gather of
/// `a` and the cell weights with a two-sided increment of `acc`
/// (2 components) through `edge2cell`, a sum and a min over edges.
fn run_shape<const L: usize>(
    mesh: &Mesh2d,
    shape: &LoopShape<'_>,
    block_size: usize,
) -> LoopResults {
    let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
    let e2c = &mesh.edge2cell.data;
    let weight: Vec<f64> = (0..nc).map(|c| (c % 5) as f64).collect();
    let cache = PlanCache::new();
    let edges = shape.direct_set(&cache, ne, block_size);
    let edges_inc = shape.inc_set(&cache, &mesh.edge2cell, block_size);
    let fill = |e: usize| (e % 11 + 1) as f64;

    let mut a = vec![0.0f64; ne];
    edges.direct(
        &mut a,
        |a, e| a[e] = fill(e),
        |a, es| VecR::<f64, L>::from_fn(|k| fill(es + k)).store(a, es),
    );

    let mut acc = vec![0.0f64; nc * 2];
    edges_inc.inc::<f64, 2>(
        &mut acc,
        |e, r0, r1| {
            let (c0, c1) = (e2c[2 * e] as usize, e2c[2 * e + 1] as usize);
            r0[0] += 3.0 * a[e] + weight[c1];
            r0[1] += 1.0;
            r1[0] -= a[e];
            r1[1] += weight[c0];
        },
        |es, acc| {
            let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
            let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
            let v = VecR::<f64, L>::load(&a, es);
            let (w0, w1) = (
                VecR::gather(&weight, c0, 1, 0),
                VecR::gather(&weight, c1, 1, 0),
            );
            (v * 3.0 + w1).scatter_add_serial(acc, c0, 2, 0);
            VecR::splat(1.0).scatter_add_serial(acc, c0, 2, 1);
            (-v).scatter_add_serial(acc, c1, 2, 0);
            w0.scatter_add_serial(acc, c1, 2, 1);
        },
        |ids, acc| {
            let ids: [usize; L] = std::array::from_fn(|l| ids[l] as usize);
            let c0 = IdxVec::<L>::from_array(ids.map(|e| e2c[2 * e]));
            let c1 = IdxVec::<L>::from_array(ids.map(|e| e2c[2 * e + 1]));
            let v = VecR::<f64, L>::from_fn(|l| a[ids[l]]);
            let (w0, w1) = (
                VecR::gather(&weight, c0, 1, 0),
                VecR::gather(&weight, c1, 1, 0),
            );
            (v * 3.0 + w1).scatter_add(acc, c0, 2, 0);
            VecR::splat(1.0).scatter_add(acc, c0, 2, 1);
            (-v).scatter_add(acc, c1, 2, 0);
            w0.scatter_add(acc, c1, 2, 1);
        },
    );

    let term = |e: usize| a[e] * (e % 3) as f64;
    let mut sum = 0.0f64;
    edges.direct_reduce(
        &mut (),
        (0.0f64, VecR::<f64, L>::zero()),
        |_, p, e| p.0 += term(e),
        |_, p, es| p.1 += VecR::from_fn(|k| term(es + k)),
        |p| p.0 + p.1.reduce_sum(),
        |block| sum += block,
    );

    let cand = |e: usize| ((e * 7 + 3) % 13) as f64;
    let mut min = f64::INFINITY;
    edges.direct_reduce(
        &mut (),
        (f64::INFINITY, VecR::<f64, L>::splat(f64::INFINITY)),
        |_, p, e| p.0 = p.0.min(cand(e)),
        |_, p, es| p.1 = p.1.min(VecR::from_fn(|k| cand(es + k))),
        |p| p.0.min(p.1.reduce_min()),
        |block| min = min.min(block),
    );
    (a, acc, sum, min)
}

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
    // sizes, bit-matches the scalar loop-by-loop reference.
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
        for e in 0..ne {
            ra[e] = (e % 11 + 1) as f64;
        }
        for e in 0..ne {
            let c = mesh.edge2cell.row(e);
            racc[c[0] as usize] += 3.0 * ra[e];
            racc[c[1] as usize] -= ra[e];
        }

        fn run_lanes<const L: usize>(
            mesh: &ump_mesh::Mesh2d,
            block_size: usize,
        ) -> (Vec<f64>, Vec<f64>) {
            let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
            let pool = ExecPool::new(3);
            let cache = PlanCache::new();
            let mut a = vec![0.0f64; ne];
            let mut acc = vec![0.0f64; nc];
            {
                let av = SharedDat::new(&mut a);
                let accv = SharedDat::new(&mut acc);
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
                {
                    let av = &av;
                    chain.record_simd(
                        desc("fill", ne, vec![ArgInfo::direct("a", 1, Access::Write)]),
                        vec![],
                        L,
                        move |e| unsafe { av.slice_mut(e, 1)[0] = (e % 11 + 1) as f64 },
                        move |cs| unsafe {
                            let d = av.slice_mut(0, av.len());
                            VecR::<f64, L>::from_fn(|k| ((cs + k) % 11 + 1) as f64).store(d, cs);
                        },
                    );
                }
                {
                    let (av, accv, m) = (&av, &accv, mesh);
                    chain.record_simd_two_phase(
                        desc(
                            "scatter",
                            ne,
                            vec![
                                ArgInfo::direct("a", 1, Access::Read),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                                ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                            ],
                        ),
                        vec![&m.edge2cell],
                        L,
                        move |e| {
                            let c = m.edge2cell.row(e);
                            let v = unsafe { av.slice(e, 1)[0] };
                            (c[0] as usize, [3.0 * v], c[1] as usize, [-v])
                        },
                        move |_e, inc| unsafe { apply_edge_inc(accv, inc) },
                        move |es| unsafe {
                            // lane gather of a, serialized lane scatter
                            // into acc — the fused-SIMD indirect shape
                            let ad = av.slice(0, av.len());
                            let accd = accv.slice_mut(0, accv.len());
                            let e2c = &m.edge2cell.data;
                            let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
                            let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
                            let v = VecR::<f64, L>::load(ad, es);
                            (v * 3.0).scatter_add_serial(accd, c0, 1, 0);
                            (-v).scatter_add_serial(accd, c1, 1, 0);
                        },
                    );
                }
                chain.execute(
                    &pool,
                    &cache,
                    Shape::Simd { lanes: L },
                    0,
                    block_size,
                    8,
                    None,
                );
            }
            (a, acc)
        }

        let (a4, acc4) = run_lanes::<4>(&mesh, block_size);
        prop_assert_eq!(&a4, &ra, "L=4 fill diverged");
        prop_assert_eq!(&acc4, &racc, "L=4 scatter diverged");
        let (a8, acc8) = run_lanes::<8>(&mesh, block_size);
        prop_assert_eq!(&a8, &ra, "L=8 fill diverged");
        prop_assert_eq!(&acc8, &racc, "L=8 scatter diverged");
    }
    // The per-loop executor: the same four loop declarations give the
    // bit-identical result in every shape of the product — ranges from
    // the calling thread or a pool (teams 1 and 2) × scalar or L-lane
    // sweeps (L = 1, 4, 8) × every way an increment can land. Meshes go
    // down to 1×1 (one cell, *no* interior edges: every edge loop
    // iterates an empty set) and 1×2 (a single edge: set size < L), and
    // the largest block size makes every set a single block.
    #[test]
    fn loop_shape_product_bit_matches_scalar(
        nx in 1usize..9,
        ny in 1usize..7,
        seed in any::<u64>(),
        bs_sel in 0usize..4,
    ) {
        let mesh = perturbed_quads(nx, ny, 0.25, seed);
        let block_size = [3usize, 7, 16, 512][bs_sel];
        let expect = run_shape::<1>(&mesh, &LoopShape::calling_thread(), block_size);

        // the declarations against a hand-written sequential loop
        let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
        let mut acc = vec![0.0f64; nc * 2];
        for e in 0..ne {
            let c = mesh.edge2cell.row(e);
            let (c0, c1) = (c[0] as usize, c[1] as usize);
            let v = (e % 11 + 1) as f64;
            acc[c0 * 2] += 3.0 * v + (c1 % 5) as f64;
            acc[c0 * 2 + 1] += 1.0;
            acc[c1 * 2] -= v;
            acc[c1 * 2 + 1] += (c0 % 5) as f64;
        }
        prop_assert_eq!(&expect.1, &acc);
        let sum: f64 = (0..ne).map(|e| ((e % 11 + 1) * (e % 3)) as f64).sum();
        prop_assert_eq!(expect.2, sum);
        let min = (0..ne).map(|e| ((e * 7 + 3) % 13) as f64).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(expect.3, min);

        let pools = [ExecPool::new(1), ExecPool::new(2)];
        let ranges = [
            LoopShape::calling_thread(),
            LoopShape::on_pool(&pools[0], 0),
            LoopShape::on_pool(&pools[1], 0),
        ];
        let incs = [
            IncMode::InPlace,
            IncMode::Simt { width: 4, sched_overhead_ns: 0 },
            IncMode::FullPermute,
            IncMode::BlockPermute,
        ];
        for (r, ranges) in ranges.iter().enumerate() {
            for inc in incs {
                let scalar = ranges.with_inc(inc);
                let got = [
                    (0, run_shape::<1>(&mesh, &scalar, block_size)),
                    (1, run_shape::<1>(&mesh, &scalar.with_lanes(1), block_size)),
                    (4, run_shape::<4>(&mesh, &scalar.with_lanes(4), block_size)),
                    (8, run_shape::<8>(&mesh, &scalar.with_lanes(8), block_size)),
                ];
                for (lanes, got) in &got {
                    prop_assert_eq!(
                        got, &expect,
                        "ranges #{} lanes {} {:?} on {}x{} block {}",
                        r, lanes, inc, nx, ny, block_size
                    );
                }
            }
        }
    }
}

//! Property tests of the fusion runtime: for random meshes and random
//! loop chains drawn from a small vocabulary of integer-valued kernels,
//! fused execution must **bit-match** (`max_abs_diff == 0`) the plain
//! sequential loop-by-loop reference in both execution shapes — integer
//! arithmetic in f64 is exact, so any reordering bug, dropped loop, or
//! illegal fusion shows up as a hard mismatch, not a tolerance question.
//! The same holds for one recording executed in every way the executor
//! can run it: fused or loop by loop × every shape × team sizes × block
//! sizes.

use proptest::prelude::*;
use ump_core::{Access, ArgInfo, ExecPool, LoopProfile, PlanCache, SharedDat};
use ump_lazy::{Chain, ExchangePolicy, Fusion, LoopDesc, Shape};
use ump_mesh::generators::perturbed_quads;
use ump_mesh::Mesh2d;
use ump_simd::{IdxVec, VecR};

/// The loop vocabulary chains are drawn from. All bodies are
/// integer-valued so f64 execution is exact in any order the legality
/// rules permit.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// edges, direct: `a[e] += e % 5 + 1`
    FillA,
    /// edges, direct RAW on `a`: `b[e] += 2·a[e]`
    CombineB,
    /// edges, indirect increment: `acc[c0] += a[e]; acc[c1] -= 2`
    Scatter,
    /// edges, indirect read of `acc` (splits after Scatter):
    /// `b[e] += acc[c0] − acc[c1]`
    Gather,
    /// cells, direct (different set, always splits): `acc[c] += 3`
    CellStep,
}

impl Kind {
    fn from_index(i: usize) -> Kind {
        match i % 5 {
            0 => Kind::FillA,
            1 => Kind::CombineB,
            2 => Kind::Scatter,
            3 => Kind::Gather,
            _ => Kind::CellStep,
        }
    }

    fn desc(self, ne: usize, nc: usize) -> LoopDesc {
        let (name, set, n, args) = match self {
            Kind::FillA => (
                "fill_a",
                "edges",
                ne,
                vec![ArgInfo::direct("a", 1, Access::Inc)],
            ),
            Kind::CombineB => (
                "combine_b",
                "edges",
                ne,
                vec![
                    ArgInfo::direct("a", 1, Access::Read),
                    ArgInfo::direct("b", 1, Access::Inc),
                ],
            ),
            Kind::Scatter => (
                "scatter",
                "edges",
                ne,
                vec![
                    ArgInfo::direct("a", 1, Access::Read),
                    ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 0),
                    ArgInfo::indirect("acc", 1, Access::Inc, "edge2cell", 1),
                ],
            ),
            Kind::Gather => (
                "gather",
                "edges",
                ne,
                vec![
                    ArgInfo::indirect("acc", 1, Access::Read, "edge2cell", 0),
                    ArgInfo::indirect("acc", 1, Access::Read, "edge2cell", 1),
                    ArgInfo::direct("b", 1, Access::Inc),
                ],
            ),
            Kind::CellStep => (
                "cell_step",
                "cells",
                nc,
                vec![ArgInfo::direct("acc", 1, Access::Inc)],
            ),
        };
        LoopDesc::new(
            LoopProfile {
                name: name.into(),
                set: set.into(),
                args,
                flops_per_elem: 1.0,
                transcendentals_per_elem: 0.0,
                description: String::new(),
            },
            n,
        )
    }
}

struct State {
    a: Vec<f64>,
    b: Vec<f64>,
    acc: Vec<f64>,
}

impl State {
    fn new(mesh: &Mesh2d) -> State {
        State {
            a: vec![0.0; mesh.n_edges()],
            b: vec![0.0; mesh.n_edges()],
            acc: vec![0.0; mesh.n_cells()],
        }
    }
}

/// Plain loop-by-loop sequential reference.
fn run_reference(mesh: &Mesh2d, kinds: &[Kind], s: &mut State) {
    for k in kinds {
        match k {
            Kind::FillA => {
                for e in 0..mesh.n_edges() {
                    s.a[e] += (e % 5 + 1) as f64;
                }
            }
            Kind::CombineB => {
                for e in 0..mesh.n_edges() {
                    s.b[e] += 2.0 * s.a[e];
                }
            }
            Kind::Scatter => {
                for e in 0..mesh.n_edges() {
                    let c = mesh.edge2cell.row(e);
                    s.acc[c[0] as usize] += s.a[e];
                    s.acc[c[1] as usize] -= 2.0;
                }
            }
            Kind::Gather => {
                for e in 0..mesh.n_edges() {
                    let c = mesh.edge2cell.row(e);
                    s.b[e] += s.acc[c[0] as usize] - s.acc[c[1] as usize];
                }
            }
            Kind::CellStep => {
                for c in 0..mesh.n_cells() {
                    s.acc[c] += 3.0;
                }
            }
        }
    }
}

/// Record the same chain and execute it fused.
fn run_fused(
    mesh: &Mesh2d,
    kinds: &[Kind],
    s: &mut State,
    shape: Shape,
    block_size: usize,
) -> ump_lazy::ChainReport {
    let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
    let pool = ExecPool::new(3);
    let cache = PlanCache::new();
    let av = SharedDat::new(&mut s.a);
    let bv = SharedDat::new(&mut s.b);
    let accv = SharedDat::new(&mut s.acc);
    let mut chain = Chain::new("prop");
    for k in kinds {
        match k {
            Kind::FillA => {
                let av = &av;
                chain.record(k.desc(ne, nc), vec![], move |e| unsafe {
                    av.slice_mut(e, 1)[0] += (e % 5 + 1) as f64;
                });
            }
            Kind::CombineB => {
                let (av, bv) = (&av, &bv);
                chain.record(k.desc(ne, nc), vec![], move |e| unsafe {
                    bv.slice_mut(e, 1)[0] += 2.0 * av.slice(e, 1)[0];
                });
            }
            Kind::Scatter => {
                let (av, accv) = (&av, &accv);
                chain.record_two_phase(
                    k.desc(ne, nc),
                    vec![&mesh.edge2cell],
                    move |e| {
                        let c = mesh.edge2cell.row(e);
                        let v = unsafe { av.slice(e, 1)[0] };
                        (c[0] as usize, [v], c[1] as usize, [-2.0])
                    },
                    move |_e, inc| unsafe {
                        let (c0, r0, c1, r1) = inc;
                        accv.slice_mut(*c0, 1)[0] += r0[0];
                        accv.slice_mut(*c1, 1)[0] += r1[0];
                    },
                );
            }
            Kind::Gather => {
                let (bv, accv) = (&bv, &accv);
                chain.record(k.desc(ne, nc), vec![], move |e| {
                    let c = mesh.edge2cell.row(e);
                    unsafe {
                        bv.slice_mut(e, 1)[0] +=
                            accv.slice(c[0] as usize, 1)[0] - accv.slice(c[1] as usize, 1)[0];
                    }
                });
            }
            Kind::CellStep => {
                let accv = &accv;
                chain.record(k.desc(ne, nc), vec![], move |c| unsafe {
                    accv.slice_mut(c, 1)[0] += 3.0;
                });
            }
        }
    }
    chain.execute(&pool, &cache, shape, 0, block_size, 8, None)
}

/// What the four loops of [`run_recorded`] leave behind: the direct
/// fill, the two-sided increments, the sum and the min.
type LoopResults = (Vec<f64>, Vec<f64>, f64, f64);

/// Four loops over edges, recorded once the way an application records
/// them (scalar body, `L`-lane chunk body, per-block reduction slots),
/// over integer-valued data: a direct fill of `a`, a gather of `a` and
/// the cell weights with a two-sided increment of `acc` (2 components)
/// through `edge2cell`, a sum and a min.
fn run_recorded<const L: usize>(
    mesh: &Mesh2d,
    pool: &ExecPool,
    shape: Shape,
    fusion: Fusion,
    block_size: usize,
) -> LoopResults {
    let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
    let e2c = &mesh.edge2cell.data;
    let weight: Vec<f64> = (0..nc).map(|c| (c % 5) as f64).collect();
    let cache = PlanCache::new();
    let desc = |name: &str, args: Vec<ArgInfo>| {
        let profile = LoopProfile {
            name: name.into(),
            set: "edges".into(),
            args,
            flops_per_elem: 1.0,
            transcendentals_per_elem: 0.0,
            description: String::new(),
        };
        LoopDesc::new(profile, ne)
    };
    let fill = |e: usize| (e % 11 + 1) as f64;
    let cand = |e: usize| ((e * 7 + 3) % 13) as f64;

    let n_blocks = ne.div_ceil(block_size);
    let (mut a, mut acc) = (vec![0.0f64; ne], vec![0.0f64; nc * 2]);
    let (mut sums, mut mins) = (vec![0.0f64; n_blocks], vec![f64::INFINITY; n_blocks]);
    {
        let (av, accv) = (SharedDat::new(&mut a), SharedDat::new(&mut acc));
        let (sumv, minv) = (SharedDat::new(&mut sums), SharedDat::new(&mut mins));
        let (av, accv, sumv, minv, weight) = (&av, &accv, &sumv, &minv, &weight);
        let mut chain = Chain::new("recorded");
        chain.record_simd(
            desc("fill", vec![ArgInfo::direct("a", 1, Access::Write)]),
            vec![],
            L,
            move |e| unsafe { av.slice_mut(e, 1)[0] = fill(e) },
            move |es| unsafe {
                VecR::<f64, L>::from_fn(|k| fill(es + k)).store(av.slice_mut(0, av.len()), es)
            },
        );

        let inc_desc = desc(
            "inc",
            vec![
                ArgInfo::direct("a", 1, Access::Read),
                ArgInfo::indirect("acc", 2, Access::Inc, "edge2cell", 0),
                ArgInfo::indirect("acc", 2, Access::Inc, "edge2cell", 1),
            ],
        );
        let compute = move |e: usize| unsafe {
            let (c0, c1) = (e2c[2 * e] as usize, e2c[2 * e + 1] as usize);
            let v = av.slice(e, 1)[0];
            (c0, [3.0 * v + weight[c1], 1.0], c1, [-v, weight[c0]])
        };
        let apply = move |_e: usize, inc: &(usize, [f64; 2], usize, [f64; 2])| unsafe {
            let (c0, r0, c1, r1) = inc;
            for d in 0..2 {
                accv.slice_mut(c0 * 2, 2)[d] += r0[d];
                accv.slice_mut(c1 * 2, 2)[d] += r1[d];
            }
        };
        // `L` edges at once, increments scattered lane by lane
        chain.record_simd_two_phase(
            inc_desc,
            vec![&mesh.edge2cell],
            L,
            compute,
            apply,
            move |es| unsafe {
                let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
                let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
                let v = VecR::<f64, L>::load(av.as_slice(), es);
                let acc = accv.slice_mut(0, accv.len());
                let (w0, w1) = (
                    VecR::gather(weight, c0, 1, 0),
                    VecR::gather(weight, c1, 1, 0),
                );
                (v * 3.0 + w1).scatter_add_serial(acc, c0, 2, 0);
                VecR::splat(1.0).scatter_add_serial(acc, c0, 2, 1);
                (-v).scatter_add_serial(acc, c1, 2, 0);
                w0.scatter_add_serial(acc, c1, 2, 1);
            },
        );

        // reductions: one slot per block, touched only by the thread
        // that runs the block
        let term = move |e: usize| unsafe { av.slice(e, 1)[0] * (e % 3) as f64 };
        chain.record_simd(
            desc(
                "sum",
                vec![
                    ArgInfo::direct("a", 1, Access::Read),
                    ArgInfo::global("sum", 1, Access::Inc),
                ],
            ),
            vec![],
            L,
            move |e| unsafe { sumv.slice_mut(e / block_size, 1)[0] += term(e) },
            move |es| unsafe {
                let chunk = VecR::<f64, L>::from_fn(|k| term(es + k)).reduce_sum();
                sumv.slice_mut(es / block_size, 1)[0] += chunk;
            },
        );
        chain.record_simd(
            desc("min", vec![ArgInfo::global("min", 1, Access::Rw)]),
            vec![],
            L,
            move |e| unsafe {
                let slot = &mut minv.slice_mut(e / block_size, 1)[0];
                *slot = slot.min(cand(e));
            },
            move |es| unsafe {
                let slot = &mut minv.slice_mut(es / block_size, 1)[0];
                *slot = slot.min(VecR::<f64, L>::from_fn(|k| cand(es + k)).reduce_min());
            },
        );
        let overlap = ExchangePolicy::Overlap;
        chain.execute_policy(pool, &cache, shape, 0, block_size, 8, None, overlap, fusion);
    }
    let min = mins.iter().copied().fold(f64::INFINITY, f64::min);
    (a, acc, sums.iter().sum(), min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // One recording, every execution: the same four recorded loops give
    // the hand-written sequential loops' bits fused or loop by loop ×
    // threaded, SIMT and `L`-lane three-sweep blocks (L = 1, 4, 8) ×
    // teams of 1 and 2. Meshes go down to 1×1 (one cell, *no*
    // interior edges: every loop iterates an empty set) and 1×2 (a
    // single edge: set size < L), and the largest block size makes the
    // set a single block.
    #[test]
    fn one_recording_bit_matches_scalar_in_every_execution(
        nx in 1usize..9,
        ny in 1usize..7,
        seed in any::<u64>(),
        bs_sel in 0usize..4,
    ) {
        let mesh = perturbed_quads(nx, ny, 0.25, seed);
        let block_size = [3usize, 7, 16, 512][bs_sel];
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
        let expect: LoopResults = (
            (0..ne).map(|e| (e % 11 + 1) as f64).collect(),
            acc,
            (0..ne).map(|e| ((e % 11 + 1) * (e % 3)) as f64).sum(),
            (0..ne).map(|e| ((e * 7 + 3) % 13) as f64).fold(f64::INFINITY, f64::min),
        );

        let simt = Shape::Simt { width: 4, sched_overhead_ns: 0 };
        for pool in [ExecPool::new(1), ExecPool::new(2)] {
            for fusion in [Fusion::Groups, Fusion::PerLoop] {
                let run = |shape: Shape| match shape {
                    Shape::Simd { lanes: 1 } => run_recorded::<1>(&mesh, &pool, shape, fusion, block_size),
                    Shape::Simd { lanes: 8 } => run_recorded::<8>(&mesh, &pool, shape, fusion, block_size),
                    _ => run_recorded::<4>(&mesh, &pool, shape, fusion, block_size),
                };
                for shape in [
                    Shape::Threaded,
                    simt,
                    Shape::Simd { lanes: 1 },
                    Shape::Simd { lanes: 4 },
                    Shape::Simd { lanes: 8 },
                ] {
                    prop_assert_eq!(
                        &run(shape), &expect,
                        "{:?} {:?} team {} on {}x{} block {}",
                        shape, fusion, pool.n_threads(), nx, ny, block_size
                    );
                }
            }
        }
    }

    // Fused execution of a random legal chain on a random perturbed
    // mesh bit-matches the sequential reference — threaded and SIMT
    // shapes alike — and never issues more rounds than loop-by-loop
    // execution would.
    #[test]
    fn fused_chain_bit_matches_sequential(
        nx in 3usize..12,
        ny in 3usize..10,
        seed in any::<u64>(),
        kind_ids in prop::collection::vec(0usize..5, 1..9),
        bs_sel in 0usize..3,
    ) {
        let mesh = perturbed_quads(nx, ny, 0.25, seed);
        let kinds: Vec<Kind> = kind_ids.iter().map(|&i| Kind::from_index(i)).collect();
        let block_size = [5usize, 16, 64][bs_sel];

        let mut reference = State::new(&mesh);
        run_reference(&mesh, &kinds, &mut reference);

        for shape in [Shape::Threaded, Shape::Simt { width: 4, sched_overhead_ns: 0 }] {
            let mut fused = State::new(&mesh);
            let report = run_fused(&mesh, &kinds, &mut fused, shape, block_size);
            prop_assert_eq!(&fused.a, &reference.a, "a diverged ({:?}, {:?})", shape, kinds);
            prop_assert_eq!(&fused.b, &reference.b, "b diverged ({:?}, {:?})", shape, kinds);
            prop_assert_eq!(&fused.acc, &reference.acc, "acc diverged ({:?}, {:?})", shape, kinds);
            prop_assert!(report.fused_rounds <= report.unfused_rounds);
            prop_assert!(report.groups <= report.loops);
        }
    }

    // The canonical illegal fusion — an indirect read directly after an
    // indirect increment through the shared map — is split into two
    // groups, and still computes the exact sequential result.
    #[test]
    fn illegal_indirect_raw_is_split_and_correct(
        nx in 3usize..10,
        ny in 3usize..8,
        seed in any::<u64>(),
    ) {
        let mesh = perturbed_quads(nx, ny, 0.2, seed);
        let kinds = [Kind::FillA, Kind::Scatter, Kind::Gather];

        // the fused partition must split exactly between Scatter (inc
        // through edge2cell) and Gather (read through edge2cell)
        let (ne, nc) = (mesh.n_edges(), mesh.n_cells());
        let entries: Vec<LoopDesc> = kinds.iter().map(|k| k.desc(ne, nc)).collect();
        let refs: Vec<(&LoopDesc, bool)> = entries.iter().map(|d| (d, false)).collect();
        let groups = ump_lazy::fuse_groups(&refs);
        prop_assert_eq!(groups.len(), 2, "expected split: {:?}", groups);
        prop_assert_eq!(groups[0].loops.clone(), 0..2);
        prop_assert_eq!(groups[1].loops.clone(), 2..3);
        prop_assert!(
            ump_lazy::conflict(&entries[1], &entries[2]).is_some(),
            "indirect RAW must conflict"
        );

        let mut reference = State::new(&mesh);
        run_reference(&mesh, &kinds, &mut reference);
        let mut fused = State::new(&mesh);
        run_fused(&mesh, &kinds, &mut fused, Shape::Threaded, 16);
        prop_assert_eq!(&fused.b, &reference.b);
        prop_assert_eq!(&fused.acc, &reference.acc);
    }
}

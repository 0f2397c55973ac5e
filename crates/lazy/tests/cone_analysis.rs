//! Cone-analysis unit tests on hand-built meshes where every k-step
//! dependency cone is computable by hand: a 1D path mesh (edge `e`
//! connects cells `e` and `e+1`) makes footprints exact interval
//! arithmetic, so off-by-one halo-growth bugs show up as exact-range
//! mismatches instead of hiding inside an end-to-end tolerance.

// Footprints are `Vec<Range<usize>>`; single-interval literals like
// `vec![0..9]` are exactly what we assert against.
#![allow(clippy::single_range_in_vec_init)]

use ump_core::{Access, ArgInfo, ExecPool, LoopProfile};
use ump_lazy::{LoopDesc, TileCache, TiledChain};
use ump_mesh::MapTable;

fn desc(name: &str, set: &str, n: usize, args: Vec<ArgInfo>) -> LoopDesc {
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

/// edge `e` → cells `e`, `e+1`: the 1D path mesh.
fn path_edge2cell(n_cells: usize) -> MapTable {
    let n_edges = n_cells - 1;
    let data: Vec<i32> = (0..n_edges as i32).flat_map(|e| [e, e + 1]).collect();
    MapTable::new("edge2cell", n_edges, n_cells, 2, data)
}

fn gather_desc(n_edges: usize) -> LoopDesc {
    // f[e] = u[c0] + u[c1]
    desc(
        "gather",
        "edges",
        n_edges,
        vec![
            ArgInfo::indirect("u", 1, Access::Read, "edge2cell", 0),
            ArgInfo::indirect("u", 1, Access::Read, "edge2cell", 1),
            ArgInfo::direct("f", 1, Access::Write),
        ],
    )
}

fn scatter_desc(n_edges: usize) -> LoopDesc {
    // u[c0] += f[e]; u[c1] += f[e]
    desc(
        "scatter",
        "edges",
        n_edges,
        vec![
            ArgInfo::direct("f", 1, Access::Read),
            ArgInfo::indirect("u", 1, Access::Inc, "edge2cell", 0),
            ArgInfo::indirect("u", 1, Access::Inc, "edge2cell", 1),
        ],
    )
}

/// Record `steps` gather/scatter steps of the path mesh into a chain
/// over the given backing storage.
fn record_path<'a>(
    map: &'a MapTable,
    u: &'a mut [i64],
    f: &'a mut [i64],
    steps: usize,
) -> TiledChain<'a, i64> {
    let n_cells = map.to_size;
    let n_edges = map.from_size;
    let mut chain = TiledChain::new("path");
    chain.register_set("cells", n_cells);
    chain.register_set("edges", n_edges);
    chain.register_map(map);
    let u_id = chain.register_dat("u", "cells", 1, u);
    let f_id = chain.register_dat("f", "edges", 1, f);
    for _ in 0..steps {
        chain.begin_step();
        chain.record(gather_desc(n_edges), move |ctx, e| {
            let u = ctx.dat(u_id);
            let v = u[e] + u[e + 1];
            unsafe { ctx.dat_mut(f_id)[e] = v };
        });
        chain.record(scatter_desc(n_edges), move |ctx, e| {
            let v = ctx.dat(f_id)[e];
            let u = unsafe { ctx.dat_mut(u_id) };
            u[e] += v;
            u[e + 1] += v;
        });
    }
    chain
}

/// The same computation, straight-line sequential.
fn reference(n_cells: usize, u: &mut [i64], steps: usize) {
    let n_edges = n_cells - 1;
    let mut f = vec![0i64; n_edges];
    for _ in 0..steps {
        for e in 0..n_edges {
            f[e] = u[e] + u[e + 1];
        }
        for e in 0..n_edges {
            u[e] += f[e];
            u[e + 1] += f[e];
        }
    }
}

// dat registration order in record_path: u = 0, f = 1
const U: usize = 0;
const F: usize = 1;

#[test]
fn one_step_cone_footprints_are_exact() {
    // 16 cells, 15 edges, block 4, 2 blocks/tile → 2 tiles:
    // tile 0 owns edges [0,8) and cells [0,8); tile 1 the rest
    let map = path_edge2cell(16);
    let (mut u, mut f) = (vec![0i64; 16], vec![0i64; 15]);
    let chain = record_path(&map, &mut u, &mut f, 1);
    let sched = chain.schedule(8, 4);
    assert_eq!(sched.n_tiles, 2);
    assert_eq!(sched.epochs.len(), 1, "no globals: one epoch");
    assert_eq!(sched.owned[1], vec![0..8, 8..15], "edge ownership");
    assert_eq!(sched.owned[0], vec![0..8, 8..16], "cell ownership");

    let t0 = &sched.epochs[0].tiles[0];
    let t1 = &sched.epochs[0].tiles[1];
    // tile 0 (left boundary): scatter needs edges into owned cells
    // [0,8) = edges [0,8); gather produces exactly those f rows (the
    // direct Write kills the f need), reading cells [0,9)
    assert_eq!(t0.iters, vec![vec![0..8], vec![0..8]]);
    assert_eq!(t0.copy_in, vec![(U, vec![0..9])]);
    // tile 1: cells [8,16) pull in edge 7 — the shared fringe — and
    // cells [7,16)
    assert_eq!(t1.iters, vec![vec![7..15], vec![7..15]]);
    assert_eq!(t1.copy_in, vec![(U, vec![7..16])]);
    // f is written before every read inside the epoch: never copied in
    for t in [t0, t1] {
        assert!(
            t.copy_in.iter().all(|(d, _)| *d != F),
            "direct Write must kill the f need"
        );
    }
    // write-back is exactly the owned rows of the written dats
    assert_eq!(t0.copy_out, vec![(U, 0..8), (F, 0..8)]);
    assert_eq!(t1.copy_out, vec![(U, 8..16), (F, 8..15)]);

    // redundant fringe: edge 7 runs in both tiles, in both loops
    assert_eq!(sched.essential_iters, 30);
    assert_eq!(sched.executed_iters, 32);
    let expect = 2.0 / 30.0;
    assert!((sched.redundant_fraction() - expect).abs() < 1e-15);
}

#[test]
fn cone_grows_one_halo_layer_per_step() {
    let map = path_edge2cell(16);
    let (mut u, mut f) = (vec![0i64; 16], vec![0i64; 15]);
    let chain = record_path(&map, &mut u, &mut f, 2);
    let sched = chain.schedule(8, 4);
    assert_eq!(sched.epochs.len(), 1, "two steps, no globals: one epoch");
    let t1 = &sched.epochs[0].tiles[1];
    // step-2 loops need edges [7,15); one step further back the cone
    // widens exactly one edge: step-1 loops run [6,15)
    assert_eq!(
        t1.iters,
        vec![vec![6..15], vec![6..15], vec![7..15], vec![7..15]]
    );
    // and the copy-in footprint widens one cell vs the 1-step cone
    assert_eq!(t1.copy_in, vec![(U, vec![6..16])]);
    let t0 = &sched.epochs[0].tiles[0];
    // the left tile is bounded by the mesh edge: no growth on that side
    assert_eq!(
        t0.iters,
        vec![vec![0..9], vec![0..9], vec![0..8], vec![0..8]]
    );
    assert_eq!(t0.copy_in, vec![(U, vec![0..10])]);
}

#[test]
fn single_tile_has_no_fringe() {
    let map = path_edge2cell(16);
    let (mut u, mut f) = (vec![0i64; 16], vec![0i64; 15]);
    let chain = record_path(&map, &mut u, &mut f, 3);
    // tile ≥ mesh → one tile, zero redundancy
    let sched = chain.schedule(1000, 4);
    assert_eq!(sched.n_tiles, 1);
    assert_eq!(sched.executed_iters, sched.essential_iters);
    assert_eq!(sched.redundant_fraction(), 0.0);
}

#[test]
fn tiled_execution_is_bit_identical_to_sequential() {
    let n_cells = 37; // deliberately not a multiple of the block size
    let map = path_edge2cell(n_cells);
    let mut expect: Vec<i64> = (0..n_cells as i64).map(|i| i * 7 % 13).collect();
    let pool = ExecPool::new(2);
    for steps in [1usize, 2, 4] {
        for tile_elems in [4usize, 8, 1000] {
            let mut u = expect.clone();
            let mut f = vec![0i64; n_cells - 1];
            let chain = record_path(&map, &mut u, &mut f, steps);
            let mut cache = TileCache::new();
            let report = chain.execute(&pool, &mut cache, tile_elems, 4, 2, 1, 8, None);
            assert_eq!(report.rounds, 2, "one epoch → two pool rounds");
            assert_eq!(report.steps, steps);
            drop(chain);
            let mut seq = expect.clone();
            reference(n_cells, &mut seq, steps);
            assert_eq!(u, seq, "steps={steps} tile_elems={tile_elems}");
        }
    }
    reference(n_cells, &mut expect, 1); // silence unused-mut pedantry
}

#[test]
fn global_reuse_cuts_epochs() {
    // Volna's shape: reduce a global, then consume it — every
    // consumption is an epoch barrier, so 2 epochs per recorded step
    let map = path_edge2cell(8);
    let n_edges = 7;
    let mut u = vec![0i64; 8];
    let mut f = vec![0i64; 7];
    let mut chain = TiledChain::new("epochs");
    chain.register_set("cells", 8);
    chain.register_set("edges", n_edges);
    chain.register_map(&map);
    let _u = chain.register_dat("u", "cells", 1, &mut u);
    let f_id = chain.register_dat("f", "edges", 1, &mut f);
    let reduce = desc(
        "reduce",
        "edges",
        n_edges,
        vec![
            ArgInfo::direct("f", 1, Access::Write),
            ArgInfo::global("dt", 1, Access::Inc),
        ],
    );
    let consume = desc(
        "consume",
        "edges",
        n_edges,
        vec![
            ArgInfo::direct("f", 1, Access::Rw),
            ArgInfo::global("dt", 1, Access::Read),
        ],
    );
    for _ in 0..3 {
        chain.begin_step();
        chain.record(reduce.clone(), move |ctx, e| unsafe {
            ctx.dat_mut(f_id)[e] = e as i64;
        });
        chain.record(consume.clone(), move |ctx, e| unsafe {
            ctx.dat_mut(f_id)[e] += 1;
        });
    }
    // cut before every consume (read-after-Inc) and before the next
    // step's reduce (Inc-after-read): 2 epochs per step
    let ranges = chain.epoch_ranges();
    assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..4, 4..5, 5..6]);

    // airfoil's shape — the global is reduced (Inc) but never consumed
    // in-chain — needs no cuts at all
    let mut f2 = vec![0i64; 7];
    let mut rms_only = TiledChain::<i64>::new("rms");
    rms_only.register_set("edges", n_edges);
    let g = rms_only.register_dat("f", "edges", 1, &mut f2);
    for _ in 0..3 {
        rms_only.begin_step();
        rms_only.record(reduce.clone(), move |ctx, e| unsafe {
            ctx.dat_mut(g)[e] = e as i64;
        });
    }
    assert_eq!(rms_only.epoch_ranges(), vec![0..3]);
}

//! Property tests of cross-timestep sparse tiling: for random meshes,
//! random tiling configurations, and random steps-per-tile, the tiled
//! executor must reproduce the untiled references on both applications —
//! ≤ 1e-12 against the fused-threaded path on f64 physics, and **bit
//! identical** against plain sequential execution on cell state and on
//! integer-data chains, where any fringe-recompute or halo-growth bug
//! shows up as a hard mismatch instead of a tolerance question.
//!
//! The deterministic tests at the bottom pin the acceptance criteria
//! exactly: ≥4 recorded steps within 1e-12 of fused-threaded with the
//! tiled reduction histories bit-identical under the ordered-fold
//! discipline (any tile size, any team size), the degenerate tilings
//! (one tile, tile ≥ mesh, N = 1), and the dispatch-round win (tiled
//! rounds < N × fused rounds).

use proptest::prelude::*;
use ump_apps::{airfoil, run_tiled_on, run_tiled_report_on, volna, Simulation};
use ump_core::{Access, ArgInfo, DatRef, ExecPool, Layout, LoopProfile, PlanCache, Recorder};
use ump_lazy::{Chain, Fusion, LoopDesc, Shape, TileCache, TileReport, TiledChain};
use ump_mesh::MapTable;

const TEAM: usize = 4;

// ---------------------------------------------------------------------------
// app harnesses: one (sim, per-step history, dispatch rounds) runner per path
// ---------------------------------------------------------------------------

fn seq_airfoil(nx: usize, ny: usize, seed: u64, steps: usize) -> (airfoil::Airfoil<f64>, Vec<f64>) {
    let mut sim = airfoil::Airfoil::<f64>::seeded(nx, ny, seed);
    let hist = (0..steps)
        .map(|_| airfoil::drivers::step_seq(&mut sim, None))
        .collect();
    (sim, hist)
}

fn fused_airfoil(
    nx: usize,
    ny: usize,
    seed: u64,
    steps: usize,
    block: usize,
) -> (airfoil::Airfoil<f64>, Vec<f64>, u64) {
    let pool = ExecPool::new(TEAM);
    let cache = PlanCache::new();
    let mut sim = airfoil::Airfoil::<f64>::seeded(nx, ny, seed);
    let r0 = pool.dispatch_rounds();
    let hist = (0..steps)
        .map(|_| {
            airfoil::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim,
                &cache,
                Shape::Threaded,
                Fusion::Groups,
                0,
                block,
                None,
            )
        })
        .collect();
    let rounds = pool.dispatch_rounds() - r0;
    (sim, hist, rounds)
}

fn tiled_airfoil(
    nx: usize,
    ny: usize,
    seed: u64,
    steps: usize,
    tile_cells: usize,
    block: usize,
) -> (airfoil::Airfoil<f64>, Vec<f64>, u64) {
    tiled_airfoil_team(nx, ny, seed, steps, tile_cells, block, TEAM)
}

fn tiled_airfoil_team(
    nx: usize,
    ny: usize,
    seed: u64,
    steps: usize,
    tile_cells: usize,
    block: usize,
    team: usize,
) -> (airfoil::Airfoil<f64>, Vec<f64>, u64) {
    let pool = ExecPool::new(team);
    let mut sim = airfoil::Airfoil::<f64>::seeded(nx, ny, seed);
    let r0 = pool.dispatch_rounds();
    let hist = airfoil::drivers::run_tiled_on::<f64, 1>(
        &mut sim, &pool, 0, steps, tile_cells, block, None,
    );
    let rounds = pool.dispatch_rounds() - r0;
    (sim, hist, rounds)
}

fn seq_volna(nx: usize, ny: usize, seed: u64, steps: usize) -> (volna::Volna<f64>, Vec<f64>) {
    let mut sim = volna::Volna::<f64>::seeded(nx, ny, seed);
    let hist = (0..steps)
        .map(|_| volna::drivers::step_seq(&mut sim, None))
        .collect();
    (sim, hist)
}

fn fused_volna(
    nx: usize,
    ny: usize,
    seed: u64,
    steps: usize,
    block: usize,
) -> (volna::Volna<f64>, Vec<f64>, u64) {
    let pool = ExecPool::new(TEAM);
    let cache = PlanCache::new();
    let mut sim = volna::Volna::<f64>::seeded(nx, ny, seed);
    let r0 = pool.dispatch_rounds();
    let hist = (0..steps)
        .map(|_| {
            volna::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim,
                &cache,
                Shape::Threaded,
                Fusion::Groups,
                0,
                block,
                None,
            )
        })
        .collect();
    let rounds = pool.dispatch_rounds() - r0;
    (sim, hist, rounds)
}

fn tiled_volna(
    nx: usize,
    ny: usize,
    seed: u64,
    steps: usize,
    tile_cells: usize,
    block: usize,
) -> (volna::Volna<f64>, Vec<f64>, u64) {
    tiled_volna_team(nx, ny, seed, steps, tile_cells, block, TEAM)
}

fn tiled_volna_team(
    nx: usize,
    ny: usize,
    seed: u64,
    steps: usize,
    tile_cells: usize,
    block: usize,
    team: usize,
) -> (volna::Volna<f64>, Vec<f64>, u64) {
    let pool = ExecPool::new(team);
    let mut sim = volna::Volna::<f64>::seeded(nx, ny, seed);
    let r0 = pool.dispatch_rounds();
    let hist =
        volna::drivers::run_tiled_on::<f64, 1>(&mut sim, &pool, 0, steps, tile_cells, block, None);
    let rounds = pool.dispatch_rounds() - r0;
    (sim, hist, rounds)
}

fn bits(h: &[f64]) -> Vec<u64> {
    h.iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// the integer chain: gather/scatter steps on the 1D path mesh
// ---------------------------------------------------------------------------

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

/// edge `e` → cells `e`, `e+1`.
fn path_edge2cell(n_cells: usize) -> MapTable {
    let n_edges = n_cells - 1;
    let data: Vec<i32> = (0..n_edges as i32).flat_map(|e| [e, e + 1]).collect();
    MapTable::new("edge2cell", n_edges, n_cells, 2, data)
}

/// Tiled: `steps` rounds of `f[e] = u[e] + u[e+1]` then
/// `u[e] += f[e]; u[e+1] += f[e]`, recorded as a chain and executed
/// through the cone schedule.
fn run_tiled_path(
    map: &MapTable,
    u: &mut [i64],
    f: &mut [i64],
    steps: usize,
    tile_elems: usize,
    block: usize,
) {
    let n_cells = map.to_size;
    let n_edges = map.from_size;
    let pool = ExecPool::new(2);
    let mut tiled = TiledChain::new("path");
    tiled.register_set("cells", n_cells);
    tiled.register_set("edges", n_edges);
    // SAFETY: the recorded bodies keep a recording's side of the
    // shared-write contract, the tiled executor the other
    tiled.register_dat("u", "cells", unsafe { DatRef::flat_mut(u) });
    tiled.register_dat("f", "edges", unsafe { DatRef::flat_mut(f) });
    let gather = desc(
        "gather",
        "edges",
        n_edges,
        vec![
            ArgInfo::indirect("u", 1, Access::Read, "edge2cell", 0),
            ArgInfo::indirect("u", 1, Access::Read, "edge2cell", 1),
            ArgInfo::direct("f", 1, Access::Write),
        ],
    );
    let scatter = desc(
        "scatter",
        "edges",
        n_edges,
        vec![
            ArgInfo::direct("f", 1, Access::Read),
            ArgInfo::indirect("u", 1, Access::Inc, "edge2cell", 0),
            ArgInfo::indirect("u", 1, Access::Inc, "edge2cell", 1),
        ],
    );
    tiled.execute(
        |dats| {
            let &[u, f] = &dats[..] else { panic!("[u, f]") };
            let mut chain = Chain::new("path");
            chain.register_map(map);
            for _ in 0..steps {
                chain.record_blocks(gather.clone(), move |_b, range| {
                    for e in range.start as usize..range.end as usize {
                        let ([a], [b]) = (u.load_row(e), u.load_row(e + 1));
                        f.store_row(e, &[a + b]);
                    }
                });
                chain.record_blocks(scatter.clone(), move |_b, range| {
                    for e in range.start as usize..range.end as usize {
                        let v = f.load_row::<1>(e);
                        u.add_row(e, &v);
                        u.add_row(e + 1, &v);
                    }
                });
            }
            chain
        },
        &pool,
        &mut TileCache::new(),
        steps,
        tile_elems,
        block,
        2,
        Shape::Threaded,
        8,
        None,
    );
}

/// The same computation, straight-line sequential.
fn reference_path(u: &mut [i64], steps: usize) {
    let n_edges = u.len() - 1;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Tiled airfoil ≡ fused-threaded ≤1e-12 and bit-identical to plain
    // sequential state for random meshes × seeds × steps × tile sizes;
    // the history must also be invariant under re-tiling (one big tile).
    #[test]
    fn tiled_airfoil_matches_fused_and_sequential(
        nx in 4usize..12,
        ny in 3usize..8,
        seed in any::<u64>(),
        steps in 1usize..6,
        tile_blocks in 1usize..5,
        bs_sel in 0usize..3,
    ) {
        let block = [16usize, 48, 64][bs_sel];
        let (seq, _) = seq_airfoil(nx, ny, seed, steps);
        let (_, fused_hist, _) = fused_airfoil(nx, ny, seed, steps, block);
        let (sim, hist, _) = tiled_airfoil(nx, ny, seed, steps, tile_blocks * block, block);
        for (i, (&rms, &r)) in hist.iter().zip(&fused_hist).enumerate() {
            prop_assert!(
                (rms - r).abs() <= 1e-12 * (1.0 + r),
                "step {i}: tiled rms {rms} vs fused {r}"
            );
        }
        prop_assert!(sim.q.all_finite());
        prop_assert_eq!(sim.q.max_abs_diff(&seq.q), 0.0, "state must bit-match step_seq");
        // re-tiling must not change a single bit of the history
        let (sim1, hist1, _) = tiled_airfoil(nx, ny, seed, steps, 1_000_000, block);
        prop_assert_eq!(bits(&hist), bits(&hist1), "history must be tiling-invariant");
        prop_assert_eq!(sim1.q.max_abs_diff(&seq.q), 0.0);
    }

    // The same triangle-mesh property on volna, whose reduce-then-consume
    // dt global forces two epochs per recorded step.
    #[test]
    fn tiled_volna_matches_fused_and_sequential(
        nx in 4usize..12,
        ny in 3usize..8,
        seed in any::<u64>(),
        steps in 1usize..6,
        tile_blocks in 1usize..5,
        bs_sel in 0usize..3,
    ) {
        let block = [16usize, 48, 64][bs_sel];
        let (seq, _) = seq_volna(nx, ny, seed, steps);
        let (_, fused_hist, _) = fused_volna(nx, ny, seed, steps, block);
        let (sim, hist, _) = tiled_volna(nx, ny, seed, steps, tile_blocks * block, block);
        for (i, (&dt, &r)) in hist.iter().zip(&fused_hist).enumerate() {
            prop_assert!(
                (dt - r).abs() <= 1e-12 * r,
                "step {i}: tiled dt {dt} vs fused {r}"
            );
        }
        prop_assert!(sim.w.all_finite());
        prop_assert_eq!(sim.w.max_abs_diff(&seq.w), 0.0, "state must bit-match step_seq");
        let (sim1, hist1, _) = tiled_volna(nx, ny, seed, steps, 1_000_000, block);
        prop_assert_eq!(bits(&hist), bits(&hist1), "history must be tiling-invariant");
        prop_assert_eq!(sim1.w.max_abs_diff(&seq.w), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Integer-data chains are exact in i64: any cone bug — a fringe
    // element missed, executed twice for the owner, or staged from a
    // stale shadow — breaks equality outright.
    #[test]
    fn tiled_integer_chain_is_bit_identical(
        n_cells in 3usize..60,
        steps in 1usize..6,
        tile_elems in 1usize..40,
        block_sel in 0usize..4,
        init in prop::collection::vec(-100i64..100, 60..61),
    ) {
        let block = [1usize, 3, 4, 8][block_sel];
        let map = path_edge2cell(n_cells);
        let mut u: Vec<i64> = init[..n_cells].to_vec();
        let mut f = vec![0i64; n_cells - 1];
        let mut expect = u.clone();
        reference_path(&mut expect, steps);
        run_tiled_path(&map, &mut u, &mut f, steps, tile_elems, block);
        prop_assert_eq!(u, expect, "n_cells={} steps={} tile={} block={}",
            n_cells, steps, tile_elems, block);
    }
}

// ---------------------------------------------------------------------------
// deterministic acceptance pins
// ---------------------------------------------------------------------------

/// The headline acceptance criterion: four recorded steps, tiled vs
/// fused-threaded, on both apps, within 1e-12 — and the tiled reduction
/// *history* bit-identical under the ordered-fold discipline: any tile
/// size and any team size folds the same per-(step, phase, block)
/// partials in the same order, so re-tiling or re-threading the sweep
/// must not change a single bit. (Bit-equality with the fused path
/// itself is not attainable: the fused chain scatters edge increments
/// in plan-color order, perturbing cell state in the last ulp, while
/// tiled execution is bit-identical to plain sequential order.)
#[test]
fn four_step_reduction_histories_match_fused_and_are_config_invariant() {
    const STEPS: usize = 4;
    const BLOCK: usize = 48;
    for (nx, ny) in [(12, 8), (60, 30)] {
        let (fused_sim, fused_hist, _) = fused_airfoil(nx, ny, 0, STEPS, BLOCK);
        let (sim, hist, _) = tiled_airfoil(nx, ny, 0, STEPS, 4 * BLOCK, BLOCK);
        for (i, (&rms, &r)) in hist.iter().zip(&fused_hist).enumerate() {
            assert!(
                (rms - r).abs() <= 1e-12 * (1.0 + r),
                "airfoil {nx}x{ny} step {i}: tiled rms {rms} vs fused {r}"
            );
        }
        assert!(
            sim.q.max_abs_diff(&fused_sim.q) <= 1e-12,
            "airfoil {nx}x{ny} vs fused"
        );
        let (seq, _) = seq_airfoil(nx, ny, 0, STEPS);
        assert_eq!(sim.q.max_abs_diff(&seq.q), 0.0, "airfoil {nx}x{ny} state");
        // ordered-fold discipline: identical bits for every re-tiling /
        // re-threading of the same four recorded steps
        for (tile, team) in [
            (BLOCK, TEAM),
            (7 * BLOCK, TEAM),
            (4 * BLOCK, 1),
            (4 * BLOCK, 7),
        ] {
            let (_, h, _) = tiled_airfoil_team(nx, ny, 0, STEPS, tile, BLOCK, team);
            assert_eq!(bits(&h), bits(&hist), "airfoil tile={tile} team={team}");
        }

        let (fused_sim, fused_hist, _) = fused_volna(nx, ny, 0, STEPS, BLOCK);
        let (sim, hist, _) = tiled_volna(nx, ny, 0, STEPS, 4 * BLOCK, BLOCK);
        for (i, (&dt, &r)) in hist.iter().zip(&fused_hist).enumerate() {
            assert!(
                (dt - r).abs() <= 1e-12 * r,
                "volna {nx}x{ny} step {i}: tiled dt {dt} vs fused {r}"
            );
        }
        assert!(
            sim.w.max_abs_diff(&fused_sim.w) <= 1e-12,
            "volna {nx}x{ny} vs fused"
        );
        let (seq, _) = seq_volna(nx, ny, 0, STEPS);
        assert_eq!(sim.w.max_abs_diff(&seq.w), 0.0, "volna {nx}x{ny} state");
        for (tile, team) in [
            (BLOCK, TEAM),
            (7 * BLOCK, TEAM),
            (4 * BLOCK, 1),
            (4 * BLOCK, 7),
        ] {
            let (_, h, _) = tiled_volna_team(nx, ny, 0, STEPS, tile, BLOCK, team);
            assert_eq!(bits(&h), bits(&hist), "volna tile={tile} team={team}");
        }
    }
}

/// Degenerate tilings collapse to paths that already exist and must
/// keep the exact same answers: one tile spanning the mesh (no fringe at
/// all), a tile of a single block (maximal fringe), and N = 1 (tiling
/// reduces to within-step fusion).
#[test]
fn degenerate_tilings_still_match() {
    const BLOCK: usize = 48;
    let (nx, ny) = (12, 8);
    for steps in [1usize, 3] {
        let (seq_a, _) = seq_airfoil(nx, ny, 0, steps);
        let (seq_v, _) = seq_volna(nx, ny, 0, steps);
        let (_, fused_a, _) = fused_airfoil(nx, ny, 0, steps, BLOCK);
        let (_, fused_v, _) = fused_volna(nx, ny, 0, steps, BLOCK);
        for tile_cells in [BLOCK, 1_000_000] {
            let (sim, hist, _) = tiled_airfoil(nx, ny, 0, steps, tile_cells, BLOCK);
            for (i, (&rms, &r)) in hist.iter().zip(&fused_a).enumerate() {
                assert!(
                    (rms - r).abs() <= 1e-12 * (1.0 + r),
                    "airfoil tile={tile_cells} steps={steps} step {i}: {rms} vs {r}"
                );
            }
            assert_eq!(sim.q.max_abs_diff(&seq_a.q), 0.0);
            let (sim, hist, _) = tiled_volna(nx, ny, 0, steps, tile_cells, BLOCK);
            for (i, (&dt, &r)) in hist.iter().zip(&fused_v).enumerate() {
                assert!(
                    (dt - r).abs() <= 1e-12 * r,
                    "volna tile={tile_cells} steps={steps} step {i}: {dt} vs {r}"
                );
            }
            assert_eq!(sim.w.max_abs_diff(&seq_v.w), 0.0);
        }
    }
}

/// The dispatch-round win that motivates tiling: sweeping tiles through
/// all N steps issues two pool rounds per epoch, strictly fewer than N
/// untiled fused steps issue — airfoil (no in-chain global consumption)
/// runs N steps in a single epoch.
#[test]
fn tiled_issues_fewer_rounds_than_n_fused_steps() {
    const STEPS: usize = 4;
    const BLOCK: usize = 48;
    let (nx, ny) = (12, 8);
    let (_, _, fused_rounds) = fused_airfoil(nx, ny, 0, STEPS, BLOCK);
    let (_, _, tiled_rounds) = tiled_airfoil(nx, ny, 0, STEPS, 4 * BLOCK, BLOCK);
    assert_eq!(tiled_rounds, 2, "airfoil: one epoch, compute + write-back");
    assert!(
        tiled_rounds < fused_rounds,
        "airfoil: tiled {tiled_rounds} rounds vs {STEPS}-step fused {fused_rounds}"
    );
    let (_, _, fused_rounds) = fused_volna(nx, ny, 0, STEPS, BLOCK);
    let (_, _, tiled_rounds) = tiled_volna(nx, ny, 0, STEPS, 4 * BLOCK, BLOCK);
    assert_eq!(
        tiled_rounds,
        4 * STEPS as u64,
        "volna: two epochs per step, two rounds per epoch"
    );
    assert!(
        tiled_rounds < fused_rounds,
        "volna: tiled {tiled_rounds} rounds vs {STEPS}-step fused {fused_rounds}"
    );
}

/// Tiles run every loop's `L`-lane chunk bodies under the SIMD shape
/// (`tiled_simd4`): four steps on both apps, two tile sizes, histories
/// and state within 1e-12 of fused-threaded.
#[test]
fn tiled_vector_bodies_match_fused() {
    const STEPS: usize = 4;
    const BLOCK: usize = 48;
    let (nx, ny) = (60, 30);
    let pool = ExecPool::new(TEAM);
    let (fused_a, fused_ah, _) = fused_airfoil(nx, ny, 0, STEPS, BLOCK);
    let (fused_v, fused_vh, _) = fused_volna(nx, ny, 0, STEPS, BLOCK);
    for tile in [BLOCK, 7 * BLOCK] {
        let mut sim = airfoil::Airfoil::<f64>::seeded(nx, ny, 0);
        let hist =
            airfoil::drivers::run_tiled_on::<f64, 4>(&mut sim, &pool, 0, STEPS, tile, BLOCK, None);
        assert_eq!(hist.len(), STEPS);
        for (i, (&rms, &r)) in hist.iter().zip(&fused_ah).enumerate() {
            assert!(
                (rms - r).abs() <= 1e-12 * (1.0 + r),
                "airfoil tile={tile} step {i}: tiled rms {rms} vs fused {r}"
            );
        }
        assert!(
            sim.q.max_abs_diff(&fused_a.q) <= 1e-12,
            "airfoil tile={tile} vs fused"
        );

        let mut sim = volna::Volna::<f64>::seeded(nx, ny, 0);
        let hist =
            volna::drivers::run_tiled_on::<f64, 4>(&mut sim, &pool, 0, STEPS, tile, BLOCK, None);
        assert_eq!(hist.len(), STEPS);
        for (i, (&dt, &r)) in hist.iter().zip(&fused_vh).enumerate() {
            assert!(
                (dt - r).abs() <= 1e-12 * r,
                "volna tile={tile} step {i}: tiled dt {dt} vs fused {r}"
            );
        }
        assert!(
            sim.w.max_abs_diff(&fused_v.w) <= 1e-12,
            "volna tile={tile} vs fused"
        );
    }
}

/// Tiles run in the state's layout: their shadows are stored like the
/// state, and copy-in and write-back move SoA rows one range per
/// component. A SoA state tiled with scalar bodies ends bit-identical to
/// the same run on AoS, state and history, on both apps, and stays SoA.
/// With 4-lane bodies the SoA row scatter lands a chunk's two targets
/// target by target instead of lane by lane
/// (`DatRef::scatter_add_rows_serial`), as every SoA vector row does:
/// the same sums up to reassociation.
#[test]
fn tiled_soa_state_matches_the_aos_run() {
    fn run<S: Simulation<R = f64>, const L: usize>(mut sim: S, layout: Layout) -> Vec<Vec<f64>> {
        sim.set_layout(layout);
        let pool = ExecPool::new(TEAM);
        let hist = run_tiled_on::<f64, L>(&mut sim, &pool, 0, 3, 96, 32, None);
        assert_eq!(sim.layout(), layout, "{} stays {}", S::NAME, layout.name());
        sim.set_layout(Layout::Aos);
        let mut out: Vec<Vec<f64>> = sim.evolving().iter().map(|d| d.data.clone()).collect();
        out.push(hist);
        out
    }
    fn check<S: Simulation<R = f64>>(fresh: impl Fn() -> S) {
        let (aos, soa) = (
            run::<S, 1>(fresh(), Layout::Aos),
            run::<S, 1>(fresh(), Layout::Soa),
        );
        for (i, (a, s)) in aos.iter().zip(&soa).enumerate() {
            assert_eq!(bits(a), bits(s), "{} L=1 dat {i}", S::NAME);
        }
        let (aos, soa) = (
            run::<S, 4>(fresh(), Layout::Aos),
            run::<S, 4>(fresh(), Layout::Soa),
        );
        for (i, (a, s)) in aos.iter().zip(&soa).enumerate() {
            for (x, y) in a.iter().zip(s) {
                assert!(
                    (x - y).abs() <= 1e-12 * (1.0 + x.abs()),
                    "{} L=4 dat {i}",
                    S::NAME
                );
            }
        }
    }
    check(|| airfoil::Airfoil::<f64>::seeded(20, 12, 3));
    check(|| volna::Volna::<f64>::seeded(20, 12, 3));
}

// ---------------------------------------------------------------------------
// schedule reuse: the tile cache each simulation state owns
// ---------------------------------------------------------------------------

/// What these tests need of an app beyond the library's [`Simulation`],
/// so each cache property is stated once for both.
trait TiledApp: Simulation<R = f64> + Clone {
    fn seeded(seed: u64) -> Self;
    /// Scale the first component of every fifth cell from `call` on.
    fn perturb(&mut self, call: usize);
}

fn tiled<A: TiledApp>(
    sim: &mut A,
    pool: &ExecPool,
    steps: usize,
    tile: usize,
    block: usize,
) -> (Vec<f64>, TileReport) {
    run_tiled_report_on::<f64, 1>(sim, pool, 0, steps, tile, block, None)
}

/// Bits of every evolving dat; the first is the cell state.
fn state<A: TiledApp>(sim: &A) -> Vec<Vec<u64>> {
    sim.evolving()
        .iter()
        .map(|d| d.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

impl TiledApp for airfoil::Airfoil<f64> {
    fn seeded(seed: u64) -> Self {
        airfoil::Airfoil::seeded(12, 8, seed)
    }
    fn perturb(&mut self, call: usize) {
        for c in (call..self.q.set_size).step_by(5) {
            self.q.row_mut(c)[0] *= 1.0 + 1.0e-3 * call as f64;
        }
    }
}

impl TiledApp for volna::Volna<f64> {
    fn seeded(seed: u64) -> Self {
        volna::Volna::seeded(12, 8, seed)
    }
    fn perturb(&mut self, call: usize) {
        for c in (call..self.w.set_size).step_by(5) {
            self.w.row_mut(c)[0] *= 1.0 + 1.0e-3 * call as f64;
        }
    }
}

/// `calls` calls of `(steps, tile, block)` on one state, with
/// `perturb(call)` applied before each, against the same calls from an
/// empty cache each time and against `step_seq` from the same states:
/// the first call inspects, every later one hits, and cell state,
/// history and every evolving dat stay bit-equal.
fn repeated_calls_reuse_one_schedule<A: TiledApp>(perturb: bool) {
    const BLOCK: usize = 48;
    let (calls, steps, tile) = (4, 3, 2 * BLOCK);
    let pool = ExecPool::new(TEAM);
    let mut cached = A::seeded(5);
    let (mut fresh, mut seq) = (cached.clone(), cached.clone());
    for call in 0..calls {
        if perturb {
            for s in [&mut cached, &mut fresh, &mut seq] {
                s.perturb(call);
            }
        }
        let h = tiled(&mut cached, &pool, steps, tile, BLOCK).0;
        *fresh.tiles_mut() = TileCache::new();
        let hf = tiled(&mut fresh, &pool, steps, tile, BLOCK).0;
        assert_eq!(bits(&h), bits(&hf), "call {call}: history");
        assert_eq!(state(&cached), state(&fresh), "call {call}: state");
        for _ in 0..steps {
            seq.step_seq(None);
        }
        assert_eq!(
            state(&cached)[0],
            state(&seq)[0],
            "call {call}: vs step_seq"
        );
    }
    assert_eq!(cached.tiles().builds(), 1);
    assert_eq!(cached.tiles().hits(), calls - 1);
}

/// The key covers the configuration: another step count, tile size or
/// block size inspects again, and so does returning to an earlier
/// configuration (one entry); state keeps matching `step_seq`.
fn configuration_changes_rebuild<A: TiledApp>() {
    // (steps, tile_cells, block, builds after the call)
    let calls = [
        (2, 96, 48, 1),
        (2, 96, 48, 1),
        (3, 96, 48, 2),
        (3, 144, 48, 3),
        (3, 144, 16, 4),
        (3, 144, 16, 4),
        (2, 96, 48, 5),
    ];
    let pool = ExecPool::new(TEAM);
    let mut sim = A::seeded(2);
    let mut seq = sim.clone();
    for (i, &(steps, tile, block, builds)) in calls.iter().enumerate() {
        tiled(&mut sim, &pool, steps, tile, block);
        for _ in 0..steps {
            seq.step_seq(None);
        }
        assert_eq!(sim.tiles().builds(), builds, "call {i}");
        assert_eq!(sim.tiles().hits(), i + 1 - builds, "call {i}");
        assert_eq!(state(&sim)[0], state(&seq)[0], "call {i}");
    }
}

/// A cloned state reuses the schedule without inspecting but owns its
/// buffers: it starts with none, and allocating them leaves the
/// original's alone.
fn clones_share_the_schedule_not_the_buffers<A: TiledApp>() {
    let pool = ExecPool::new(TEAM);
    let mut a = A::seeded(9);
    tiled(&mut a, &pool, 2, 96, 48);
    let held = a.tiles().held_bytes();
    assert!(held > 0, "buffers are kept after a call");
    let mut b = a.clone();
    assert_eq!(b.tiles().held_bytes(), 0, "a clone shares no buffers");
    let hb = tiled(&mut b, &pool, 2, 96, 48).0;
    assert_eq!((b.tiles().builds(), b.tiles().hits()), (1, 1));
    assert!(b.tiles().held_bytes() > 0);
    assert_eq!(
        a.tiles().held_bytes(),
        held,
        "the original's buffers are untouched"
    );
    let ha = tiled(&mut a, &pool, 2, 96, 48).0;
    assert_eq!(bits(&ha), bits(&hb));
    assert_eq!(state(&a), state(&b));
}

/// Zero steps is an empty call: empty history, an all-zero report, and
/// neither the state nor the cache changes.
fn zero_steps_is_a_no_op<A: TiledApp>() {
    let pool = ExecPool::new(2);
    let mut sim = A::seeded(3);
    let before = state(&sim);
    let (hist, report) = tiled(&mut sim, &pool, 0, 96, 48);
    assert!(hist.is_empty());
    assert_eq!(report, TileReport::default());
    assert_eq!(state(&sim), before);
    assert_eq!((sim.tiles().builds(), sim.tiles().hits()), (0, 0));
    assert_eq!(sim.tiles().held_bytes(), 0);
}

#[test]
fn repeated_calls_inspect_once_and_match_fresh_caches() {
    repeated_calls_reuse_one_schedule::<airfoil::Airfoil<f64>>(false);
    repeated_calls_reuse_one_schedule::<volna::Volna<f64>>(false);
}

/// Reused shadows are not zeroed between calls: a state changed between
/// calls must still bit-match, so no value of an earlier call leaks.
#[test]
fn perturbed_state_between_cached_calls_still_matches_sequential() {
    repeated_calls_reuse_one_schedule::<airfoil::Airfoil<f64>>(true);
    repeated_calls_reuse_one_schedule::<volna::Volna<f64>>(true);
}

#[test]
fn changing_steps_tile_or_block_rebuilds_the_schedule() {
    configuration_changes_rebuild::<airfoil::Airfoil<f64>>();
    configuration_changes_rebuild::<volna::Volna<f64>>();
}

#[test]
fn a_clone_hits_without_building_and_owns_its_buffers() {
    clones_share_the_schedule_not_the_buffers::<airfoil::Airfoil<f64>>();
    clones_share_the_schedule_not_the_buffers::<volna::Volna<f64>>();
}

#[test]
fn zero_steps_is_a_no_op_on_airfoil() {
    zero_steps_is_a_no_op::<airfoil::Airfoil<f64>>();
}

#[test]
fn zero_steps_is_a_no_op_on_volna() {
    zero_steps_is_a_no_op::<volna::Volna<f64>>();
}

/// One-step calls (block 64, four blocks per tile): three of them at
/// each lane width stay within 1e-12 of `step_seq`, dispatch pool
/// rounds, and report under `<app>_tiled` one execution and one
/// recorded step per call, in fewer rounds than the same loops issue
/// unfused.
fn one_step_calls_report_tiled_stats<S: Simulation<R = f64> + Clone>(fresh: S) {
    fn check<S: Simulation<R = f64> + Clone, const L: usize>(
        fresh: &S,
        reference: &S,
        hist: &[f64],
    ) {
        const BLOCK: usize = 64;
        let pool = ExecPool::new(TEAM);
        let rec = Recorder::new();
        let mut sim = fresh.clone();
        let r0 = pool.dispatch_rounds();
        for (i, &want) in hist.iter().enumerate() {
            let got = run_tiled_on::<f64, L>(&mut sim, &pool, 0, 1, 4 * BLOCK, BLOCK, Some(&rec));
            assert_eq!(got.len(), 1);
            assert!(
                (got[0] - want).abs() <= 1e-12 * want.abs(),
                "{} L = {L} step {i}: {} vs {want}",
                S::NAME,
                got[0]
            );
        }
        assert!(
            pool.dispatch_rounds() > r0,
            "{} L = {L}: no pool rounds",
            S::NAME
        );
        let d = sim.evolving()[0].max_abs_diff(reference.evolving()[0]);
        assert!(d <= 1e-12, "{} L = {L} diverged: {d:e} > 1e-12", S::NAME);
        let s = rec
            .fusion(&format!("{}_tiled", S::NAME))
            .expect("tiling stats");
        assert_eq!(s.executions, hist.len());
        assert_eq!(s.steps, hist.len(), "one recorded step per call");
        assert!(
            s.fused_rounds < s.unfused_rounds,
            "{} L = {L}: tiling must cut dispatch rounds",
            S::NAME
        );
    }
    let mut reference = fresh.clone();
    let hist: Vec<f64> = (0..3).map(|_| reference.step_seq(None)).collect();
    check::<S, 1>(&fresh, &reference, &hist);
    check::<S, 4>(&fresh, &reference, &hist);
    check::<S, 8>(&fresh, &reference, &hist);
}

#[test]
fn one_step_calls_report_tiled_stats_on_airfoil() {
    one_step_calls_report_tiled_stats(airfoil::Airfoil::<f64>::new(48, 24));
}

#[test]
fn one_step_calls_report_tiled_stats_on_volna() {
    one_step_calls_report_tiled_stats(volna::Volna::<f64>::new(20, 14));
}

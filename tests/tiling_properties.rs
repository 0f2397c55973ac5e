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
use ump_apps::{airfoil, volna};
use ump_core::{Access, ArgInfo, ExecPool, LoopProfile, PlanCache};
use ump_lazy::{Fusion, LoopDesc, Shape, TileCache, TileReport, TiledChain};
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
/// `u[e] += f[e]; u[e+1] += f[e]`, executed through the cone schedule.
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
    let mut chain = TiledChain::new("path");
    chain.register_set("cells", n_cells);
    chain.register_set("edges", n_edges);
    chain.register_map(map);
    let u_id = chain.register_dat("u", "cells", 1, u);
    let f_id = chain.register_dat("f", "edges", 1, f);
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
    for _ in 0..steps {
        chain.begin_step();
        chain.record(gather.clone(), move |ctx, e| {
            let u = ctx.dat(u_id);
            let v = u[e] + u[e + 1];
            unsafe { ctx.dat_mut(f_id)[e] = v };
        });
        chain.record(scatter.clone(), move |ctx, e| {
            let v = ctx.dat(f_id)[e];
            let u = unsafe { ctx.dat_mut(u_id) };
            u[e] += v;
            u[e + 1] += v;
        });
    }
    chain.execute(
        &pool,
        &mut TileCache::new(),
        tile_elems,
        block,
        2,
        1,
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

// ---------------------------------------------------------------------------
// schedule reuse: the tile cache each simulation state owns
// ---------------------------------------------------------------------------

/// Both apps behind one interface, so each cache property is stated once.
trait TiledApp: Clone {
    fn seeded(seed: u64) -> Self;
    fn tiled(
        &mut self,
        pool: &ExecPool,
        steps: usize,
        tile: usize,
        block: usize,
    ) -> (Vec<f64>, TileReport);
    fn step_seq(&mut self);
    /// Bits of every evolving dat; the first is the cell state.
    fn state(&self) -> Vec<Vec<u64>>;
    /// Scale the first component of every fifth cell from `call` on.
    fn perturb(&mut self, call: usize);
    fn tiles(&self) -> &TileCache<f64>;
    fn tiles_mut(&mut self) -> &mut TileCache<f64>;
}

fn dat_bits(dats: &[&ump_core::OpDat<f64>]) -> Vec<Vec<u64>> {
    dats.iter()
        .map(|d| d.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

impl TiledApp for airfoil::Airfoil<f64> {
    fn seeded(seed: u64) -> Self {
        airfoil::Airfoil::seeded(12, 8, seed)
    }
    fn tiled(
        &mut self,
        pool: &ExecPool,
        steps: usize,
        tile: usize,
        block: usize,
    ) -> (Vec<f64>, TileReport) {
        airfoil::drivers::run_tiled_report_on::<f64, 1>(self, pool, 0, steps, tile, block, None)
    }
    fn step_seq(&mut self) {
        airfoil::drivers::step_seq(self, None);
    }
    fn state(&self) -> Vec<Vec<u64>> {
        dat_bits(&[&self.q, &self.qold, &self.adt, &self.res])
    }
    fn perturb(&mut self, call: usize) {
        for c in (call..self.q.set_size).step_by(5) {
            self.q.row_mut(c)[0] *= 1.0 + 1.0e-3 * call as f64;
        }
    }
    fn tiles(&self) -> &TileCache<f64> {
        &self.tiles
    }
    fn tiles_mut(&mut self) -> &mut TileCache<f64> {
        &mut self.tiles
    }
}

impl TiledApp for volna::Volna<f64> {
    fn seeded(seed: u64) -> Self {
        volna::Volna::seeded(12, 8, seed)
    }
    fn tiled(
        &mut self,
        pool: &ExecPool,
        steps: usize,
        tile: usize,
        block: usize,
    ) -> (Vec<f64>, TileReport) {
        volna::drivers::run_tiled_report_on::<f64, 1>(self, pool, 0, steps, tile, block, None)
    }
    fn step_seq(&mut self) {
        volna::drivers::step_seq(self, None);
    }
    fn state(&self) -> Vec<Vec<u64>> {
        dat_bits(&[&self.w, &self.w_old, &self.w1, &self.res, &self.eflux])
    }
    fn perturb(&mut self, call: usize) {
        for c in (call..self.w.set_size).step_by(5) {
            self.w.row_mut(c)[0] *= 1.0 + 1.0e-3 * call as f64;
        }
    }
    fn tiles(&self) -> &TileCache<f64> {
        &self.tiles
    }
    fn tiles_mut(&mut self) -> &mut TileCache<f64> {
        &mut self.tiles
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
        let h = cached.tiled(&pool, steps, tile, BLOCK).0;
        *fresh.tiles_mut() = TileCache::new();
        let hf = fresh.tiled(&pool, steps, tile, BLOCK).0;
        assert_eq!(bits(&h), bits(&hf), "call {call}: history");
        assert_eq!(cached.state(), fresh.state(), "call {call}: state");
        for _ in 0..steps {
            seq.step_seq();
        }
        assert_eq!(
            cached.state()[0],
            seq.state()[0],
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
        sim.tiled(&pool, steps, tile, block);
        for _ in 0..steps {
            seq.step_seq();
        }
        assert_eq!(sim.tiles().builds(), builds, "call {i}");
        assert_eq!(sim.tiles().hits(), i + 1 - builds, "call {i}");
        assert_eq!(sim.state()[0], seq.state()[0], "call {i}");
    }
}

/// A cloned state reuses the schedule without inspecting but owns its
/// buffers: it starts with none, and allocating them leaves the
/// original's alone.
fn clones_share_the_schedule_not_the_buffers<A: TiledApp>() {
    let pool = ExecPool::new(TEAM);
    let mut a = A::seeded(9);
    a.tiled(&pool, 2, 96, 48);
    let held = a.tiles().held_bytes();
    assert!(held > 0, "buffers are kept after a call");
    let mut b = a.clone();
    assert_eq!(b.tiles().held_bytes(), 0, "a clone shares no buffers");
    let hb = b.tiled(&pool, 2, 96, 48).0;
    assert_eq!((b.tiles().builds(), b.tiles().hits()), (1, 1));
    assert!(b.tiles().held_bytes() > 0);
    assert_eq!(
        a.tiles().held_bytes(),
        held,
        "the original's buffers are untouched"
    );
    let ha = a.tiled(&pool, 2, 96, 48).0;
    assert_eq!(bits(&ha), bits(&hb));
    assert_eq!(a.state(), b.state());
}

/// Zero steps is an empty call: empty history, an all-zero report, and
/// neither the state nor the cache changes.
fn zero_steps_is_a_no_op<A: TiledApp>() {
    let pool = ExecPool::new(2);
    let mut sim = A::seeded(3);
    let before = sim.state();
    let (hist, report) = sim.tiled(&pool, 0, 96, 48);
    assert!(hist.is_empty());
    assert_eq!(report, TileReport::default());
    assert_eq!(sim.state(), before);
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

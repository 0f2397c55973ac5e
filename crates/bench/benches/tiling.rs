//! Cross-timestep sparse tiling vs the fused-threaded baseline: N
//! recorded timesteps swept tile-by-tile (each tile's working set stays
//! cache-resident across all N steps, at the price of redundant fringe
//! compute) against the same N steps through `step_chain` (fused groups).
//!
//! Both variants run on SoA storage — the layout the fused chains
//! execute natively, which the tiled executor shims through AoS like
//! the other non-fused backends — and are sampled *interleaved* (one
//! N-step fused chunk, one N-step tiled sweep, repeated) so slow host
//! drift cancels out of the ratio, the same paired scheme as
//! `benches/fusion.rs`. Results land in `BENCH_tiling.json` at the repo
//! root, recording the tile size, steps per tile, pool rounds, and the
//! measured redundant-compute fraction and copy traffic from the
//! executor's `TileReport`.
//!
//! Each tiled sample includes the *inspector* — re-recording the
//! super-chain and re-running the cone analysis — as well as the
//! executor sweep, since the current API derives the schedule per
//! invocation. The dispatch-round reduction is the robust win at this
//! mesh scale; wall-clock parity needs the inspector amortized over
//! many sweeps of a frozen schedule, as in the OP2 tiling lineage.

use std::cell::RefCell;
use ump_apps::{airfoil, volna};
use ump_core::{ExecPool, Layout, PlanCache};
use ump_lazy::{Fusion, Shape, TileReport};
use ump_simd::isa_name;
use ump_tune::HostProbe;

/// Requested team size, clamped to the probed core count (see
/// `benches/fusion.rs` for why).
const TEAM_REQUESTED: usize = 4;
const BLOCK: usize = 1024;
/// Timesteps recorded into one tiled super-chain (and the fused chunk
/// it is paired against).
const STEPS: usize = 4;
/// Anchor blocks per tile: `tile_cells = TILE_BLOCKS × BLOCK`.
const TILE_BLOCKS: usize = 16;
/// Interleaved (fused chunk, tiled sweep) pairs per app.
const PAIRS: usize = 15;

struct AppResult {
    name: &'static str,
    cells: usize,
    edges: usize,
    fused_ns: f64,
    tiled_ns: f64,
    rounds_fused: u64,
    rounds_tiled: u64,
    report: TileReport,
}

fn main() {
    let team = TEAM_REQUESTED.min(HostProbe::measure().cores.max(1));
    let pool = ExecPool::new(team);
    let tile_cells = TILE_BLOCKS * BLOCK;
    let mut results = Vec::new();

    // Airfoil, DP, 300x150 (the fusion bench's mesh)
    {
        let cache = PlanCache::new();
        let sim = RefCell::new(airfoil::Airfoil::<f64>::new(300, 150));
        sim.borrow_mut().set_layout(Layout::Soa);
        let (nc, ne) = {
            let s = sim.borrow();
            (s.case.mesh.n_cells(), s.case.mesh.n_edges())
        };
        let (fused_ns, tiled_ns) = paired_medians(
            PAIRS,
            || {
                for _ in 0..STEPS {
                    airfoil::drivers::step_chain::<_, 4>(
                        &pool,
                        &mut sim.borrow_mut(),
                        &cache,
                        Shape::Threaded,
                        Fusion::Groups,
                        0,
                        BLOCK,
                        None,
                    );
                }
            },
            || {
                airfoil::drivers::run_tiled_on::<f64, 1>(
                    &mut sim.borrow_mut(),
                    &pool,
                    0,
                    STEPS,
                    tile_cells,
                    BLOCK,
                    None,
                );
            },
        );
        println!("bench: airfoil_tiling/fused_{STEPS}steps median_ns={fused_ns:.1} paired={PAIRS}");
        println!("bench: airfoil_tiling/tiled_{STEPS}steps median_ns={tiled_ns:.1} paired={PAIRS}");

        let r0 = pool.dispatch_rounds();
        for _ in 0..STEPS {
            airfoil::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim.borrow_mut(),
                &cache,
                Shape::Threaded,
                Fusion::Groups,
                0,
                BLOCK,
                None,
            );
        }
        let rounds_fused = pool.dispatch_rounds() - r0;
        let r1 = pool.dispatch_rounds();
        let (_, report) = airfoil::drivers::run_tiled_report_on::<f64, 1>(
            &mut sim.borrow_mut(),
            &pool,
            0,
            STEPS,
            tile_cells,
            BLOCK,
            None,
        );
        let rounds_tiled = pool.dispatch_rounds() - r1;
        assert!(
            rounds_tiled < rounds_fused,
            "tiling must cut dispatch rounds ({rounds_tiled} vs {rounds_fused})"
        );
        results.push(AppResult {
            name: "airfoil_300x150_dp",
            cells: nc,
            edges: ne,
            fused_ns,
            tiled_ns,
            rounds_fused,
            rounds_tiled,
            report,
        });
    }

    // Volna, SP (the paper's Volna precision)
    {
        let cache = PlanCache::new();
        let sim = RefCell::new(volna::Volna::<f32>::new(150, 150));
        sim.borrow_mut().set_layout(Layout::Soa);
        let (nc, ne) = {
            let s = sim.borrow();
            (s.case.mesh.n_cells(), s.case.mesh.n_edges())
        };
        let (fused_ns, tiled_ns) = paired_medians(
            PAIRS,
            || {
                for _ in 0..STEPS {
                    volna::drivers::step_chain::<_, 4>(
                        &pool,
                        &mut sim.borrow_mut(),
                        &cache,
                        Shape::Threaded,
                        Fusion::Groups,
                        0,
                        BLOCK,
                        None,
                    );
                }
            },
            || {
                volna::drivers::run_tiled_on::<f32, 1>(
                    &mut sim.borrow_mut(),
                    &pool,
                    0,
                    STEPS,
                    tile_cells,
                    BLOCK,
                    None,
                );
            },
        );
        println!("bench: volna_tiling/fused_{STEPS}steps median_ns={fused_ns:.1} paired={PAIRS}");
        println!("bench: volna_tiling/tiled_{STEPS}steps median_ns={tiled_ns:.1} paired={PAIRS}");

        let r0 = pool.dispatch_rounds();
        for _ in 0..STEPS {
            volna::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim.borrow_mut(),
                &cache,
                Shape::Threaded,
                Fusion::Groups,
                0,
                BLOCK,
                None,
            );
        }
        let rounds_fused = pool.dispatch_rounds() - r0;
        let r1 = pool.dispatch_rounds();
        let (_, report) = volna::drivers::run_tiled_report_on::<f32, 1>(
            &mut sim.borrow_mut(),
            &pool,
            0,
            STEPS,
            tile_cells,
            BLOCK,
            None,
        );
        let rounds_tiled = pool.dispatch_rounds() - r1;
        assert!(
            rounds_tiled < rounds_fused,
            "tiling must cut dispatch rounds ({rounds_tiled} vs {rounds_fused})"
        );
        results.push(AppResult {
            name: "volna_150x150_sp",
            cells: nc,
            edges: ne,
            fused_ns,
            tiled_ns,
            rounds_fused,
            rounds_tiled,
            report,
        });
    }

    write_json(&results, team, tile_cells);
}

/// Alternate `a(); b();` `n` times (after one warm-up round each) and
/// return the median per-call nanoseconds of each.
fn paired_medians(n: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let mut ta = Vec::with_capacity(n);
    let mut tb = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = std::time::Instant::now();
        a();
        ta.push(t0.elapsed().as_nanos() as f64);
        let t0 = std::time::Instant::now();
        b();
        tb.push(t0.elapsed().as_nanos() as f64);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v[v.len() / 2]
    };
    (med(&mut ta), med(&mut tb))
}

/// Serialize to `BENCH_tiling.json` at the repo root.
fn write_json(results: &[AppResult], team: usize, tile_cells: usize) {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"cells\": {}, \"edges\": {}, \
                 \"fused_{STEPS}step_ns\": {:.1}, \"tiled_{STEPS}step_ns\": {:.1}, \
                 \"tiled_speedup\": {:.3}, \
                 \"dispatch_rounds_fused\": {}, \"dispatch_rounds_tiled\": {}, \
                 \"epochs\": {}, \"tiles\": {}, \
                 \"redundant_compute_fraction\": {:.5}, \
                 \"copy_in_bytes\": {:.0}, \"copy_out_bytes\": {:.0}, \
                 \"cross_step_bytes_not_restreamed\": {:.0}}}",
                r.name,
                r.cells,
                r.edges,
                r.fused_ns,
                r.tiled_ns,
                r.fused_ns / r.tiled_ns,
                r.rounds_fused,
                r.rounds_tiled,
                r.report.epochs,
                r.report.tiles,
                r.report.redundant_fraction(),
                r.report.copy_in_bytes,
                r.report.copy_out_bytes,
                r.report.cross_step_bytes_saved,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"tiling_tiled_vs_fused_timesteps\",\n  \"team\": {team},\n  \
         \"team_requested\": {TEAM_REQUESTED},\n  \"block_size\": {BLOCK},\n  \
         \"steps_per_tile\": {STEPS},\n  \"tile_cells\": {tile_cells},\n  \
         \"host_cpus\": {},\n  \"isa\": \"{}\",\n  \"layout\": \"soa\",\n  \
         \"sampling\": \"interleaved_pairs\",\n  \"pairs\": {PAIRS},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa_name(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tiling.json");
    std::fs::write(path, &json).expect("writing BENCH_tiling.json");
    println!("# wrote {path}");
    for r in results {
        println!(
            "# {}: tiled {:.2}x over {STEPS}-step fused, rounds {} -> {}, redundancy {:.3}",
            r.name,
            r.fused_ns / r.tiled_ns,
            r.rounds_fused,
            r.rounds_tiled,
            r.report.redundant_fraction()
        );
    }
}

//! Fused vs unfused timestep (the motivation for `ump-lazy`): the same
//! physics executed as independent `op_par_loop`s with a pool barrier
//! between each (the `threaded` backend) versus recorded into a chain
//! and dispatched one colored round per fused group (`step_chain` under `Fusion::Groups`).
//!
//! Measured on the 300×150 Airfoil mesh and a comparable Volna coastal
//! mesh, with the dispatch rounds per step counted from the pool's own
//! round counter and the chain's saved-bytes estimate taken from the
//! fusion instrumentation. Results land in `BENCH_fusion.json` at the
//! repo root. (Scalar vs vector bodies of the same chains are
//! measured by the reference benchmark's `airfoil_fused_simd_soa` and
//! `airfoil_simd_threaded` workloads, not here.)

use criterion::Criterion;
use ump_apps::{airfoil, volna};
use ump_core::{Backend, ExecPool, PlanCache, Recorder};
use ump_lazy::{Fusion, Shape};
use ump_tune::HostProbe;

/// Requested team size. The harness clamps this to the probed core
/// count: a 4-worker team on a 1-core container measures scheduler
/// churn, not the runtime, and buried the fused-SIMD comparison in
/// oversubscription noise. The clamp is recorded in the bench JSON
/// (`team` vs `team_requested`).
const TEAM_REQUESTED: usize = 4;
const BLOCK: usize = 1024;

struct AppResult {
    name: &'static str,
    cells: usize,
    edges: usize,
    unfused_ns: f64,
    fused_ns: f64,
    rounds_unfused: u64,
    rounds_fused: u64,
    bytes_saved_per_step: f64,
}

fn main() {
    let mut criterion = Criterion::default();
    let team = TEAM_REQUESTED.min(HostProbe::measure().cores.max(1));
    let pool = ExecPool::new(team);
    let mut results = Vec::new();

    // Airfoil, DP, 300x150 (the acceptance mesh)
    {
        let cache = PlanCache::new();
        let mut sim = airfoil::Airfoil::<f64>::new(300, 150);
        let (nc, ne) = (sim.case.mesh.n_cells(), sim.case.mesh.n_edges());
        // warm plans so the measurement is pure execution
        airfoil::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, BLOCK, None);
        airfoil::drivers::step_chain::<_, 4>(
            &pool,
            &mut sim,
            &cache,
            Shape::Threaded,
            Fusion::Groups,
            0,
            BLOCK,
            None,
        );

        let mut group = criterion.benchmark_group("airfoil_step");
        group.sample_size(15);
        group.bench_function("unfused", |b| {
            b.iter(|| {
                airfoil::drivers::step_on(
                    Backend::Threaded,
                    &mut sim,
                    &pool,
                    &cache,
                    0,
                    BLOCK,
                    None,
                )
            });
        });
        group.bench_function("fused", |b| {
            b.iter(|| {
                airfoil::drivers::step_chain::<_, 4>(
                    &pool,
                    &mut sim,
                    &cache,
                    Shape::Threaded,
                    Fusion::Groups,
                    0,
                    BLOCK,
                    None,
                )
            });
        });
        group.finish();

        let r0 = pool.dispatch_rounds();
        airfoil::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, BLOCK, None);
        let rounds_unfused = pool.dispatch_rounds() - r0;
        let rec = Recorder::new();
        let r1 = pool.dispatch_rounds();
        airfoil::drivers::step_chain::<_, 4>(
            &pool,
            &mut sim,
            &cache,
            Shape::Threaded,
            Fusion::Groups,
            0,
            BLOCK,
            Some(&rec),
        );
        let rounds_fused = pool.dispatch_rounds() - r1;
        let stats = rec.fusion("airfoil_step").expect("fusion stats");
        results.push(AppResult {
            name: "airfoil_300x150_dp",
            cells: nc,
            edges: ne,
            unfused_ns: median(&criterion, "airfoil_step/unfused"),
            fused_ns: median(&criterion, "airfoil_step/fused"),
            rounds_unfused,
            rounds_fused,
            bytes_saved_per_step: stats.bytes_saved,
        });
    }

    // Volna, SP (the paper's Volna precision)
    {
        let cache = PlanCache::new();
        let mut sim = volna::Volna::<f32>::new(150, 150);
        let (nc, ne) = (sim.case.mesh.n_cells(), sim.case.mesh.n_edges());
        volna::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, BLOCK, None);
        volna::drivers::step_chain::<_, 4>(
            &pool,
            &mut sim,
            &cache,
            Shape::Threaded,
            Fusion::Groups,
            0,
            BLOCK,
            None,
        );

        let mut group = criterion.benchmark_group("volna_step");
        group.sample_size(15);
        group.bench_function("unfused", |b| {
            b.iter(|| {
                volna::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, BLOCK, None)
            });
        });
        group.bench_function("fused", |b| {
            b.iter(|| {
                volna::drivers::step_chain::<_, 4>(
                    &pool,
                    &mut sim,
                    &cache,
                    Shape::Threaded,
                    Fusion::Groups,
                    0,
                    BLOCK,
                    None,
                )
            });
        });
        group.finish();

        let r0 = pool.dispatch_rounds();
        volna::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, BLOCK, None);
        let rounds_unfused = pool.dispatch_rounds() - r0;
        let rec = Recorder::new();
        let r1 = pool.dispatch_rounds();
        volna::drivers::step_chain::<_, 4>(
            &pool,
            &mut sim,
            &cache,
            Shape::Threaded,
            Fusion::Groups,
            0,
            BLOCK,
            Some(&rec),
        );
        let rounds_fused = pool.dispatch_rounds() - r1;
        let stats = rec.fusion("volna_step").expect("fusion stats");
        results.push(AppResult {
            name: "volna_150x150_sp",
            cells: nc,
            edges: ne,
            unfused_ns: median(&criterion, "volna_step/unfused"),
            fused_ns: median(&criterion, "volna_step/fused"),
            rounds_unfused,
            rounds_fused,
            bytes_saved_per_step: stats.bytes_saved,
        });
    }

    write_json(&results, team);
}

fn median(criterion: &Criterion, id: &str) -> f64 {
    criterion
        .collected
        .iter()
        .find(|s| s.id == id)
        .map(|s| s.median_ns)
        .unwrap_or(f64::NAN)
}

/// Serialize to `BENCH_fusion.json` at the repo root.
fn write_json(results: &[AppResult], team: usize) {
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"cells\": {}, \"edges\": {}, \
                 \"unfused_step_ns\": {:.1}, \"fused_step_ns\": {:.1}, \
                 \"fused_speedup\": {:.3}, \"dispatch_rounds_unfused_per_step\": {}, \
                 \"dispatch_rounds_fused_per_step\": {}, \"rounds_saved_per_step\": {}, \
                 \"bytes_not_restreamed_per_step\": {:.0}}}",
                r.name,
                r.cells,
                r.edges,
                r.unfused_ns,
                r.fused_ns,
                r.unfused_ns / r.fused_ns,
                r.rounds_unfused,
                r.rounds_fused,
                r.rounds_unfused.saturating_sub(r.rounds_fused),
                r.bytes_saved_per_step,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fusion_fused_vs_unfused_timestep\",\n  \"team\": {team},\n  \
         \"team_requested\": {TEAM_REQUESTED},\n  \
         \"block_size\": {BLOCK},\n  \"lanes\": 1,\n  \"host_cpus\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fusion.json");
    std::fs::write(path, &json).expect("writing BENCH_fusion.json");
    println!("# wrote {path}");
    for r in results {
        println!(
            "# {}: fused {:.2}x, rounds {} -> {} per step",
            r.name,
            r.unfused_ns / r.fused_ns,
            r.rounds_unfused,
            r.rounds_fused
        );
    }
}

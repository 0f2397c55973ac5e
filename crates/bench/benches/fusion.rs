//! Fused vs unfused timestep (the motivation for `ump-lazy`): the same
//! physics executed as independent `op_par_loop`s with a pool barrier
//! between each (the `threaded` backend) versus recorded into a chain
//! and dispatched one colored round per fused group (`step_chain` under `Fusion::Groups`).
//!
//! Measured on the 300×150 Airfoil mesh (the pool bench's baseline mesh)
//! and a comparable Volna coastal mesh, with the dispatch rounds per
//! step counted from the pool's own round counter and the chain's
//! saved-bytes estimate taken from the fusion instrumentation. Results
//! land in `BENCH_fusion.json` at the repo root, next to
//! `BENCH_pool.json`; the fused vs fused-SIMD comparison (same chains,
//! scalar vs 4-lane vector bodies) lands in `BENCH_fused_simd.json`.

use criterion::Criterion;
use ump_apps::{airfoil, volna};
use ump_core::{Backend, ExecPool, Layout, PlanCache, Recorder};
use ump_lazy::{Fusion, Shape};
use ump_simd::isa_name;
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

    // Fused vs fused-SIMD (the composition PR): identical chains and
    // union-write-set plans, scalar vs vector lane bodies, both on SoA
    // storage (the paper's layout for its vectorized backends; scalar
    // fused times the same on AoS and SoA to within run-to-run noise).
    // The two variants are sampled *interleaved* — one fused step, one
    // fused-SIMD step, repeated — so slow drift of the shared host
    // (frequency, noisy neighbors) cancels out of the ratio instead of
    // biasing whichever variant ran second. The lane count follows the
    // register shape: 4 × f64 and 8 × f32 both fill one 256-bit AVX
    // register.
    let mut simd_entries = Vec::new();

    // Airfoil, DP, L = 4
    {
        let cache = PlanCache::new();
        let sim = std::cell::RefCell::new(airfoil::Airfoil::<f64>::new(300, 150));
        sim.borrow_mut().set_layout(Layout::Soa);
        let (fused_ns, fused_simd_ns) = paired_medians(
            SIMD_PAIRS,
            || {
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
            },
            || {
                airfoil::drivers::step_chain::<f64, 4>(
                    &pool,
                    &mut sim.borrow_mut(),
                    &cache,
                    Shape::Simd { lanes: 4 },
                    Fusion::Groups,
                    0,
                    BLOCK,
                    None,
                );
            },
        );
        println!(
            "bench: airfoil_fused_simd/fused median_ns_per_iter={fused_ns:.1} paired={SIMD_PAIRS}"
        );
        println!("bench: airfoil_fused_simd/fused_simd4 median_ns_per_iter={fused_simd_ns:.1} paired={SIMD_PAIRS}");

        let r0 = pool.dispatch_rounds();
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
        let rounds_fused = pool.dispatch_rounds() - r0;
        let r1 = pool.dispatch_rounds();
        airfoil::drivers::step_chain::<f64, 4>(
            &pool,
            &mut sim.borrow_mut(),
            &cache,
            Shape::Simd { lanes: 4 },
            Fusion::Groups,
            0,
            BLOCK,
            None,
        );
        let rounds_fused_simd = pool.dispatch_rounds() - r1;
        assert!(
            rounds_fused_simd <= rounds_fused,
            "fused-SIMD must not add pool rounds"
        );
        simd_entries.push(SimdResult {
            name: "airfoil_300x150_dp",
            lanes: 4,
            fused_ns,
            fused_simd_ns,
            rounds_fused,
            rounds_fused_simd,
        });
    }

    // Volna, SP, L = 8
    {
        let cache = PlanCache::new();
        let sim = std::cell::RefCell::new(volna::Volna::<f32>::new(150, 150));
        sim.borrow_mut().set_layout(Layout::Soa);
        let (fused_ns, fused_simd_ns) = paired_medians(
            SIMD_PAIRS,
            || {
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
            },
            || {
                volna::drivers::step_chain::<f32, 8>(
                    &pool,
                    &mut sim.borrow_mut(),
                    &cache,
                    Shape::Simd { lanes: 8 },
                    Fusion::Groups,
                    0,
                    BLOCK,
                    None,
                );
            },
        );
        println!(
            "bench: volna_fused_simd/fused median_ns_per_iter={fused_ns:.1} paired={SIMD_PAIRS}"
        );
        println!("bench: volna_fused_simd/fused_simd8 median_ns_per_iter={fused_simd_ns:.1} paired={SIMD_PAIRS}");

        let r0 = pool.dispatch_rounds();
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
        let rounds_fused = pool.dispatch_rounds() - r0;
        let r1 = pool.dispatch_rounds();
        volna::drivers::step_chain::<f32, 8>(
            &pool,
            &mut sim.borrow_mut(),
            &cache,
            Shape::Simd { lanes: 8 },
            Fusion::Groups,
            0,
            BLOCK,
            None,
        );
        let rounds_fused_simd = pool.dispatch_rounds() - r1;
        assert!(
            rounds_fused_simd <= rounds_fused,
            "fused-SIMD must not add pool rounds"
        );
        simd_entries.push(SimdResult {
            name: "volna_150x150_sp",
            lanes: 8,
            fused_ns,
            fused_simd_ns,
            rounds_fused,
            rounds_fused_simd,
        });
    }

    write_simd_json(&simd_entries, team);
    write_json(&results, team);
}

/// Interleaved pairs per fused vs fused-SIMD comparison.
const SIMD_PAIRS: usize = 25;

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

struct SimdResult {
    name: &'static str,
    lanes: usize,
    fused_ns: f64,
    fused_simd_ns: f64,
    rounds_fused: u64,
    rounds_fused_simd: u64,
}

/// Serialize the fused vs fused-SIMD comparison to
/// `BENCH_fused_simd.json` at the repo root.
fn write_simd_json(entries: &[SimdResult], team: usize) {
    let rows: Vec<String> = entries
        .iter()
        .map(|r| {
            format!(
                "    {{\"app\": \"{}\", \"lanes\": {}, \"fused_step_ns\": {:.1}, \
                 \"fused_simd_step_ns\": {:.1}, \"fused_simd_speedup\": {:.3}, \
                 \"dispatch_rounds_fused_per_step\": {}, \
                 \"dispatch_rounds_fused_simd_per_step\": {}}}",
                r.name,
                r.lanes,
                r.fused_ns,
                r.fused_simd_ns,
                r.fused_ns / r.fused_simd_ns,
                r.rounds_fused,
                r.rounds_fused_simd,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fusion_fused_vs_fused_simd_timestep\",\n  \"team\": {team},\n  \
         \"team_requested\": {TEAM_REQUESTED},\n  \"block_size\": {BLOCK},\n  \
         \"host_cpus\": {},\n  \"isa\": \"{}\",\n  \"layout\": \"soa\",\n  \
         \"sampling\": \"interleaved_pairs\",\n  \"pairs\": {SIMD_PAIRS},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa_name(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fused_simd.json");
    std::fs::write(path, &json).expect("writing BENCH_fused_simd.json");
    println!("# wrote {path}");
    for r in entries {
        println!(
            "# {} fused-SIMD{}: {:.2}x over fused, rounds {} vs {}",
            r.name,
            r.lanes,
            r.fused_ns / r.fused_simd_ns,
            r.rounds_fused,
            r.rounds_fused_simd
        );
    }
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

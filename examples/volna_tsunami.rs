//! The Volna tsunami scenario: a Gaussian source over synthetic shelf
//! bathymetry, propagated with the RK2 shallow-water solver; prints wave
//! arrival at a line of coastal "gauges" and checks mass conservation.
//!
//! ```text
//! cargo run --release --example volna_tsunami [n steps]
//! ```

use ump::apps::volna::{drivers, Volna};
use ump::core::{ExecPool, PlanCache};
use ump::Backend;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric args: n steps"))
        .collect();
    let n = args.first().copied().unwrap_or(128);
    let steps = args.get(1).copied().unwrap_or(200);

    let mut sim = Volna::<f32>::new(2 * n, n);
    println!(
        "Volna: {} triangles, source peak {:.2} m, total volume {:.4e}",
        sim.w.set_size,
        sim.max_eta(),
        sim.total_volume()
    );

    // gauges along the shore-normal line y = 25
    let gauges: Vec<usize> = [30.0, 50.0, 70.0, 85.0, 95.0]
        .iter()
        .map(|&gx| nearest_cell(&sim, gx, 25.0))
        .collect();

    // 8-lane single-precision SIMD on the calling thread (no team needed)
    let (simd8, pool, cache) = (
        Backend::Simd { lanes: 8 },
        ExecPool::new(1),
        PlanCache::new(),
    );
    let v0 = sim.total_volume();
    let mut time = 0.0f64;
    for step in 0..steps {
        let dt = drivers::step_on(simd8, &mut sim, &pool, &cache, 0, 1024, None);
        time += dt;
        if step % (steps / 10).max(1) == 0 {
            let etas: Vec<String> = gauges
                .iter()
                .map(|&c| {
                    let r = sim.w.row(c);
                    format!("{:+.3}", r[0] + r[3])
                })
                .collect();
            println!(
                "t = {time:7.2}  η at gauges (x=30,50,70,85,95): {}",
                etas.join("  ")
            );
        }
    }
    let v1 = sim.total_volume();
    println!("\nafter {steps} steps (t = {time:.2}):");
    println!("  max |η| = {:.4} m", sim.max_eta());
    println!("  volume drift = {:.3e} (relative)", (v1 - v0).abs() / v0);
    assert!((v1 - v0).abs() < 1e-3 * v0, "mass not conserved");
    assert!(sim.w.all_finite(), "solution blew up");
    println!("mass conserved, solution finite ✓");
}

fn nearest_cell(sim: &Volna<f32>, x: f64, y: f64) -> usize {
    let mesh = &sim.case.mesh;
    (0..mesh.n_cells())
        .min_by(|&a, &b| {
            let da = dist2(mesh.cell_centroid(a), x, y);
            let db = dist2(mesh.cell_centroid(b), x, y);
            da.partial_cmp(&db).unwrap()
        })
        .unwrap()
}

fn dist2(c: [f64; 2], x: f64, y: f64) -> f64 {
    (c[0] - x).powi(2) + (c[1] - y).powi(2)
}

//! The Airfoil benchmark end-to-end: run the solver through every
//! backend, print per-kernel breakdowns and the vectorization speedup —
//! a laptop-scale rendition of the paper's Fig. 6 measurement.
//!
//! ```text
//! cargo run --release --example airfoil [nx ny iters]
//! ```

use ump::apps::airfoil::{drivers, Airfoil};
use ump::apps::dist;
use ump::core::{ExecPool, PlanCache, Recorder};
use ump::lazy::{ExchangePolicy, Shape};
use ump::Backend;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric args: nx ny iters"))
        .collect();
    let nx = args.first().copied().unwrap_or(300);
    let ny = args.get(1).copied().unwrap_or(150);
    let iters = args.get(2).copied().unwrap_or(20);
    println!("Airfoil {nx}x{ny} cells, {iters} iterations per backend\n");

    let mut results: Vec<(&str, f64, f64)> = Vec::new(); // (name, seconds, final rms)

    // scalar sequential (the baseline of Fig. 5)
    {
        let rec = Recorder::new();
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let mut rms = 0.0;
        for _ in 0..iters {
            rms = drivers::step_seq(&mut sim, Some(&rec));
        }
        print_breakdown("scalar sequential", &rec);
        results.push(("scalar", rec.total_seconds(), rms));
    }
    // one persistent worker team and plan cache for the pooled backends
    let pool = ExecPool::new(0);
    let cache = PlanCache::new();
    // explicit SIMD (Fig. 3b)
    {
        let rec = Recorder::new();
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let mut rms = 0.0;
        for _ in 0..iters {
            let simd = Backend::Simd { lanes: 4 };
            rms = drivers::step_on(simd, &mut sim, &pool, &cache, 0, 1024, Some(&rec));
        }
        print_breakdown("explicit SIMD (4 lanes, DP)", &rec);
        results.push(("simd", rec.total_seconds(), rms));
    }
    // threaded + SIMD hybrid: the same loop declaration on the team
    {
        let rec = Recorder::new();
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let mut rms = 0.0;
        for _ in 0..iters {
            let hybrid = Backend::SimdThreaded { lanes: 4 };
            rms = drivers::step_on(hybrid, &mut sim, &pool, &cache, 0, 1024, Some(&rec));
        }
        print_breakdown("threads × SIMD hybrid", &rec);
        results.push(("hybrid", rec.total_seconds(), rms));
    }
    // message-passing backend: 2 ranks, each a fused chain with
    // halo/compute overlap
    {
        let case = ump::mesh::generators::quad_channel(nx, ny);
        let t0 = std::time::Instant::now();
        let (_q, hist) = dist::run_mpi_fused::<Airfoil<f64>, 4>(
            &case,
            2,
            1,
            1024,
            iters,
            Shape::Threaded,
            ExchangePolicy::Overlap,
        );
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "message-passing (2 ranks): rms history tail = {:.3e}",
            hist.last().unwrap()
        );
        results.push(("mpi", secs, *hist.last().unwrap()));
    }

    println!("\nsummary:");
    let base = results[0].1;
    for (name, secs, rms) in &results {
        println!(
            "  {name:<8} {secs:>8.3}s  speedup {:>5.2}x  final rms {rms:.6e}",
            base / secs
        );
    }
    let rms0 = results[0].2;
    assert!(
        results
            .iter()
            .all(|(_, _, r)| (r - rms0).abs() < 1e-9 * rms0),
        "backends disagree!"
    );
    println!("all backends converge to the same residual ✓");
}

fn print_breakdown(title: &str, rec: &Recorder) {
    println!("{title}:");
    for (name, s) in rec.report() {
        println!(
            "  {name:<12} {:>8.3}s  {:>7.2} GB/s  {:>7.2} GFLOP/s",
            s.seconds,
            s.gb_per_s(),
            s.gflop_per_s()
        );
    }
    println!("  total        {:>8.3}s\n", rec.total_seconds());
}

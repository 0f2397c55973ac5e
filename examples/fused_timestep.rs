//! Cross-loop fusion end-to-end: run the Airfoil and Volna timesteps
//! unfused (the `threaded` backend, one pool dispatch per loop) and
//! fused (`step_chain` under `Fusion::Groups`, one colored dispatch per fusable group via
//! the `ump_lazy` chain runtime), print the timing, dispatch rounds and the
//! re-streamed bytes fusion avoided.
//!
//! ```text
//! cargo run --release --example fused_timestep [nx ny iters]
//! ```

use ump::core::{Backend, ExecPool, PlanCache, Recorder};
use ump::lazy::{Fusion, Shape};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric args: nx ny iters"))
        .collect();
    let nx = args.first().copied().unwrap_or(300);
    let ny = args.get(1).copied().unwrap_or(150);
    let iters = args.get(2).copied().unwrap_or(20);
    let pool = ExecPool::new(ump::core::exec::default_threads());
    println!(
        "fused vs unfused, {} threads, {iters} iterations\n",
        pool.n_threads()
    );

    // ---- Airfoil (DP) ------------------------------------------------
    let cache = PlanCache::new();
    let mut sim = ump::apps::airfoil::Airfoil::<f64>::new(nx, ny);
    ump::apps::airfoil::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, 1024, None);
    let r0 = pool.dispatch_rounds();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        ump::apps::airfoil::drivers::step_on(
            Backend::Threaded,
            &mut sim,
            &pool,
            &cache,
            0,
            1024,
            None,
        );
    }
    let unfused_s = t0.elapsed().as_secs_f64();
    let unfused_rounds = (pool.dispatch_rounds() - r0) / iters as u64;

    let rec = Recorder::new();
    let mut sim = ump::apps::airfoil::Airfoil::<f64>::new(nx, ny);
    ump::apps::airfoil::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        1024,
        None,
    );
    let r1 = pool.dispatch_rounds();
    let t1 = std::time::Instant::now();
    for _ in 0..iters {
        ump::apps::airfoil::drivers::step_chain::<_, 4>(
            &pool,
            &mut sim,
            &cache,
            Shape::Threaded,
            Fusion::Groups,
            0,
            1024,
            Some(&rec),
        );
    }
    let fused_s = t1.elapsed().as_secs_f64();
    let fused_rounds = (pool.dispatch_rounds() - r1) / iters as u64;
    let stats = rec.fusion("airfoil_step").expect("chain stats");

    println!("Airfoil {nx}x{ny} (DP):");
    println!("  unfused: {unfused_s:.3}s, {unfused_rounds} dispatch rounds/step");
    println!(
        "  fused:   {fused_s:.3}s, {fused_rounds} dispatch rounds/step  ({:.2}x)",
        unfused_s / fused_s
    );
    println!(
        "  chain:   {} loops -> {} groups, {} rounds saved/step, {:.1} MB not re-streamed/step",
        stats.loops / stats.executions,
        stats.groups / stats.executions,
        stats.rounds_saved() / stats.executions,
        stats.bytes_saved / stats.executions as f64 / 1e6
    );

    // ---- Volna (SP) --------------------------------------------------
    let (vx, vy) = (nx / 2, ny);
    let cache = PlanCache::new();
    let mut sim = ump::apps::volna::Volna::<f32>::new(vx, vy);
    ump::apps::volna::drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, 1024, None);
    let r0 = pool.dispatch_rounds();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        ump::apps::volna::drivers::step_on(
            Backend::Threaded,
            &mut sim,
            &pool,
            &cache,
            0,
            1024,
            None,
        );
    }
    let unfused_s = t0.elapsed().as_secs_f64();
    let unfused_rounds = (pool.dispatch_rounds() - r0) / iters as u64;

    let rec = Recorder::new();
    let mut sim = ump::apps::volna::Volna::<f32>::new(vx, vy);
    ump::apps::volna::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        1024,
        None,
    );
    let r1 = pool.dispatch_rounds();
    let t1 = std::time::Instant::now();
    for _ in 0..iters {
        ump::apps::volna::drivers::step_chain::<_, 4>(
            &pool,
            &mut sim,
            &cache,
            Shape::Threaded,
            Fusion::Groups,
            0,
            1024,
            Some(&rec),
        );
    }
    let fused_s = t1.elapsed().as_secs_f64();
    let fused_rounds = (pool.dispatch_rounds() - r1) / iters as u64;
    let stats = rec.fusion("volna_step").expect("chain stats");

    println!("\nVolna {vx}x{vy} (SP):");
    println!("  unfused: {unfused_s:.3}s, {unfused_rounds} dispatch rounds/step");
    println!(
        "  fused:   {fused_s:.3}s, {fused_rounds} dispatch rounds/step  ({:.2}x)",
        unfused_s / fused_s
    );
    println!(
        "  chain:   {} loops -> {} groups, {} rounds saved/step, {:.1} MB not re-streamed/step",
        stats.loops / stats.executions,
        stats.groups / stats.executions,
        stats.rounds_saved() / stats.executions,
        stats.bytes_saved / stats.executions as f64 / 1e6
    );

    // per-group breakdown of the fused Volna step (its recorder is the
    // one still in scope)
    println!("\nfused group timings (Volna, from the Recorder):");
    for (name, s) in rec.report() {
        println!(
            "  {name:<40} {:>8.3}s  {:>7.1} GB/s",
            s.seconds,
            s.gb_per_s()
        );
    }
}

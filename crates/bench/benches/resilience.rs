//! Recovery overhead vs checkpoint period (the resilience layer's
//! core cost/benefit trade: checkpoint often and pay snapshot cost
//! every period, or checkpoint rarely and pay replay cost on failure).
//!
//! For each checkpoint period the resilient distributed driver runs
//! the Airfoil fused chain twice on the same mesh and rank layout:
//!
//! * **clean** — no injected faults; the delta over periods isolates
//!   the steady-state checkpoint tax (snapshotting every evolving dat
//!   each period);
//! * **killed** — rank `ranks-1` is killed at a fixed step; the
//!   coordinated rollback restores every rank from the last
//!   checkpoint and replays, so the overhead over the clean run is
//!   the recovery cost — dominated by `replayed_steps`, which shrinks
//!   as the period shrinks.
//!
//! Every killed run is asserted bit-identical to the clean run before
//! its time is recorded — a number from a diverged run is worthless.
//! Results land in `BENCH_resilience.json` at the repo root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ump_apps::{airfoil, dist};
use ump_core::OpDat;
use ump_fault::FaultPlan;
use ump_lazy::{ExchangePolicy, Shape};
use ump_mesh::generators::quad_channel;

const NX: usize = 120;
const NY: usize = 60;
const RANKS: usize = 2;
const THREADS_PER_RANK: usize = 2;
const BLOCK: usize = 256;
const ITERS: usize = 24;
const KILL_STEP: u64 = 18;
const PERIODS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_millis(500);

struct PeriodResult {
    period: usize,
    clean_s: f64,
    killed_s: f64,
    replayed_steps: usize,
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let case = quad_channel(NX, NY);

    // reference: the plain (non-resilient) fused distributed run the
    // golden guarantee is anchored to
    let (q_ref, _): (OpDat<f64>, _) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &case,
        RANKS,
        THREADS_PER_RANK,
        BLOCK,
        ITERS,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );

    let timed = |period: usize, injector: Option<&FaultPlan>| -> (f64, OpDat<f64>, usize) {
        let mut samples = Vec::with_capacity(REPS);
        let mut last = None;
        for _ in 0..REPS {
            let inj = injector.map(|plan| Arc::new(plan.injector()));
            let t0 = Instant::now();
            let (q, _, report) = dist::run_mpi_fused_resilient::<airfoil::Airfoil<f64>, 4>(
                &case,
                RANKS,
                THREADS_PER_RANK,
                BLOCK,
                ITERS,
                Shape::Threaded,
                ExchangePolicy::Overlap,
                period,
                inj,
                IO_TIMEOUT,
            );
            samples.push(t0.elapsed().as_secs_f64());
            last = Some((q, report.replayed_steps));
        }
        samples.sort_by(f64::total_cmp);
        let (q, replayed) = last.unwrap();
        (samples[samples.len() / 2], q, replayed)
    };

    let mut results = Vec::new();
    for period in PERIODS {
        let (clean_s, q_clean, _) = timed(period, None);
        assert!(
            bits_eq(&q_ref.data, &q_clean.data),
            "period {period}: resilient clean run diverged from plain run"
        );

        let plan = FaultPlan::new().with_kill_rank(RANKS - 1, KILL_STEP);
        let (killed_s, q_killed, replayed) = timed(period, Some(&plan));
        assert!(
            bits_eq(&q_ref.data, &q_killed.data),
            "period {period}: recovered run diverged from fault-free run"
        );

        println!(
            "# period {period:>2}: clean {clean_s:.3}s  killed {killed_s:.3}s  \
             overhead {:+.3}s  replayed {replayed} steps",
            killed_s - clean_s
        );
        results.push(PeriodResult {
            period,
            clean_s,
            killed_s,
            replayed_steps: replayed,
        });
    }

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"checkpoint_every\": {}, \"clean_s\": {:.4}, \"killed_s\": {:.4}, \
                 \"recovery_overhead_s\": {:.4}, \"replayed_steps\": {}}}",
                r.period,
                r.clean_s,
                r.killed_s,
                r.killed_s - r.clean_s,
                r.replayed_steps,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"recovery_overhead_vs_checkpoint_period\",\n  \"app\": \
         \"airfoil_{NX}x{NY}_dp\",\n  \"backend\": \"mpi_fused\",\n  \"ranks\": {RANKS},\n  \
         \"threads_per_rank\": {THREADS_PER_RANK},\n  \"team\": {THREADS_PER_RANK},\n  \
         \"lanes\": 1,\n  \"block_size\": {BLOCK},\n  \
         \"iters\": {ITERS},\n  \"kill_rank\": {},\n  \"kill_step\": {KILL_STEP},\n  \
         \"reps\": {REPS},\n  \"bit_identical\": true,\n  \"host_cpus\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        RANKS - 1,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resilience.json");
    std::fs::write(path, &json).expect("writing BENCH_resilience.json");
    println!("# wrote {path}");
}

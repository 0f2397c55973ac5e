//! Halo/compute overlap vs blocking exchange (the distributed fused
//! backend's latency-hiding claim, paper §6.5's MPI-overhead axis).
//!
//! Both configurations run the *same* rank-local fused chain in the same
//! compute order (interior blocks → boundary blocks, bit-identical
//! results); they differ only in where the halo receives complete:
//!
//! * **blocking** — every exchange finishes immediately after its sends
//!   are posted (the classical `op_mpi_halo_exchanges` schedule), so a
//!   rank waits whenever its peer has not reached the matching send yet;
//! * **overlap** — receives are deferred until the first boundary block
//!   needs the data, with the interior blocks of `res_calc` (and the
//!   whole save/adt/update groups) executed while the messages fly.
//!
//! Measured on the 300×150 Airfoil mesh (the pool/fusion benches'
//! baseline) at 2/4/8 ranks, one inline-execution pool per rank — the
//! rank level is the parallel axis under test. The universe models a
//! wire latency per message (`Universe::with_message_latency`, the
//! interconnect analogue of the SIMT backend's `sched_overhead_ns`):
//! without it, this process-local runtime delivers instantly and there
//! is nothing for either schedule to hide. The per-rank seconds spent
//! *waiting inside exchange finishes* come from the chain's halo
//! instrumentation and isolate the hidden latency directly. Results land
//! in `BENCH_halo.json` at the repo root.

use std::time::{Duration, Instant};

use ump_apps::airfoil::Airfoil;
use ump_apps::dist::Rank;
use ump_core::{distribute, ExecPool, PlanCache, Recorder};
use ump_lazy::{ExchangePolicy, Shape};
use ump_mesh::generators::quad_channel;
use ump_minimpi::Universe;
use ump_part::rcb;

const BLOCK: usize = 1024;
const THREADS_PER_RANK: usize = 1;
const WARMUP_STEPS: usize = 2;
const STEPS: usize = 20;
const REPS: usize = 7;
/// Modeled wire latency per point-to-point message — the order of a
/// large halo packet on a commodity cluster interconnect.
const WIRE_LATENCY_US: u64 = 500;

struct RankResult {
    ranks: usize,
    halo_cells: usize,
    blocking_s: f64,
    overlap_s: f64,
    blocking_wait_s: f64,
    overlap_wait_s: f64,
}

fn main() {
    let case = quad_channel(300, 150);
    let mut results = Vec::new();

    for ranks in [2usize, 4, 8] {
        let pts: Vec<[f64; 2]> = (0..case.mesh.n_cells())
            .map(|c| case.mesh.cell_centroid(c))
            .collect();
        let partition = rcb(&pts, ranks as u32);
        let locals = distribute(&case.mesh, &partition);
        let halo_cells: usize = locals.iter().map(|lm| lm.cell_halo.recv_volume()).sum();
        let total_cells = case.mesh.n_cells();

        let run = |policy: ExchangePolicy| -> (f64, f64) {
            let mut samples: Vec<(f64, f64)> = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let rec = Recorder::new();
                let elapsed = {
                    let (case, locals, rec) = (&case, &locals, &rec);
                    let out = Universe::new(ranks)
                        .with_message_latency(Duration::from_micros(WIRE_LATENCY_US))
                        .run(move |comm| {
                            let cache = PlanCache::new();
                            let pool = ExecPool::new(THREADS_PER_RANK);
                            let mut state =
                                Rank::<Airfoil<f64>>::new(case, locals[comm.rank()].clone());
                            for _ in 0..WARMUP_STEPS {
                                state.step_fused_chain::<4>(
                                    comm,
                                    &cache,
                                    &pool,
                                    Shape::Threaded,
                                    BLOCK,
                                    total_cells,
                                    policy,
                                    None,
                                    None,
                                );
                            }
                            comm.barrier();
                            let t0 = Instant::now();
                            for _ in 0..STEPS {
                                state.step_fused_chain::<4>(
                                    comm,
                                    &cache,
                                    &pool,
                                    Shape::Threaded,
                                    BLOCK,
                                    total_cells,
                                    policy,
                                    Some(rec),
                                    None,
                                );
                            }
                            comm.barrier();
                            t0.elapsed().as_secs_f64()
                        });
                    // the barriers make every rank's window the makespan
                    out[0]
                };
                let wait = ["halo[q]", "halo[adt]"]
                    .iter()
                    .filter_map(|name| rec.get(name))
                    .map(|s| s.seconds)
                    .sum::<f64>();
                samples.push((elapsed, wait));
            }
            // median sample (robust to scheduler noise on small hosts)
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            samples[samples.len() / 2]
        };

        let (blocking_s, blocking_wait_s) = run(ExchangePolicy::Blocking);
        let (overlap_s, overlap_wait_s) = run(ExchangePolicy::Overlap);
        println!(
            "# {ranks} ranks: blocking {blocking_s:.3}s (wait {blocking_wait_s:.3}s) \
             overlap {overlap_s:.3}s (wait {overlap_wait_s:.3}s) speedup {:.3}x",
            blocking_s / overlap_s
        );
        results.push(RankResult {
            ranks,
            halo_cells,
            blocking_s,
            overlap_s,
            blocking_wait_s,
            overlap_wait_s,
        });
    }

    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"ranks\": {}, \"halo_cells\": {}, \"blocking_s\": {:.4}, \
                 \"overlap_s\": {:.4}, \"overlap_speedup\": {:.3}, \
                 \"blocking_halo_wait_s\": {:.4}, \"overlap_halo_wait_s\": {:.4}}}",
                r.ranks,
                r.halo_cells,
                r.blocking_s,
                r.overlap_s,
                r.blocking_s / r.overlap_s,
                r.blocking_wait_s,
                r.overlap_wait_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"halo_overlap_vs_blocking_exchange\",\n  \"app\": \
         \"airfoil_300x150_dp\",\n  \"backend\": \"mpi_fused\",\n  \"threads_per_rank\": \
         {THREADS_PER_RANK},\n  \"team\": {THREADS_PER_RANK},\n  \"lanes\": 1,\n  \
         \"block_size\": {BLOCK},\n  \"steps\": {STEPS},\n  \
         \"reps\": {REPS},\n  \"wire_latency_us\": {WIRE_LATENCY_US},\n  \
         \"host_cpus\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_halo.json");
    std::fs::write(path, &json).expect("writing BENCH_halo.json");
    println!("# wrote {path}");
}

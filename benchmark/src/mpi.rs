//! `airfoil_mpi2_halo`: the distributed fused chain on `ump_minimpi`
//! ranks, driven as `crates/bench/benches/halo.rs` drives it.

use std::time::{Duration, Instant};

use ump_apps::airfoil::mpi::rank_state_from_global;
use ump_apps::airfoil::{drivers, Airfoil};
use ump_core::dist::assemble_owned;
use ump_core::{distribute, ExecPool, LocalMesh, OpDat, PlanCache, Recorder};
use ump_lazy::{ExchangePolicy, Shape};
use ump_minimpi::{Comm, Universe};
use ump_part::rcb;

use crate::measure::clamp_to_host;
use crate::run::{
    is_traced_op, put_core, put_end_to_end, put_fusion, put_kernels, put_op_tail, Args, CoreCounts,
    Outcome, Window, TRACED_MIN_OPS,
};
use crate::sim::put_setup_layers;
use crate::table::{MpiConfig, BLOCK, CHECK_STEPS, MIN_OPS, SETUPS, TOL_F64};
use crate::trace::Tracer;

/// The host-side half of a set-up: seeded global state, partition and
/// rank-local meshes.
struct Host {
    sim: Airfoil<f64>,
    locals: Vec<LocalMesh>,
    part_sizes: Vec<usize>,
    rcb_ms: f64,
    distribute_ms: f64,
    seconds: f64,
}

fn host_setup(cfg: &MpiConfig, ranks: usize, seed: u64, tracer: &mut Tracer) -> Host {
    let t = Instant::now();
    let sim = tracer.span("setup.seeded", "ump_apps", None, || {
        Airfoil::<f64>::seeded(cfg.nx, cfg.ny, seed)
    });
    let mesh = &sim.case.mesh;
    let t_rcb = Instant::now();
    let partition = tracer.span("setup.rcb", "ump_part", None, || {
        let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
        rcb(&pts, ranks as u32)
    });
    let rcb_ms = t_rcb.elapsed().as_secs_f64() * 1e3;
    let t_dist = Instant::now();
    let locals = tracer.span("setup.distribute", "ump_core", None, || {
        distribute(mesh, &partition)
    });
    let distribute_ms = t_dist.elapsed().as_secs_f64() * 1e3;
    Host {
        part_sizes: partition.sizes(),
        locals,
        rcb_ms,
        distribute_ms,
        seconds: t.elapsed().as_secs_f64(),
        sim,
    }
}

/// One rank's state, pool and plan cache inside a universe.
struct Rank<'a> {
    comm: &'a Comm,
    state: ump_apps::airfoil::mpi::RankState<f64>,
    pool: ExecPool,
    cache: PlanCache,
    total_cells: usize,
}

impl<'a> Rank<'a> {
    fn new(comm: &'a Comm, host: &Host, threads: usize) -> Rank<'a> {
        Rank {
            comm,
            state: rank_state_from_global(
                &host.sim.case,
                host.locals[comm.rank()].clone(),
                &host.sim,
            ),
            pool: ExecPool::new(threads),
            cache: PlanCache::new(),
            total_cells: host.sim.case.mesh.n_cells(),
        }
    }

    /// One distributed timestep; the global normalized RMS.
    fn step(&mut self, rec: Option<&Recorder>) -> f64 {
        self.state.step_fused_chain::<4>(
            self.comm,
            &self.cache,
            &self.pool,
            Shape::Threaded,
            BLOCK,
            self.total_cells,
            ExchangePolicy::Overlap,
            rec,
            None,
        )
    }

    /// Barrier-to-barrier timed window. Rank 0's clock decides when to
    /// stop, voted every `batch` steps so the ranks leave together. With
    /// a recorder this is a traced run's window: the recorder and the
    /// op span are on for the ops of the traced class.
    fn window(
        &mut self,
        seconds: f64,
        min_ops: usize,
        batch: usize,
        rec: Option<&Recorder>,
        tracer: &mut Tracer,
    ) -> Window {
        let mut w = Window::default();
        self.comm.barrier();
        let t0 = Instant::now();
        loop {
            for _ in 0..batch {
                let id = w.op_ms.len() as u64;
                let rec = rec.filter(|_| is_traced_op(id));
                let t = Instant::now();
                let span = tracer.begin_if(rec.is_some(), "op", "ump_apps", Some(id));
                let rms = self.step(rec);
                tracer.end(span);
                w.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !rms.is_finite() {
                    w.failed += 1;
                }
            }
            let done = self.comm.rank() == 0
                && t0.elapsed().as_secs_f64() >= seconds
                && w.op_ms.len() >= min_ops;
            if self.comm.allreduce_sum(f64::from(u8::from(done))) > 0.0 {
                break;
            }
        }
        self.comm.barrier();
        w.wall_s = t0.elapsed().as_secs_f64();
        w
    }
}

/// What the timed universe hands back from each rank.
struct RankOut {
    first_op_end: Instant,
    check: Option<(bool, String)>,
    window: Window,
    rounds_per_step: f64,
    plan_builds: usize,
    plan_hits_per_step: f64,
}

pub fn run(cfg: &MpiConfig, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(args);
    let ranks = clamp_to_host(cfg.ranks);
    let universe =
        || Universe::new(ranks).with_message_latency(Duration::from_micros(cfg.latency_us));
    out.provenance.put("ranks_requested", cfg.ranks);
    out.provenance.put("ranks_granted", ranks);
    out.provenance.put("threads_per_rank", cfg.threads_per_rank);
    out.provenance.put("block", BLOCK);

    // cold set-ups that only reach their first op
    let n_setups = if args.traced { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(n_setups);
    for _ in 1..n_setups {
        let host = host_setup(cfg, ranks, args.seed, &mut Tracer::new(false));
        let launch = Instant::now();
        let ends = universe().run(|comm| {
            Rank::new(comm, &host, cfg.threads_per_rank).step(None);
            Instant::now()
        });
        setups.push(host.seconds + (ends[0] - launch).as_secs_f64());
    }

    // the timed instance
    let host = host_setup(cfg, ranks, args.seed, tracer);
    let mut reference = host.sim.clone();
    let mut expect = f64::NAN;
    tracer.span("check.step_seq", "ump_apps", None, || {
        for _ in 0..CHECK_STEPS {
            expect = drivers::step_seq(&mut reference, None);
        }
    });
    let rec = Recorder::new();
    let epoch = tracer.epoch();
    let launch = Instant::now();
    let universe_span = tracer.begin("universe", "ump_minimpi", None);
    let (mut rank_outs, rank_tracers): (Vec<RankOut>, Vec<Tracer>) = universe()
        .run(|comm| {
            let mut tracer = Tracer::on_thread(args.traced, epoch, comm.rank() as u32 + 1);
            let mut rank = tracer.span("setup.rank_state", "ump_apps", None, || {
                Rank::new(comm, &host, cfg.threads_per_rank)
            });
            let mut rms = tracer.span("setup.first_op", "ump_apps", None, || rank.step(None));
            let first_op_end = Instant::now();

            // check: the assembled q after CHECK_STEPS against step_seq
            tracer.span("check.backend", "ump_apps", None, || {
                for _ in 1..CHECK_STEPS {
                    rms = rank.step(None);
                }
            });
            let parts = comm.allgather((
                rank.state.q.data.clone(),
                rank.state.local.cell_global.clone(),
                rank.state.local.n_owned_cells,
            ));
            let check = (comm.rank() == 0).then(|| {
                let parts: Vec<(&[f64], &[u32], usize)> = parts
                    .iter()
                    .map(|(q, ids, owned)| (q.as_slice(), ids.as_slice(), *owned))
                    .collect();
                let q = OpDat::from_vec(
                    "q",
                    rank.total_cells,
                    4,
                    assemble_owned(&parts, rank.total_cells, 4),
                );
                let field = q.max_abs_diff(&reference.q);
                let red = ((rms - expect) / expect).abs();
                (
                    field <= TOL_F64 && red <= TOL_F64,
                    format!(
                        "{CHECK_STEPS} steps vs step_seq: assembled q diff {field:.3e}, \
                     reduction rel diff {red:.3e}, bound {TOL_F64:.0e}"
                    ),
                )
            });

            let (rounds0, hits0) = (rank.pool.dispatch_rounds(), rank.cache.hits());
            let window = if args.traced {
                rank.window(
                    args.seconds,
                    TRACED_MIN_OPS,
                    cfg.batch,
                    Some(&rec),
                    &mut tracer,
                )
            } else {
                rank.window(args.seconds, MIN_OPS, cfg.batch, None, &mut tracer)
            };
            let steps = window.op_ms.len() as f64;
            let rounds_per_step = (rank.pool.dispatch_rounds() - rounds0) as f64 / steps;
            let plan_hits_per_step = (rank.cache.hits() - hits0) as f64 / steps;
            let out = RankOut {
                first_op_end,
                check,
                window,
                rounds_per_step,
                plan_builds: rank.cache.builds(),
                plan_hits_per_step,
            };
            (out, tracer)
        })
        .into_iter()
        .unzip();
    tracer.end(universe_span);
    for t in rank_tracers {
        tracer.absorb(t);
    }
    let first_op_ms = (rank_outs[0].first_op_end - launch).as_secs_f64() * 1e3;
    setups.push(host.seconds + first_op_ms * 1e-3);
    let r0 = rank_outs.swap_remove(0);
    (out.correct, out.check_note) = r0.check.expect("rank 0 ran the check");

    // every rank times the same barrier-to-barrier window; rank 0's op
    // times are the op samples
    let window = r0.window;
    let cells = host.sim.case.mesh.n_cells() as f64;
    if !args.traced {
        put_end_to_end(&mut out, &window, cells * window.ok_ops() as f64, &setups);
        out.provenance.put("op_samples", window.op_ms.len());
        return out;
    }

    let traced = put_op_tail(&mut out, &window);
    let steps = traced.op_ms.len() as f64;
    let p50 = traced.p50();
    put_kernels(&mut out, &rec, [steps, 0.0], ranks as f64, traced.wall_s);
    put_fusion(&mut out, &rec);

    put_setup_layers::<Airfoil<f64>>(
        &mut out,
        tracer,
        (cfg.nx, cfg.ny),
        cfg.threads_per_rank,
        first_op_ms,
        1,
    );
    put_core(
        &mut out,
        tracer,
        &ExecPool::new(cfg.threads_per_rank),
        CoreCounts {
            plan_builds: r0.plan_builds as f64,
            plan_hits_per_op: r0.plan_hits_per_step,
            rounds_per_op: r0.rounds_per_step,
            steps_per_op: 1.0,
            op_ms: p50,
        },
    );

    out.put("part.rcb_ms", host.rcb_ms);
    out.put("part.distribute_ms", host.distribute_ms);
    let halo_cells: usize = host.locals.iter().map(|l| l.cell_halo.recv_volume()).sum();
    out.put("part.halo_cells", halo_cells as f64);
    let biggest = host.part_sizes.iter().copied().max().unwrap_or(0) as f64;
    out.put("part.imbalance", biggest * ranks as f64 / cells);
    // per step the chain exchanges q (4 words) and adt (1 word), one
    // message per peer and dat, in each of its two phases
    let (dats, phases) = (2.0, 2.0);
    let msgs: usize = host
        .locals
        .iter()
        .map(|l| l.cell_halo.sends.iter().filter(|s| !s.is_empty()).count())
        .sum();
    let sent_cells: usize = host.locals.iter().map(|l| l.cell_halo.send_volume()).sum();
    out.put("minimpi.msgs_per_step", msgs as f64 * dats * phases);
    out.put(
        "minimpi.bytes_per_step",
        sent_cells as f64 * (4.0 + 1.0) * 8.0 * phases,
    );
    let halo_wait_s: f64 = ["halo[q]", "halo[adt]"]
        .iter()
        .filter_map(|name| rec.get(name))
        .map(|s| s.seconds)
        .sum();
    let wait_ms = halo_wait_s * 1e3 / (ranks as f64 * steps);
    out.put("minimpi.halo_wait_ms_per_step", wait_ms);
    out.put("minimpi.halo_wait_share", wait_ms / p50);
    out
}

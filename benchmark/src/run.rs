//! What every workload shares: the run arguments, the timed window and
//! the outcome the driver contract prints.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ump_core::{ExecPool, Recorder};

use crate::measure::{max, median, median_secs, peak_rss_mb, percentile, Provenance};
use crate::table::{Workload, AIRFOIL_KERNELS, VOLNA_KERNELS};
use crate::trace::Tracer;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A traced run's ops alternate between two classes in blocks of this
/// many: one untraced block (no recorder, no span), then two traced.
/// `trace.overhead_frac` compares the classes' medians, so drift over
/// the window (warm-up, a service that holds on to memory) cancels.
pub const CLASS_BLOCK: u64 = 6;
/// A traced run measures layers, not percentiles: two full cycles of
/// the classes are floor enough.
pub const TRACED_MIN_OPS: usize = 36;

/// Whether op `id` of a traced run's window is in the traced class.
pub fn is_traced_op(id: u64) -> bool {
    !(id / CLASS_BLOCK).is_multiple_of(3)
}

pub struct Outcome {
    /// The check phase passed and every reported number is finite.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Only what this run measured; the result line zero-fills the rest.
    pub metrics: BTreeMap<String, f64>,
    pub provenance: Provenance,
    /// Human-readable detail of the check phase.
    pub check_note: String,
}

impl Outcome {
    pub fn new(args: &Args) -> Outcome {
        Outcome {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            provenance: Provenance::for_run(
                args.workload.name,
                args.seed,
                args.seconds,
                args.traced,
            ),
            check_note: String::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Per-op wall times of one timed window.
#[derive(Default)]
pub struct Window {
    pub op_ms: Vec<f64>,
    /// First op start to last op end.
    pub wall_s: f64,
    pub failed: u64,
}

impl Window {
    pub fn p50(&self) -> f64 {
        median(&self.op_ms)
    }

    pub fn ok_ops(&self) -> u64 {
        self.op_ms.len() as u64 - self.failed
    }

    /// The ops of one class of a traced run's window; its wall time is
    /// the sum of their times.
    pub fn class(&self, traced: bool) -> Window {
        let op_ms: Vec<f64> = (0u64..)
            .zip(&self.op_ms)
            .filter(|(id, _)| is_traced_op(*id) == traced)
            .map(|(_, ms)| *ms)
            .collect();
        Window {
            wall_s: op_ms.iter().sum::<f64>() * 1e-3,
            op_ms,
            ..Window::default()
        }
    }
}

/// An op whose reduction is not finite has failed.
pub fn finite(reduction: f64) -> Result<(), String> {
    if reduction.is_finite() {
        Ok(())
    } else {
        Err(format!("non-finite reduction {reduction}"))
    }
}

/// Run `op` back to back until `seconds` have passed and at least
/// `min_ops` ops ran. An op fails by returning `Err` (non-finite
/// reduction) or panicking; a panic also ends the window, since the
/// state it leaves behind is unknown.
pub fn timed_window(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Window {
    let mut w = Window::default();
    let t0 = Instant::now();
    loop {
        let id = w.op_ms.len() as u64;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| op(id)));
        w.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(Ok(())) => {}
            Ok(Err(why)) => {
                eprintln!("op {id} failed: {why}");
                w.failed += 1;
            }
            Err(_) => {
                eprintln!("op {id} panicked; ending the window");
                w.failed += 1;
                break;
            }
        }
        if t0.elapsed().as_secs_f64() >= seconds && w.op_ms.len() >= min_ops {
            break;
        }
    }
    w.wall_s = t0.elapsed().as_secs_f64();
    w
}

/// The four end-to-end metrics, same definition on every workload.
pub fn put_end_to_end(out: &mut Outcome, window: &Window, cell_steps_ok: f64, setups: &[f64]) {
    out.put("op_ms_p50", window.p50());
    out.put("cell_steps_per_s", cell_steps_ok / window.wall_s);
    out.put("setup_s", median(setups));
    out.put("peak_rss_mb", peak_rss_mb());
    out.attempted = window.op_ms.len() as u64;
    out.failed = window.failed;
}

/// Tail, sample count and tracing overhead of a traced run's window;
/// returns its traced class.
pub fn put_op_tail(out: &mut Outcome, window: &Window) -> Window {
    let traced = window.class(true);
    out.put("apps.op_ms_p90", percentile(&traced.op_ms, 0.9));
    out.put("apps.op_ms_max", max(&traced.op_ms));
    out.put("apps.op_samples", traced.op_ms.len() as f64);
    out.put(
        "trace.overhead_frac",
        traced.p50() / window.class(false).p50() - 1.0,
    );
    out.attempted = window.op_ms.len() as u64;
    out.failed = window.failed;
    traced
}

/// `kernel.<k>.*` and `apps.kernel_share` from a recorder. `steps[i]`
/// is how many timesteps the recorder covers for `kernels[i]`'s app,
/// `threads` how many threads' seconds it sums (message-passing ranks
/// share one recorder), `wall_s` the traced wall time.
pub fn put_kernels(out: &mut Outcome, rec: &Recorder, steps: [f64; 2], threads: f64, wall_s: f64) {
    let mut kernel_s = 0.0;
    let apps = [
        (&AIRFOIL_KERNELS[..], steps[0]),
        (&VOLNA_KERNELS[..], steps[1]),
    ];
    for (kernels, steps) in apps {
        for k in kernels {
            let Some(s) = rec.get(k) else {
                continue;
            };
            kernel_s += s.seconds;
            out.put(
                &format!("kernel.{k}.ms_per_step"),
                s.seconds * 1e3 / steps / threads,
            );
            out.put(&format!("kernel.{k}.gbs"), s.gb_per_s());
            out.put(&format!("kernel.{k}.gflops"), s.gflop_per_s());
        }
    }
    if kernel_s > 0.0 {
        out.put("apps.kernel_share", kernel_s / (wall_s * threads));
    }
}

/// `lazy.fused_*` from whatever chains the recorder saw.
pub fn put_fusion(out: &mut Outcome, rec: &Recorder) {
    let chains = rec.fusion_report();
    let steps: usize = chains.iter().map(|(_, f)| f.steps).sum();
    if steps == 0 {
        return;
    }
    let per_step = |total: f64| total / steps as f64;
    let sum = |f: &dyn Fn(&ump_core::FusionStats) -> f64| chains.iter().map(|(_, s)| f(s)).sum();
    out.put(
        "lazy.fused_rounds_per_step",
        per_step(sum(&|s| s.fused_rounds as f64)),
    );
    out.put(
        "lazy.rounds_saved_per_step",
        per_step(sum(&|s| s.rounds_saved() as f64)),
    );
    out.put(
        "lazy.bytes_saved_per_step",
        per_step(sum(&|s| s.bytes_saved)),
    );
}

/// What a workload counted of `ump_core` over its traced window.
pub struct CoreCounts {
    pub plan_builds: f64,
    pub plan_hits_per_op: f64,
    pub rounds_per_op: f64,
    pub steps_per_op: f64,
    /// The op time `core.dispatch_share` is a share of.
    pub op_ms: f64,
}

/// `core.*`. The empty round — a no-op round over `pool`'s whole team —
/// is the cost every dispatch round pays before any kernel work.
pub fn put_core(out: &mut Outcome, tracer: &mut Tracer, pool: &ExecPool, c: CoreCounts) {
    let team = pool.n_threads();
    let empty_us = 1e6
        * tracer.span("probe.empty_rounds", "ump_core", None, || {
            median_secs(10_000, || pool.run_round(team, 0, 1, &|_| {}))
        });
    out.put("core.plan_builds", c.plan_builds);
    out.put("core.plan_hits", c.plan_hits_per_op);
    out.put(
        "core.dispatch_rounds_per_step",
        c.rounds_per_op / c.steps_per_op,
    );
    out.put("core.empty_round_us", empty_us);
    out.put(
        "core.dispatch_share",
        c.rounds_per_op * empty_us * 1e-3 / c.op_ms,
    );
}

/// `host.*`: the stream probe runs in this process so kernel GB/s can
/// be read against it.
pub fn put_host(out: &mut Outcome, tracer: &mut Tracer, team_granted: usize) {
    let probe = tracer.span("probe.host_stream", "ump_tune", None, || {
        ump_tune::HostProbe::measure()
    });
    out.put("host.cpus", probe.cores as f64);
    out.put("host.team_granted", team_granted as f64);
    out.put("host.stream_gbs", probe.stream_gbs);
}

/// `color.*`: a cold two-level plan build on the workload's edge→cell
/// map, and the plan's shape.
pub fn put_color(out: &mut Outcome, tracer: &mut Tracer, mesh: &ump_mesh::Mesh2d, lanes: usize) {
    use ump_color::{PlanInputs, PlanStats, TwoLevelPlan};
    let maps = [&mesh.edge2cell];
    let inputs = PlanInputs::new(mesh.n_edges(), maps.to_vec(), crate::table::BLOCK);
    let mut plan = None;
    let build_s = tracer.span("probe.plan_build", "ump_color", None, || {
        median_secs(5, || plan = Some(TwoLevelPlan::build(&inputs)))
    });
    let plan = plan.expect("built five times above");
    let stats = PlanStats::of_two_level(&plan, &maps, lanes);
    out.put("color.plan_build_ms", build_s * 1e3);
    out.put("color.block_colors", stats.n_block_colors as f64);
    out.put("color.max_elem_colors", stats.max_elem_colors as f64);
    out.put("color.reuse_factor", stats.reuse_factor);
}

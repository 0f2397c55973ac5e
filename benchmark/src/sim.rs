//! The five single-simulation workloads: one seeded Airfoil or Volna
//! state stepped through one backend on one pool.

use std::hint::black_box;
use std::time::Instant;

use ump_apps::airfoil::{self, Airfoil};
use ump_apps::volna::{self, Volna};
use ump_core::{Backend, ExecPool, Layout, OpDat, PlanCache, Recorder};
use ump_lazy::TileReport;
use ump_mesh::generators::{quad_channel, tri_coastal};
use ump_mesh::{MapTable, Mesh2d};
use ump_simd::{IdxVec, Real, VecR};

use crate::measure::{clamp_to_host, median_secs};
use crate::run::{
    finite, is_traced_op, put_color, put_core, put_end_to_end, put_fusion, put_host, put_kernels,
    put_op_tail, timed_window, Args, CoreCounts, Outcome, TRACED_MIN_OPS,
};
use crate::table::{App, Exec, SimConfig, BLOCK, CHECK_STEPS, MIN_OPS, SETUPS, TOL_F32, TOL_F64};
use crate::trace::Tracer;

/// `simd.gather_*` / `scatter_add_*` / `consecutive_run_frac`.
pub struct SimdProbe {
    pub gather_ns: f64,
    pub scatter_add_ns: f64,
    pub consecutive_frac: f64,
}

/// What the runner needs from an application at one precision.
pub trait SimApp: Clone {
    /// Index into `put_kernels`' per-app step counts.
    const APP_SLOT: usize;
    /// Agreement bound of the check phase, relative to the field's size.
    const TOL: f64;

    fn seeded(nx: usize, ny: usize, seed: u64) -> Self;
    /// Seconds of mesh generation and of `from_case` on its result, and
    /// the (unseeded) simulation built.
    fn time_build(nx: usize, ny: usize, tracer: &mut Tracer) -> (f64, f64, Self);
    fn mesh(&self) -> &Mesh2d;
    fn layout(&self) -> Layout;
    fn set_layout(&mut self, to: Layout);
    fn step_on(
        &mut self,
        backend: Backend,
        pool: &ExecPool,
        cache: &PlanCache,
        team: usize,
        rec: Option<&Recorder>,
    ) -> f64;
    fn step_seq(&mut self, rec: Option<&Recorder>) -> f64;
    fn run_tiled(
        &mut self,
        pool: &ExecPool,
        team: usize,
        steps: usize,
        tile_cells: usize,
        rec: Option<&Recorder>,
    ) -> (Vec<f64>, TileReport);
    /// Max |Δ| of the primary field against `other`, over the field's
    /// largest magnitude (at least 1).
    fn field_diff(&self, other: &Self) -> f64;
    fn simd_probe(&self) -> SimdProbe;
}

fn scaled_diff<R: Real>(a: &OpDat<R>, b: &OpDat<R>) -> f64 {
    let scale = b.data.iter().map(|v| v.to_f64().abs()).fold(1.0, f64::max);
    a.max_abs_diff(b) / scale
}

/// Gather and serialized scatter-add of every component of `dat`
/// through `map` at `L` lanes, as the SIMD drivers issue them.
fn gather_probe<R: Real, const L: usize>(dat: &OpDat<R>, map: &MapTable) -> SimdProbe {
    let view = dat.view();
    let groups = map.from_size / L;
    let lane_groups = || {
        (0..groups).flat_map(|g| {
            (0..map.dim)
                .map(move |j| IdxVec::<L>::load_strided(&map.data, g * L * map.dim + j, map.dim))
        })
    };
    let refs = (groups * L * map.dim) as f64;
    let consecutive = lane_groups()
        .filter(|idx| idx.consecutive_base().is_some())
        .count();
    let gather_s = median_secs(5, || {
        let mut acc = VecR::<R, L>::zero();
        for idx in lane_groups() {
            for c in 0..view.dim {
                acc += view.gatherv(&dat.data, idx, c);
            }
        }
        black_box(acc);
    });
    let mut scratch = dat.data.clone();
    let inc = VecR::<R, L>::splat(R::from_f64(1e-9));
    let scatter_s = median_secs(5, || {
        for idx in lane_groups() {
            for c in 0..view.dim {
                view.scatter_add_serialv(inc, &mut scratch, idx, c);
            }
        }
        black_box(&mut scratch);
    });
    SimdProbe {
        gather_ns: gather_s * 1e9 / refs,
        scatter_add_ns: scatter_s * 1e9 / refs,
        consecutive_frac: consecutive as f64 / (groups * map.dim) as f64,
    }
}

impl SimApp for Airfoil<f64> {
    const APP_SLOT: usize = 0;
    const TOL: f64 = TOL_F64;

    fn seeded(nx: usize, ny: usize, seed: u64) -> Self {
        Airfoil::seeded(nx, ny, seed)
    }

    fn time_build(nx: usize, ny: usize, tracer: &mut Tracer) -> (f64, f64, Self) {
        let t = Instant::now();
        let case = tracer.span("setup.mesh_generate", "ump_mesh", None, || {
            quad_channel(nx, ny)
        });
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sim = tracer.span("setup.from_case", "ump_apps", None, || {
            Airfoil::from_case(case)
        });
        (generate_s, t.elapsed().as_secs_f64(), sim)
    }

    fn mesh(&self) -> &Mesh2d {
        &self.case.mesh
    }

    fn layout(&self) -> Layout {
        Airfoil::layout(self)
    }

    fn set_layout(&mut self, to: Layout) {
        Airfoil::set_layout(self, to);
    }

    fn step_on(
        &mut self,
        backend: Backend,
        pool: &ExecPool,
        cache: &PlanCache,
        team: usize,
        rec: Option<&Recorder>,
    ) -> f64 {
        airfoil::drivers::step_on(backend, self, pool, cache, team, BLOCK, rec)
    }

    fn step_seq(&mut self, rec: Option<&Recorder>) -> f64 {
        airfoil::drivers::step_seq(self, rec)
    }

    fn run_tiled(
        &mut self,
        pool: &ExecPool,
        team: usize,
        steps: usize,
        tile_cells: usize,
        rec: Option<&Recorder>,
    ) -> (Vec<f64>, TileReport) {
        airfoil::drivers::run_tiled_report_on::<f64, 1>(
            self, pool, team, steps, tile_cells, BLOCK, rec,
        )
    }

    fn field_diff(&self, other: &Self) -> f64 {
        scaled_diff(&self.q, &other.q)
    }

    fn simd_probe(&self) -> SimdProbe {
        gather_probe::<f64, 4>(&self.q, &self.case.mesh.edge2cell)
    }
}

impl SimApp for Volna<f32> {
    const APP_SLOT: usize = 1;
    const TOL: f64 = TOL_F32;

    fn seeded(nx: usize, ny: usize, seed: u64) -> Self {
        Volna::seeded(nx, ny, seed)
    }

    fn time_build(nx: usize, ny: usize, tracer: &mut Tracer) -> (f64, f64, Self) {
        let t = Instant::now();
        let case = tracer.span("setup.mesh_generate", "ump_mesh", None, || {
            tri_coastal(nx, ny)
        });
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sim = tracer.span("setup.from_case", "ump_apps", None, || {
            Volna::from_case(case)
        });
        (generate_s, t.elapsed().as_secs_f64(), sim)
    }

    fn mesh(&self) -> &Mesh2d {
        &self.case.mesh
    }

    fn layout(&self) -> Layout {
        Volna::layout(self)
    }

    fn set_layout(&mut self, to: Layout) {
        Volna::set_layout(self, to);
    }

    fn step_on(
        &mut self,
        backend: Backend,
        pool: &ExecPool,
        cache: &PlanCache,
        team: usize,
        rec: Option<&Recorder>,
    ) -> f64 {
        volna::drivers::step_on(backend, self, pool, cache, team, BLOCK, rec)
    }

    fn step_seq(&mut self, rec: Option<&Recorder>) -> f64 {
        volna::drivers::step_seq(self, rec)
    }

    fn run_tiled(
        &mut self,
        pool: &ExecPool,
        team: usize,
        steps: usize,
        tile_cells: usize,
        rec: Option<&Recorder>,
    ) -> (Vec<f64>, TileReport) {
        volna::drivers::run_tiled_report_on::<f32, 1>(
            self, pool, team, steps, tile_cells, BLOCK, rec,
        )
    }

    fn field_diff(&self, other: &Self) -> f64 {
        scaled_diff(&self.w, &other.w)
    }

    fn simd_probe(&self) -> SimdProbe {
        gather_probe::<f32, 8>(&self.w, &self.case.mesh.edge2cell)
    }
}

/// `host.*`, `mesh.*`, `apps.from_case_s`, `apps.first_op_ms` and
/// `color.*`: the set-up layers, probed on a fresh build of the mesh.
pub fn put_setup_layers<S: SimApp>(
    out: &mut Outcome,
    tracer: &mut Tracer,
    (nx, ny): (usize, usize),
    team_granted: usize,
    first_op_ms: f64,
    lanes: usize,
) {
    put_host(out, tracer, team_granted);
    let (generate_s, from_case_s, built) = S::time_build(nx, ny, tracer);
    let mesh = built.mesh();
    out.put("mesh.generate_s", generate_s);
    out.put("mesh.cells", mesh.n_cells() as f64);
    out.put("mesh.edges", mesh.n_edges() as f64);
    out.put("apps.from_case_s", from_case_s);
    out.put("apps.first_op_ms", first_op_ms);
    put_color(out, tracer, mesh, lanes);
}

pub fn run(cfg: &SimConfig, args: &Args, tracer: &mut Tracer) -> Outcome {
    match cfg.app {
        App::AirfoilF64 => run_app::<Airfoil<f64>>(cfg, args, tracer),
        App::VolnaF32 => run_app::<Volna<f32>>(cfg, args, tracer),
    }
}

/// One cold instance: seeded state in the workload's layout, its own
/// pool and an empty plan cache.
struct Instance<S> {
    sim: S,
    pool: ExecPool,
    cache: PlanCache,
    team: usize,
    exec: Exec,
}

impl<S: SimApp> Instance<S> {
    fn steps_per_op(&self) -> usize {
        match self.exec {
            Exec::Step(_) => 1,
            Exec::Tiled { steps, .. } => steps,
        }
    }

    /// One op; the last timestep's reduction, and the tile report when
    /// the op is a tiled call.
    fn op(&mut self, rec: Option<&Recorder>) -> (f64, Option<TileReport>) {
        match self.exec {
            Exec::Step(backend) => (
                self.sim
                    .step_on(backend, &self.pool, &self.cache, self.team, rec),
                None,
            ),
            Exec::Tiled { steps, tile_cells } => {
                let (history, report) = self
                    .sim
                    .run_tiled(&self.pool, self.team, steps, tile_cells, rec);
                (history.last().copied().unwrap_or(f64::NAN), Some(report))
            }
        }
    }
}

struct Setup<S> {
    inst: Instance<S>,
    /// Clone of the seeded state before any op, kept for the check.
    seeded: Option<S>,
    setup_s: f64,
    first_op_ms: f64,
    first_reduction: f64,
}

/// One cold set-up: generate + build + layout + pool + fresh cache +
/// the first op (plan builds, inspector). Cloning the reference state
/// is not set-up and is left out of the time.
fn setup<S: SimApp>(
    cfg: &SimConfig,
    seed: u64,
    keep_seeded: bool,
    tracer: &mut Tracer,
) -> Setup<S> {
    let team = clamp_to_host(cfg.team);
    let span = tracer.begin("setup", "benchmark", None);
    let t = Instant::now();
    let mut sim = tracer.span("setup.seeded", "ump_apps", None, || {
        S::seeded(cfg.nx, cfg.ny, seed)
    });
    tracer.span("setup.set_layout", "ump_simd", None, || {
        sim.set_layout(cfg.layout)
    });
    let pool = tracer.span("setup.pool_spawn", "ump_core", None, || ExecPool::new(team));
    let cache = PlanCache::new();
    let build_s = t.elapsed().as_secs_f64();
    let seeded = keep_seeded.then(|| sim.clone());
    let mut inst = Instance {
        sim,
        pool,
        cache,
        team,
        exec: cfg.exec,
    };
    let t = Instant::now();
    let (first_reduction, _) = tracer.span("setup.first_op", "ump_apps", None, || inst.op(None));
    let first_op_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    Setup {
        inst,
        seeded,
        setup_s: build_s + first_op_s,
        first_op_ms: first_op_s * 1e3,
        first_reduction,
    }
}

/// The check phase: `CHECK_STEPS` timesteps (rounded up to whole ops,
/// the set-up's first op included) through the backend against the same
/// number through `step_seq` from the same seeded state. Doubles as the
/// warm-up.
fn check<S: SimApp>(s: &mut Setup<S>, tracer: &mut Tracer) -> (bool, String) {
    let per_op = s.inst.steps_per_op();
    let ops = CHECK_STEPS.div_ceil(per_op);
    let mut reduction = s.first_reduction;
    tracer.span("check.backend", "ump_apps", None, || {
        for _ in 1..ops {
            reduction = s.inst.op(None).0;
        }
    });
    let mut reference = s
        .seeded
        .take()
        .expect("the timed instance keeps its seeded state");
    reference.set_layout(Layout::Aos);
    let mut expect = f64::NAN;
    tracer.span("check.step_seq", "ump_apps", None, || {
        for _ in 0..ops * per_op {
            expect = reference.step_seq(None);
        }
    });
    let field = s.inst.sim.field_diff(&reference);
    let red = ((reduction - expect) / expect).abs();
    let ok = field <= S::TOL && red <= S::TOL;
    (
        ok,
        format!(
            "{} steps vs step_seq: field diff {field:.3e}, reduction rel diff {red:.3e}, bound {:.0e}",
            ops * per_op,
            S::TOL
        ),
    )
}

fn run_app<S: SimApp>(cfg: &SimConfig, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(args);
    let n_setups = if args.traced { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(n_setups);
    let mut last = None;
    for i in 0..n_setups {
        // the previous instance (and its pool threads) goes first, so
        // every set-up is cold and peak memory holds one instance
        drop(last.take());
        let s = setup::<S>(cfg, args.seed, i + 1 == n_setups, tracer);
        setups.push(s.setup_s);
        last = Some(s);
    }
    let mut s = last.expect("at least one set-up");
    out.provenance.put("team_requested", cfg.team);
    out.provenance.put("team_granted", s.inst.team);
    out.provenance.put("block", BLOCK);

    (out.correct, out.check_note) = check(&mut s, tracer);

    let cells = s.inst.sim.mesh().n_cells();
    let per_op = s.inst.steps_per_op();
    let cell_steps = |ops: u64| (cells * per_op) as f64 * ops as f64;
    let first_op_ms = s.first_op_ms;
    let inst = &mut s.inst;

    if !args.traced {
        let window = timed_window(args.seconds, MIN_OPS, |_| finite(inst.op(None).0));
        put_end_to_end(&mut out, &window, cell_steps(window.ok_ops()), &setups);
        out.provenance.put("op_samples", window.op_ms.len());
        return out;
    }

    // traced run: the recorder and the op span are on for the ops of
    // the traced class only
    let rec = Recorder::new();
    let (rounds0, hits0) = (inst.pool.dispatch_rounds(), inst.cache.hits());
    let mut tile_report = None;
    let window = timed_window(args.seconds, TRACED_MIN_OPS, |id| {
        let traced = is_traced_op(id);
        let span = tracer.begin_if(traced, "op", "ump_apps", Some(id));
        let (reduction, report) = inst.op(traced.then_some(&rec));
        tracer.end(span);
        tile_report = report.or(tile_report);
        finite(reduction)
    });
    let ops = window.op_ms.len() as f64;
    let rounds_per_op = (inst.pool.dispatch_rounds() - rounds0) as f64 / ops;
    let traced = put_op_tail(&mut out, &window);
    let p50 = traced.p50();
    let mut app_steps = [0.0; 2];
    app_steps[S::APP_SLOT] = (traced.op_ms.len() * per_op) as f64;
    put_kernels(&mut out, &rec, app_steps, 1.0, traced.wall_s);
    put_fusion(&mut out, &rec);
    if let Some(r) = tile_report {
        out.put("lazy.tile_rounds_per_op", r.rounds as f64);
        out.put("lazy.tile_epochs", r.epochs as f64);
        out.put("lazy.tile_redundant_frac", r.redundant_fraction());
        out.put(
            "lazy.tile_copy_mb_per_op",
            (r.copy_in_bytes + r.copy_out_bytes) / 1e6,
        );
        out.put(
            "lazy.tile_cross_step_mb_saved",
            r.cross_step_bytes_saved / 1e6,
        );
    }

    // layer probes, after the windows so they cannot warm or cool them
    let lanes = match cfg.exec {
        Exec::Step(b) => b.lanes(),
        Exec::Tiled { .. } => 1,
    };
    put_setup_layers::<S>(
        &mut out,
        tracer,
        (cfg.nx, cfg.ny),
        inst.team,
        first_op_ms,
        lanes,
    );
    put_core(
        &mut out,
        tracer,
        &inst.pool,
        CoreCounts {
            plan_builds: inst.cache.builds() as f64,
            plan_hits_per_op: (inst.cache.hits() - hits0) as f64 / ops,
            rounds_per_op,
            steps_per_op: per_op as f64,
            op_ms: p50,
        },
    );

    let (home, away) = match inst.sim.layout() {
        Layout::Aos => (Layout::Aos, Layout::Soa),
        other => (other, Layout::Aos),
    };
    let mut scratch = inst.sim.clone();
    let roundtrip_ms = 1e3
        * tracer.span("probe.layout_roundtrip", "ump_simd", None, || {
            median_secs(20, || {
                scratch.set_layout(away);
                scratch.set_layout(home);
            })
        });
    out.put("simd.layout_roundtrip_ms", roundtrip_ms);
    // step_on converts around every step of a non-fused backend on
    // non-AoS storage; the tiled entry point does the same per call
    let native = matches!(
        cfg.exec,
        Exec::Step(Backend::Fused | Backend::FusedSimt | Backend::FusedSimd { .. })
    );
    let pays_shim = home != Layout::Aos && !native;
    out.put(
        "simd.layout_share",
        if pays_shim { roundtrip_ms / p50 } else { 0.0 },
    );
    if lanes > 1 {
        let probe = tracer.span("probe.gather_scatter", "ump_simd", None, || {
            scratch.simd_probe()
        });
        out.put("simd.gather_ns_per_elem", probe.gather_ns);
        out.put("simd.scatter_add_ns_per_elem", probe.scatter_add_ns);
        out.put("simd.consecutive_run_frac", probe.consecutive_frac);
    }
    out
}

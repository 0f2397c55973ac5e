//! The one table: every workload, every metric name, every size.
//!
//! `BENCHMARK.json` at the repo root repeats the names below; the
//! `check` subcommand fails when the two disagree. Later issues claim
//! gains by these names, so nothing here is renamed once landed.

use ump_core::{Backend, Layout};

/// Colouring block size of every pooled backend in the suite.
pub const BLOCK: usize = 1024;
/// Threads a pooled workload asks for; clamped to `nproc` at run time.
pub const TEAM_REQUESTED: usize = 2;
/// Cold set-ups per untraced run; `setup_s` is their median and the
/// last instance is the one that gets timed.
pub const SETUPS: usize = 5;
/// Fewest timed ops of an untraced run, so the p90 has >= 10 samples
/// beyond it even when the window would end sooner.
pub const MIN_OPS: usize = 120;
/// Timesteps of the check phase (rounded up to whole ops).
pub const CHECK_STEPS: usize = 10;
/// The conformance law for f64 backends against `step_seq`.
pub const TOL_F64: f64 = 1e-12;
/// The bound `tests/volna_backends.rs` uses for f32, relative to the
/// field's magnitude.
pub const TOL_F32: f64 = 1e-4;

/// Which application and precision a single-simulation workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    AirfoilF64,
    VolnaF32,
}

/// What one op of a single-simulation workload calls.
#[derive(Clone, Copy, Debug)]
pub enum Exec {
    /// One `step_on` through a registered backend.
    Step(Backend),
    /// One `run_tiled_on::<_, 1>` call covering `steps` timesteps.
    Tiled { steps: usize, tile_cells: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    pub app: App,
    pub nx: usize,
    pub ny: usize,
    pub layout: Layout,
    pub exec: Exec,
    /// Requested team (1 for the sequential baseline).
    pub team: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct MpiConfig {
    pub nx: usize,
    pub ny: usize,
    pub ranks: usize,
    pub threads_per_rank: usize,
    pub latency_us: u64,
    /// Steps between two stop votes of the timed window.
    pub batch: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    pub pools: usize,
    pub team: usize,
    pub admission: usize,
    pub in_flight: usize,
    pub airfoil: (usize, usize),
    pub volna: (usize, usize),
    pub steps: u64,
    pub backends: [Backend; 3],
    pub warmup_jobs: usize,
    /// Timed jobs per requested second of window (see `serve.rs`).
    pub jobs_per_second: f64,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Sim(SimConfig),
    Mpi(MpiConfig),
    Serve(ServeConfig),
}

pub struct Workload {
    pub name: &'static str,
    /// One line; repeated in `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
}

const fn airfoil(nx: usize, ny: usize, layout: Layout, exec: Exec, team: usize) -> Kind {
    Kind::Sim(SimConfig {
        app: App::AirfoilF64,
        nx,
        ny,
        layout,
        exec,
        team,
    })
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "airfoil_seq",
        why: "plain single-threaded baseline (Airfoil f64 600x300, AoS, seq): only ump_apps scalar kernels and memory, so pool, plan, SIMD and lazy changes must leave it flat",
        kind: airfoil(600, 300, Layout::Aos, Exec::Step(Backend::Seq), 1),
    },
    Workload {
        name: "airfoil_simd_threaded",
        why: "the paper's headline shape, threads x explicit SIMD (simd_threaded4, team 2): ump_simd gather/scatter, ump_color plans and ump_core pool rounds on the per-loop drivers",
        kind: airfoil(
            600,
            300,
            Layout::Aos,
            Exec::Step(Backend::SimdThreaded { lanes: 4 }),
            TEAM_REQUESTED,
        ),
    },
    Workload {
        name: "airfoil_fused_simd_soa",
        why: "the repo's fastest path (fused_simd4 on SoA, team 2): ump_lazy chains run natively on DatView layouts with fewer rounds and no AoS shim",
        kind: airfoil(
            600,
            300,
            Layout::Soa,
            Exec::Step(Backend::FusedSimd { lanes: 4 }),
            TEAM_REQUESTED,
        ),
    },
    Workload {
        name: "volna_threaded_soa",
        why: "second app and precision (Volna f32 274x273): a non-fused backend on SoA pays step_on's AoS<->SoA round trip every step, so ump_simd::layout conversion dominates the op",
        kind: Kind::Sim(SimConfig {
            app: App::VolnaF32,
            nx: 274,
            ny: 273,
            layout: Layout::Soa,
            exec: Exec::Step(Backend::Threaded),
            team: TEAM_REQUESTED,
        }),
    },
    Workload {
        name: "airfoil_tiled4",
        why: "cross-timestep tiling (Airfoil f64 300x150, 4 steps per call): the ump_lazy::tile inspector reruns per call; ROADMAP item 3's keep-or-cut decision is judged here",
        kind: airfoil(
            300,
            150,
            Layout::Aos,
            Exec::Tiled {
                steps: 4,
                tile_cells: 16384,
            },
            TEAM_REQUESTED,
        ),
    },
    Workload {
        name: "airfoil_mpi2_halo",
        why: "distributed fused chain (2 ranks x 1 thread, 500 us wire latency, overlap): the only workload where ump_part and ump_minimpi exchange/wait are on the op's critical path",
        kind: Kind::Mpi(MpiConfig {
            nx: 300,
            ny: 150,
            ranks: 2,
            threads_per_rank: 1,
            latency_us: 500,
            batch: 25,
        }),
    },
    Workload {
        name: "serve_mixed",
        why: "dispatch-bound regime (ump_serve, 2 pools, closed loop of 8 small mixed jobs): job construction, queue wait, time slicing and the shared PlanCache outweigh kernel time",
        kind: Kind::Serve(ServeConfig {
            pools: 2,
            team: 1,
            admission: 64,
            in_flight: 8,
            airfoil: (150, 75),
            volna: (60, 42),
            steps: 10,
            backends: [
                Backend::Threaded,
                Backend::Fused,
                Backend::Simd { lanes: 4 },
            ],
            warmup_jobs: 6,
            jobs_per_second: 100.0,
        }),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        // the issue asked for 10 % on the three timings; the build host
        // runs in two speeds ~20 % apart for seconds at a time, so ten
        // seeds spread by up to 17 % (README, "Bounds") and the timings
        // carry the contract's widest bound; memory repeats to under 1 %
        e("op_ms_p50", "ms", "lower", 0.25),
        e("cell_steps_per_s", "cell.steps/s", "higher", 0.25),
        e("setup_s", "s", "lower", 0.25),
        e("peak_rss_mb", "MB", "lower", 0.05),
    ]
}

pub const AIRFOIL_KERNELS: [&str; 5] = ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"];
pub const VOLNA_KERNELS: [&str; 7] = [
    "sim_1",
    "compute_flux",
    "numerical_flux",
    "space_disc",
    "bc_flux",
    "RK_1",
    "RK_2",
];

pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("host.cpus", "count", "higher"),
        def("host.team_granted", "count", "higher"),
        def("host.stream_gbs", "GB/s", "higher"),
        def("mesh.generate_s", "s", "lower"),
        def("mesh.cells", "count", "higher"),
        def("mesh.edges", "count", "higher"),
        def("apps.from_case_s", "s", "lower"),
        def("apps.first_op_ms", "ms", "lower"),
        def("color.plan_build_ms", "ms", "lower"),
        def("color.block_colors", "count", "lower"),
        def("color.max_elem_colors", "count", "lower"),
        def("color.reuse_factor", "ratio", "higher"),
        def("core.plan_builds", "count", "lower"),
        def("core.plan_hits", "count", "higher"),
        def("core.dispatch_rounds_per_step", "count", "lower"),
        def("core.empty_round_us", "us", "lower"),
        def("core.dispatch_share", "ratio", "lower"),
        def("simd.layout_roundtrip_ms", "ms", "lower"),
        def("simd.layout_share", "ratio", "lower"),
        def("simd.gather_ns_per_elem", "ns", "lower"),
        def("simd.scatter_add_ns_per_elem", "ns", "lower"),
        def("simd.consecutive_run_frac", "ratio", "higher"),
    ];
    for k in AIRFOIL_KERNELS.iter().chain(&VOLNA_KERNELS) {
        v.push(def(&format!("kernel.{k}.ms_per_step"), "ms", "lower"));
        v.push(def(&format!("kernel.{k}.gbs"), "GB/s", "higher"));
        v.push(def(&format!("kernel.{k}.gflops"), "GFLOP/s", "higher"));
    }
    v.extend([
        def("apps.kernel_share", "ratio", "higher"),
        def("apps.op_ms_p90", "ms", "lower"),
        def("apps.op_ms_max", "ms", "lower"),
        def("apps.op_samples", "count", "higher"),
        def("lazy.fused_rounds_per_step", "count", "lower"),
        def("lazy.rounds_saved_per_step", "count", "higher"),
        def("lazy.bytes_saved_per_step", "B", "higher"),
        def("lazy.tile_rounds_per_op", "count", "lower"),
        def("lazy.tile_epochs", "count", "lower"),
        def("lazy.tile_redundant_frac", "ratio", "lower"),
        def("lazy.tile_copy_mb_per_op", "MB", "lower"),
        def("lazy.tile_cross_step_mb_saved", "MB", "higher"),
        def("part.rcb_ms", "ms", "lower"),
        def("part.distribute_ms", "ms", "lower"),
        def("part.halo_cells", "count", "lower"),
        def("part.imbalance", "ratio", "lower"),
        def("minimpi.halo_wait_ms_per_step", "ms", "lower"),
        def("minimpi.halo_wait_share", "ratio", "lower"),
        def("minimpi.msgs_per_step", "count", "lower"),
        def("minimpi.bytes_per_step", "B", "lower"),
        def("serve.jobs_per_s", "1/s", "higher"),
        def("serve.job_ms_p90", "ms", "lower"),
        def("serve.busy_ms_per_job", "ms", "lower"),
        def("serve.queue_wait_ms_p50", "ms", "lower"),
        def("serve.pool_util", "ratio", "higher"),
        def("serve.plan_hit_ratio", "ratio", "higher"),
        def("serve.rejected", "count", "lower"),
        def("serve.retried", "count", "lower"),
        def("trace.overhead_frac", "ratio", "lower"),
        def("trace.span_count", "count", "lower"),
    ]);
    v
}

/// Per-layer counts that repeat exactly from run to run on one host:
/// `agree` fails when two runs differ on any of them. `apps.op_samples`
/// and `trace.span_count` are counts too but grow with the number of
/// ops that fit in the window, so they are not listed.
pub const EXACT_COUNTS: [&str; 25] = [
    "host.cpus",
    "host.team_granted",
    "mesh.cells",
    "mesh.edges",
    "color.block_colors",
    "color.max_elem_colors",
    "color.reuse_factor",
    "core.plan_builds",
    "core.plan_hits",
    "core.dispatch_rounds_per_step",
    "simd.consecutive_run_frac",
    "lazy.fused_rounds_per_step",
    "lazy.rounds_saved_per_step",
    "lazy.bytes_saved_per_step",
    "lazy.tile_rounds_per_op",
    "lazy.tile_epochs",
    "lazy.tile_redundant_frac",
    "lazy.tile_copy_mb_per_op",
    "lazy.tile_cross_step_mb_saved",
    "part.halo_cells",
    "part.imbalance",
    "minimpi.msgs_per_step",
    "minimpi.bytes_per_step",
    "serve.rejected",
    "serve.retried",
];

/// Exact elsewhere, but on `serve_mixed` they depend on which worker
/// reaches the shared `PlanCache` first.
pub const SCHEDULING_DEPENDENT: [&str; 2] = ["core.plan_builds", "core.plan_hits"];

//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Run `repro --help` for usage; the experiment list and the backend
//! registry it prints are generated from the same tables the dispatcher
//! uses ([`EXPERIMENTS`] and `ump_core::Backend::all()`), so the help
//! text can never drift from what actually runs.
//!
//! `repro --smoke [--backends all|name,name,…]` is the tiny-mesh
//! end-to-end sweep of the whole backend registry on both apps via the
//! `step_on` dispatcher; it asserts consistency against the sequential
//! reference plus the fused runtime's round savings, and exits non-zero
//! on divergence.
//!
//! Cross-hardware numbers come from `ump-archsim` (we do not own the
//! paper's four machines — see DESIGN.md); host-measured numbers come
//! from the real backends on this machine. Paper values are printed
//! alongside wherever the paper states them, so the *shape* claims can
//! be eyeballed directly. EXPERIMENTS.md records a full run.

use ump_apps::{airfoil, volna};
use ump_archsim::{machines, predict, Backend, Machine};
use ump_bench::{fmt_s, measure_indirect, work_for, MeasuredLoop, Scale};
use ump_color::{BlockPermutePlan, FullPermutePlan, PlanInputs};
use ump_core::{Backend as ExecBackend, ExecPool, PlanCache, Recorder};
use ump_lazy::{Fusion, Shape};
use ump_mesh::MeshStats;
use ump_tune::App;

/// Every experiment the CLI accepts, in `all` execution order.
const EXPERIMENTS: [&str; 16] = [
    "table1", "table2", "table3", "table4", "fig5", "table5", "fig6", "table6", "fig7", "table7",
    "fig8a", "fig8b", "table8", "table9", "fig9", "fusion",
];

/// Usage text generated from the experiment table and the backend
/// registry — new registry entries appear here automatically.
fn print_help() {
    println!("repro — regenerate the paper's tables and figures");
    println!();
    println!("usage: repro <experiment>|all [--scale small|paper]");
    println!("       repro --smoke [--backends all|auto|name,name,…] [--layout aos|soa]");
    println!("       repro serve-smoke [--inject <seed>]");
    println!();
    println!("experiments:");
    println!("  {}", EXPERIMENTS.join(" "));
    println!();
    println!("backends (ump_core::Backend::all(), the --backends vocabulary;");
    println!("every entry is swept by --smoke and the conformance matrix):");
    for b in ExecBackend::all() {
        let mut caps = Vec::new();
        if b.is_fused() {
            caps.push("fused".into());
        }
        if b.lanes() > 1 {
            caps.push(format!("{} lanes", b.lanes()));
        }
        if b.needs_pool() {
            caps.push("pool".into());
        }
        println!("  {:<26} {}", b.name(), caps.join(", "));
    }
    println!(
        "  {:<26} tuner-selected from the registry (ump_tune)",
        "auto"
    );
}

fn main() -> std::process::ExitCode {
    match parse_and_run(std::env::args().skip(1).collect()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("repro: run with --help for usage");
            std::process::ExitCode::from(2)
        }
    }
}

/// Parse the CLI and dispatch. Every user-input error is a typed
/// `Err` (exit code 2), never a panic — divergence inside an
/// experiment still panics (exit code 101), which is what CI keys on.
fn parse_and_run(args: Vec<String>) -> Result<(), String> {
    let mut scale = Scale::Small;
    let mut cmd = String::from("all");
    let mut smoke_run = false;
    let mut serve_run = false;
    let mut inject: Option<u64> = None;
    let mut auto_run = false;
    let mut layout = ump_core::Layout::Aos;
    let mut backends: Vec<ExecBackend> = ExecBackend::all();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale =
                    Scale::parse(v).ok_or_else(|| format!("bad scale {v} (want small|paper)"))?;
            }
            "--smoke" => smoke_run = true,
            "serve-smoke" | "--serve-smoke" => serve_run = true,
            "--inject" => {
                let v = it.next().ok_or("--inject needs a seed")?;
                inject = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --inject seed {v}: {e}"))?,
                );
            }
            "--layout" => {
                let v = it.next().ok_or("--layout needs a value (aos|soa)")?;
                layout = ump_core::Layout::parse(v)
                    .ok_or_else(|| format!("bad layout {v} (want aos|soa)"))?;
            }
            "--backends" => {
                let v = it
                    .next()
                    .ok_or("--backends needs a value (all|auto|name,name,…)")?;
                if v == "auto" {
                    auto_run = true;
                } else if v != "all" {
                    backends = v
                        .split(',')
                        .map(|name| {
                            ExecBackend::parse(name).ok_or_else(|| {
                                let known: Vec<String> =
                                    ExecBackend::all().iter().map(|b| b.name()).collect();
                                format!("unknown backend {name}; registry: {}", known.join(" "))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => cmd = other.to_string(),
        }
    }
    if serve_run {
        serve_smoke(inject);
        return Ok(());
    }
    if let Some(seed) = inject {
        return Err(format!("--inject {seed} only applies to serve-smoke"));
    }
    if smoke_run {
        if auto_run {
            if layout != ump_core::Layout::Aos {
                return Err("--layout does not combine with --backends auto".into());
            }
            smoke_auto();
        } else {
            smoke(&backends, layout);
        }
        return Ok(());
    }
    if auto_run {
        return Err("--backends auto only applies to --smoke".into());
    }
    if layout != ump_core::Layout::Aos {
        return Err("--layout only applies to --smoke".into());
    }
    if cmd != "all" && !EXPERIMENTS.contains(&cmd.as_str()) {
        return Err(format!(
            "unknown experiment {cmd}; known: {}",
            EXPERIMENTS.join(" ")
        ));
    }
    let run = |c: &str| match c {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(scale),
        "table5" => table5(scale),
        "table6" => table6(scale),
        "table7" => table7(scale),
        "table8" => table8(scale),
        "table9" => table9(scale),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8a" => fig8a(scale),
        "fig8b" => fig8b(scale),
        "fig9" => fig9(scale),
        "fusion" => fusion(scale),
        other => unreachable!("experiment {other} validated above"),
    };
    if cmd == "all" {
        for c in EXPERIMENTS {
            run(c);
        }
    } else {
        run(&cmd);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// shared prediction plumbing
// ---------------------------------------------------------------------------

struct AppShape {
    cells: usize,
    edges: usize,
    bedges: usize,
    measured: MeasuredLoop,
}

fn airfoil_shape(scale: Scale) -> AppShape {
    let (nx, ny) = scale.airfoil_dims();
    // measure plan statistics on a moderate instance (reuse factors are
    // scale-free for grid meshes) but report paper-scale element counts
    let mesh = ump_mesh::generators::quad_channel(nx.min(600), ny.min(300)).mesh;
    let measured = measure_indirect(&mesh, 1024);
    AppShape {
        cells: nx * ny,
        edges: nx * (ny + 1) + ny * (nx + 1) - 2 * (nx + ny),
        bedges: 2 * (nx + ny),
        measured,
    }
}

fn volna_shape(scale: Scale) -> AppShape {
    let (nx, ny) = scale.volna_dims();
    let case = ump_mesh::generators::tri_coastal(nx.min(274), ny.min(273));
    let measured = measure_indirect(&case.mesh, 1024);
    AppShape {
        cells: 2 * nx * ny,
        edges: 3 * nx * ny - nx - ny, // interior edges of the tri grid
        bedges: 2 * (nx + ny),
        measured,
    }
}

fn set_size(shape: &AppShape, set: &str) -> usize {
    match set {
        "cells" => shape.cells,
        "edges" => shape.edges,
        _ => shape.bedges,
    }
}

/// Predicted app total (1000 iterations), all kernels.
fn app_total(m: &Machine, b: Backend, app: App, shape: &AppShape, wb: usize) -> f64 {
    app.kernels()
        .iter()
        .map(|&(kernel, _, calls)| {
            let profile = app.profile(kernel);
            let n = set_size(shape, &profile.set);
            let w = work_for(&profile, n, wb, Some(&shape.measured));
            predict(m, b, &w).seconds * calls * 1000.0
        })
        .sum()
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

// ---------------------------------------------------------------------------
// tables
// ---------------------------------------------------------------------------

fn table1() {
    header("Table I — benchmark systems (model parameters from the paper)");
    println!(
        "{:<22} {:>6} {:>6} {:>9} {:>9} {:>9} {:>11} {:>11}",
        "machine", "cores", "GHz", "cacheMB", "streamGBs", "vecDP", "GEMM DP", "FLOP/B DP(SP)"
    );
    for m in machines::all() {
        println!(
            "{:<22} {:>6} {:>6.2} {:>9.1} {:>9.1} {:>9} {:>11.0} {:>6.2}({:.2})",
            m.name,
            m.cores,
            m.freq_ghz,
            m.cache_mb,
            m.stream_gbs,
            m.vec_dp,
            m.gemm_dp,
            m.flop_per_byte(8),
            m.flop_per_byte(4),
        );
    }
    println!("paper FLOP/byte row: 3.42(6.48)  5.43(9.34)  4.87(10.1)  6.35(16.3)");
}

fn kernel_property_table(
    title: &str,
    profiles: Vec<ump_core::LoopProfile>,
    paper: &[(&str, &str)],
) {
    header(title);
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>7} {:>6} {:>14}  description",
        "kernel", "dirR", "dirW", "indR", "indW", "FLOP", "FLOP/B DP(SP)"
    );
    for p in &profiles {
        let t = p.transfers();
        println!(
            "{:<16} {:>7} {:>7} {:>7} {:>7} {:>6.0} {:>7.2}({:.2})  {}",
            p.name,
            t.direct_read,
            t.direct_write,
            t.indirect_read,
            t.indirect_write,
            p.flops_per_elem,
            p.flop_per_byte(8),
            p.flop_per_byte(4),
            p.description
        );
    }
    println!("paper rows for comparison:");
    for (k, row) in paper {
        println!("  {k:<14} {row}");
    }
}

fn table2() {
    kernel_property_table(
        "Table II — Airfoil kernel properties (derived from op_par_loop signatures)",
        airfoil::profiles(),
        &[
            ("save_soln", "4 4 0 0   4 FLOP  0.04(0.08)"),
            ("adt_calc", "4 1 8 0  64 FLOP  0.57(1.14)"),
            ("res_calc", "0 0 22 8 73 FLOP  0.30(0.60)"),
            ("bres_calc", "1 0 13 4 73 FLOP  0.50(1.01)"),
            ("update", "9 8 0 0  17 FLOP  0.10(0.20)"),
        ],
    );
}

fn table3() {
    kernel_property_table(
        "Table III — Volna kernel properties (our scheme; paper's flux differs, see EXPERIMENTS.md)",
        volna::profiles(),
        &[
            ("RK_1", "8 12 0 0  12 FLOP 0.6"),
            ("RK_2", "12 8 0 0  16 FLOP 0.8"),
            ("sim_1", "4 4 0 0    0 FLOP 0"),
            ("compute_flux", "4 6 8 0  154 FLOP 8.5"),
            ("numerical_flux", "1 4 6 0    9 FLOP 0.81"),
            ("space_disc", "8 0 10 8  23 FLOP 0.88"),
        ],
    );
}

fn table4(scale: Scale) {
    header("Table IV — mesh sizes and memory footprint");
    let (ax, ay) = scale.airfoil_dims();
    for (name, nx, ny) in [("Airfoil small", ax / 2, ay / 2), ("Airfoil large", ax, ay)] {
        let case = ump_mesh::generators::quad_channel(nx, ny);
        let s = MeshStats::compute(&case.mesh);
        let dp = s.dat_bytes(8, 13, 2);
        let sp = s.dat_bytes(4, 13, 2);
        println!(
            "{name:<16} cells {:>9}  nodes {:>9}  edges {:>9}  mem {}({}) MB",
            s.cells,
            s.nodes,
            s.edges,
            dp / 1_000_000,
            sp / 1_000_000
        );
    }
    let (vx, vy) = scale.volna_dims();
    let case = ump_mesh::generators::tri_coastal(vx, vy);
    let s = MeshStats::compute(&case.mesh);
    println!(
        "{:<16} cells {:>9}  nodes {:>9}  edges {:>9}  mem n/a({}) MB",
        "Volna",
        s.cells,
        s.nodes,
        s.edges,
        (s.cells * 13 + s.edges * 8 + s.nodes * 2) * 4 / 1_000_000
    );
    println!("paper: 720000/721801/1438600 94(47) MB; 2880000/2883601/5757200 373(186) MB;");
    println!("       2392352/1197384/3589735 n/a(355) MB (different dat inventory)");
}

fn table5(scale: Scale) {
    header("Table V — baseline per-kernel time/BW/GFLOPs (model, 1000 iters, paper scale counts)");
    let shape = airfoil_shape(Scale::Paper);
    let vshape = volna_shape(Scale::Paper);
    let _ = scale;
    println!(
        "{:<16} {:>12} {:>8} {:>8} | {:>12} {:>8} {:>8} | {:>12} {:>8} {:>8}",
        "kernel", "CPU1 s", "GB/s", "GF/s", "CPU2 s", "GB/s", "GF/s", "K40 s", "GB/s", "GF/s"
    );
    let cols = [
        (machines::cpu1(), Backend::ScalarMpi),
        (machines::cpu2(), Backend::ScalarMpi),
        (machines::k40(), Backend::Cuda),
    ];
    for &(kernel, set, calls) in App::Airfoil.kernels() {
        let profile = airfoil::profile(kernel);
        let n = set_size(&shape, set);
        let w = work_for(&profile, n, 8, Some(&shape.measured));
        let mut row = format!("{kernel:<16}");
        for (m, b) in &cols {
            let p = predict(m, *b, &w);
            row += &format!(
                " {:>12} {:>8.0} {:>8.0} |",
                fmt_s(p.seconds * calls * 1000.0),
                p.gb_s,
                p.gflop_s
            );
        }
        println!("{row}");
    }
    for &(kernel, set, calls) in App::Volna.kernels() {
        let profile = volna::profile(kernel);
        let n = set_size(&vshape, set);
        let w = work_for(&profile, n, 4, Some(&vshape.measured));
        let mut row = format!("{kernel:<16}");
        for (m, b) in &cols {
            let p = predict(m, *b, &w);
            row += &format!(
                " {:>12} {:>8.0} {:>8.0} |",
                fmt_s(p.seconds * calls * 1000.0),
                p.gb_s,
                p.gflop_s
            );
        }
        println!("{row}");
    }
    println!(
        "paper CPU1 column (s, DP Airfoil): save 4, adt 24.6, res 25.2, bres 0.09, update 14.05"
    );
}

fn table6(scale: Scale) {
    header("Table VI — OpenCL per-kernel time/BW on CPU1 and Phi (model) + vectorized flags");
    let shape = airfoil_shape(scale);
    let vshape = volna_shape(scale);
    println!(
        "{:<16} {:>12} {:>7} | {:>12} {:>7} | {:>8} {:>8}",
        "kernel", "CPU1 s", "GB/s", "Phi s", "GB/s", "vec CPU", "vec Phi"
    );
    let rows: Vec<(&str, &str, usize, f64, &AppShape)> = App::Airfoil
        .kernels()
        .iter()
        .map(|&(k, s, c)| (k, s, 8usize, c, &shape))
        .chain(
            App::Volna
                .kernels()
                .iter()
                .map(|&(k, s, c)| (k, s, 4usize, c, &vshape)),
        )
        .collect();
    for (kernel, set, wb, calls, sh) in rows {
        let profile = if wb == 8 {
            airfoil::profile(kernel)
        } else {
            volna::profile(kernel)
        };
        let n = set_size(sh, set);
        let w = work_for(&profile, n, wb, Some(&sh.measured));
        let c = predict(&machines::cpu1(), Backend::OpenCl, &w);
        let p = predict(&machines::phi(), Backend::OpenCl, &w);
        // the Phi's richer instruction set vectorizes more kernels (§6.3):
        // AVX's heuristics refuse the scatter-heavy ones
        let t = profile.transfers();
        let vec_cpu = w.vectorizable && t.indirect_write == 0;
        let vec_phi = w.vectorizable;
        println!(
            "{:<16} {:>12} {:>7.0} | {:>12} {:>7.0} | {:>8} {:>8}",
            kernel,
            fmt_s(c.seconds * calls * 1000.0),
            c.gb_s,
            fmt_s(p.seconds * calls * 1000.0),
            p.gb_s,
            if vec_cpu { "yes" } else { "-" },
            if vec_phi { "yes" } else { "-" },
        );
    }
    println!("paper: CPU vectorizes adt/bres/compute_flux/numerical_flux; Phi vectorizes all");
}

fn per_kernel_backend_table(
    title: &str,
    m: &Machine,
    backends: &[(&str, Backend)],
    wb: usize,
    scale: Scale,
) {
    header(title);
    let shape = airfoil_shape(scale);
    print!("{:<16}", "kernel");
    for (name, _) in backends {
        print!(" {:>14}", name);
    }
    println!();
    for &(kernel, set, calls) in App::Airfoil.kernels() {
        let profile = airfoil::profile(kernel);
        let n = set_size(&shape, set);
        let w = work_for(&profile, n, wb, Some(&shape.measured));
        print!("{kernel:<16}");
        for (_, b) in backends {
            let p = predict(m, *b, &w);
            print!(" {:>14}", fmt_s(p.seconds * calls * 1000.0));
        }
        println!();
    }
}

fn table7(scale: Scale) {
    per_kernel_backend_table(
        "Table VII — vectorized pure-MPI per-kernel (model, CPU1, DP, 1000 iters)",
        &machines::cpu1(),
        &[
            ("scalar MPI", Backend::ScalarMpi),
            ("vec MPI", Backend::VecMpi),
        ],
        8,
        scale,
    );
    per_kernel_backend_table(
        "Table VII (cont.) — CPU2",
        &machines::cpu2(),
        &[
            ("scalar MPI", Backend::ScalarMpi),
            ("vec MPI", Backend::VecMpi),
        ],
        8,
        scale,
    );
    println!("paper CPU1 vec MPI (s): save 4.08, adt 12.7, res 19.5, update 14.6");
}

fn table8(scale: Scale) {
    per_kernel_backend_table(
        "Table VIII — Xeon Phi per-kernel: scalar vs auto-vectorized vs intrinsics (model, DP)",
        &machines::phi(),
        &[
            ("scalar", Backend::ScalarThreaded),
            ("auto-vec", Backend::AutoVec),
            ("intrinsics", Backend::VecThreaded),
        ],
        8,
        scale,
    );
    println!("paper (s): adt 27.7/14.35/6.86, res 48.8/84.03/27.22, update 11.8/8.33/8.77");
    println!(
        "shape: auto-vec loses on res_calc (permute locality loss), intrinsics win everywhere"
    );
}

fn table9(scale: Scale) {
    header("Table IX — per-loop speedup relative to CPU 1 (model, best backend each)");
    let shape = airfoil_shape(scale);
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "CPU1", "CPU2", "Phi", "K40"
    );
    for &(kernel, set, _) in App::Airfoil.kernels() {
        let profile = airfoil::profile(kernel);
        let n = set_size(&shape, set);
        let w = work_for(&profile, n, 8, Some(&shape.measured));
        let base = predict(&machines::cpu1(), Backend::VecMpi, &w).seconds;
        let c2 = predict(&machines::cpu2(), Backend::VecMpi, &w).seconds;
        let ph = predict(&machines::phi(), Backend::VecThreaded, &w).seconds;
        let k = predict(&machines::k40(), Backend::Cuda, &w).seconds;
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            kernel,
            1.0,
            base / c2,
            base / ph,
            base / k
        );
    }
    println!("paper: save 1/1.37/1.88/5.11, adt 1/2.25/1.87/4.84, res 1/1.95/0.81/1.79,");
    println!("       update 1/1.48/1.67/4.54 — direct kernels follow bandwidth, res_calc lags");
}

// ---------------------------------------------------------------------------
// figures
// ---------------------------------------------------------------------------

fn fig5(scale: Scale) {
    header("Fig. 5 — baseline runtimes (model, 1000 iters) + host-measured reference");
    let shape = airfoil_shape(Scale::Paper);
    let vshape = volna_shape(Scale::Paper);
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "config", "Airfoil SP", "Airfoil DP", "Volna SP"
    );
    for (name, m, b) in [
        ("CPU1 MPI", machines::cpu1(), Backend::ScalarMpi),
        ("CPU1 OpenMP", machines::cpu1(), Backend::ScalarThreaded),
        ("CPU2 MPI", machines::cpu2(), Backend::ScalarMpi),
        ("CPU2 OpenMP", machines::cpu2(), Backend::ScalarThreaded),
        ("K40 CUDA", machines::k40(), Backend::Cuda),
    ] {
        println!(
            "{:<26} {:>12} {:>12} {:>12}",
            name,
            fmt_s(app_total(&m, b, App::Airfoil, &shape, 4)),
            fmt_s(app_total(&m, b, App::Airfoil, &shape, 8)),
            fmt_s(app_total(&m, b, App::Volna, &vshape, 4)),
        );
    }
    println!("paper (s): CPU1 MPI ≈ 46(SP)/68(DP); CPU2 MPI ≈ 21/31; K40 ≈ 5.4/8.4 (bars)");
    // host-measured scalar reference at the selected scale
    let (nx, ny) = scale.airfoil_dims();
    let rec = Recorder::new();
    let mut sim = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
    for _ in 0..scale.iters() {
        ump_apps::airfoil::drivers::step_seq(&mut sim, Some(&rec));
    }
    println!(
        "host scalar reference ({}x{} cells, {} iters): {:.2}s total",
        nx,
        ny,
        scale.iters(),
        rec.total_seconds()
    );
}

fn fig6(scale: Scale) {
    header("Fig. 6 — CPU vectorization, host-MEASURED backends at --scale");
    let (nx, ny) = scale.airfoil_dims();
    let iters = scale.iters();
    let threads = ump_core::exec::default_threads();

    fn run<R: ump_simd::Real, const L: usize>(
        nx: usize,
        ny: usize,
        iters: usize,
        threads: usize,
        which: &str,
    ) -> f64 {
        let rec = Recorder::new();
        let cache = PlanCache::new();
        // one persistent team for the whole measurement — every color
        // round of every iteration reuses the same parked workers; the
        // single-threaded backends skip the team entirely
        let needs_pool = !matches!(which, "MPI(scalar)" | "MPI vectorized");
        let pool = if needs_pool {
            ExecPool::new(threads)
        } else {
            ExecPool::new(1)
        };
        let mut sim = ump_apps::airfoil::Airfoil::<R>::new(nx, ny);
        // every row but the scalar one executes the app's one recorded
        // chain loop by loop: as a registry row on the calling thread, or
        // in a shape on the pool
        let simd = ExecBackend::Simd { lanes: L };
        let (block, shape) = match which {
            "OpenMP" => (1024, Shape::Threaded),
            "OpenCL(SIMT emu)" => (
                256,
                Shape::Simt {
                    width: L,
                    sched_overhead_ns: 200,
                },
            ),
            _ => (1024, Shape::Simd { lanes: L }),
        };
        for _ in 0..iters {
            use ump_apps::airfoil::drivers;
            match which {
                "MPI(scalar)" => drivers::step_seq(&mut sim, Some(&rec)),
                "MPI vectorized" => {
                    drivers::step_on(simd, &mut sim, &pool, &cache, 0, block, Some(&rec))
                }
                _ => drivers::step_chain::<R, L>(
                    &pool,
                    &mut sim,
                    &cache,
                    shape,
                    Fusion::PerLoop,
                    0,
                    block,
                    Some(&rec),
                ),
            };
        }
        rec.total_seconds()
    }

    println!(
        "{:<20} {:>12} {:>12}",
        "backend", "Airfoil SP", "Airfoil DP"
    );
    for which in [
        "MPI(scalar)",
        "MPI vectorized",
        "OpenMP",
        "OpenMP vectorized",
        "OpenCL(SIMT emu)",
    ] {
        let sp = run::<f32, 8>(nx, ny, iters, threads, which);
        let dp = run::<f64, 4>(nx, ny, iters, threads, which);
        println!("{which:<20} {sp:>12.2} {dp:>12.2}");
    }
    println!("paper shape: vec ≈ 1.6–2.0x (SP) / 1.1–1.4x (DP) over scalar; OpenCL ≈ OpenMP");

    // Volna SP measured
    let (vx, vy) = scale.volna_dims();
    let cache = PlanCache::new();
    let seq_t = {
        let rec = Recorder::new();
        let mut sim = ump_apps::volna::Volna::<f32>::new(vx, vy);
        for _ in 0..iters {
            ump_apps::volna::drivers::step_seq(&mut sim, Some(&rec));
        }
        rec.total_seconds()
    };
    let vec_t = {
        let rec = Recorder::new();
        let mut sim = ump_apps::volna::Volna::<f32>::new(vx, vy);
        let pool = ExecPool::new(1);
        for _ in 0..iters {
            ump_apps::volna::drivers::step_on(
                ExecBackend::Simd { lanes: 8 },
                &mut sim,
                &pool,
                &cache,
                0,
                1024,
                Some(&rec),
            );
        }
        rec.total_seconds()
    };
    let thr_t = {
        let rec = Recorder::new();
        let pool = ExecPool::new(threads);
        let mut sim = ump_apps::volna::Volna::<f32>::new(vx, vy);
        for _ in 0..iters {
            ump_apps::volna::drivers::step_on(
                ExecBackend::Threaded,
                &mut sim,
                &pool,
                &cache,
                0,
                1024,
                Some(&rec),
            );
        }
        rec.total_seconds()
    };
    println!("Volna SP measured: scalar {seq_t:.2}s, vectorized {vec_t:.2}s, threaded {thr_t:.2}s");
}

fn fig7(scale: Scale) {
    header("Fig. 7 — Xeon Phi configurations (model, 1000 iters, paper-scale counts)");
    let shape = airfoil_shape(Scale::Paper);
    let vshape = volna_shape(Scale::Paper);
    let _ = scale;
    let m = machines::phi();
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "config", "Airfoil SP", "Airfoil DP", "Volna SP"
    );
    for (name, b) in [
        ("Scalar MPI", Backend::ScalarMpi),
        ("Scalar MPI+OpenMP", Backend::ScalarThreaded),
        ("Auto-vec MPI+OpenMP", Backend::AutoVec),
        ("OpenCL", Backend::OpenCl),
        ("Vectorized MPI", Backend::VecMpi),
        ("Vectorized MPI+OpenMP", Backend::VecThreaded),
    ] {
        println!(
            "{:<26} {:>12} {:>12} {:>12}",
            name,
            fmt_s(app_total(&m, b, App::Airfoil, &shape, 4)),
            fmt_s(app_total(&m, b, App::Airfoil, &shape, 8)),
            fmt_s(app_total(&m, b, App::Volna, &vshape, 4)),
        );
    }
    println!("paper shape: intrinsics 2.0–2.2x (SP) / 1.7–1.8x (DP) over scalar; auto-vec poor");
}

fn fig8a(scale: Scale) {
    header("Fig. 8a — coloring schemes as edge orders, host-MEASURED SIMD res_calc at --scale");
    let (nx, ny) = scale.airfoil_dims();
    let iters = scale.iters();
    println!(
        "{:<16} {:>14} {:>14}",
        "scheme", "DP res_calc s", "SP res_calc s"
    );
    // A permute scheme changes only the order the increment loop visits
    // edges in — grouped by color over the whole set, or inside each
    // block — so each scheme is that order applied to the mesh, and the
    // time is the `simd4` row's (4 lanes, calling thread) at either
    // precision, of `res_calc` alone: the order moves only that loop, and
    // the other four would dilute it. Airfoil has no edge dats, so any
    // edge order is valid.
    fn run<R: ump_simd::Real>(nx: usize, ny: usize, iters: usize, scheme: &str) -> f64 {
        let (pool, cache, rec) = (ExecPool::new(1), PlanCache::new(), Recorder::new());
        let mut sim = ump_apps::airfoil::Airfoil::<R>::new(nx, ny);
        let mesh = &mut sim.case.mesh;
        let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], 1024);
        let order = match scheme {
            "FullPermute" => Some(FullPermutePlan::build(&inputs).perm),
            "BlockPermute" => {
                // each block's elements by color, blocks in block-color order
                let plan = BlockPermutePlan::build(&inputs);
                let slice = |&b: &u32| {
                    let r = &plan.blocks[b as usize];
                    &plan.perm[r.start as usize..r.end as usize]
                };
                let blocks = plan.blocks_by_color.iter().flatten();
                Some(blocks.flat_map(slice).copied().collect())
            }
            _ => None,
        };
        if let Some(order) = order {
            ump_mesh::renumber::reorder_edges(mesh, &order);
        }
        for _ in 0..iters {
            ump_apps::airfoil::drivers::step_on(
                ExecBackend::Simd { lanes: 4 },
                &mut sim,
                &pool,
                &cache,
                0,
                1024,
                Some(&rec),
            );
        }
        rec.get("res_calc").expect("res_calc is timed").seconds
    }
    for name in ["Original", "FullPermute", "BlockPermute"] {
        let run_dp = run::<f64>(nx, ny, iters, name);
        let run_sp = run::<f32>(nx, ny, iters, name);
        println!("{name:<16} {run_dp:>14.3} {run_sp:>14.3}");
    }
    println!("each scheme is an edge order (color groups over the set, or in each block of 1024)");
    println!(
        "timed on the simd4 row; unlike the permute-plan walk this replaces, map rows are read"
    );
    println!("contiguously; increments are scattered lane by lane, as they were in that walk");
    println!("paper shape (Phi/K40): Original wins; permute schemes lose to locality/gather cost");
}

fn fig8b(scale: Scale) {
    header("Fig. 8b — threads x block-size tuning, host-MEASURED hybrid at --scale");
    let (nx, ny) = scale.airfoil_dims();
    let iters = scale.iters().min(5);
    let max_threads = ump_core::exec::default_threads();
    print!("{:<10}", "blk\\thr");
    let thread_opts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads.max(2))
        .collect();
    for t in &thread_opts {
        print!(" {:>10}", t);
    }
    println!();
    // one persistent pool per team size, shared across all block sizes
    let pools: Vec<ExecPool> = thread_opts.iter().map(|&t| ExecPool::new(t)).collect();
    for block in [256usize, 512, 1024, 2048] {
        print!("{block:<10}");
        for pool in &pools {
            let cache = PlanCache::new();
            let rec = Recorder::new();
            let mut sim = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
            for _ in 0..iters {
                ump_apps::airfoil::drivers::step_on(
                    ExecBackend::SimdThreaded { lanes: 4 },
                    &mut sim,
                    pool,
                    &cache,
                    0,
                    block,
                    Some(&rec),
                );
            }
            print!(" {:>10.2}", rec.total_seconds());
        }
        println!();
    }
    println!("paper shape: more ranks/threads prefer larger blocks until load imbalance bites");
}

// ---------------------------------------------------------------------------
// fusion (ump-lazy) and the smoke run
// ---------------------------------------------------------------------------

fn fusion(scale: Scale) {
    header("Fusion — host-MEASURED fused (ump-lazy) vs unfused timestep at --scale");
    let (nx, ny) = scale.airfoil_dims();
    let iters = scale.iters();
    let threads = ump_core::exec::default_threads();
    let pool = ExecPool::new(threads);

    let run = |fused: bool| -> (f64, u64, Option<ump_core::FusionStats>) {
        let cache = PlanCache::new();
        let rec = Recorder::new();
        let mut sim = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
        // warm plans, then measure
        if fused {
            ump_apps::airfoil::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim,
                &cache,
                Shape::Threaded,
                Fusion::Groups,
                0,
                1024,
                None,
            );
        } else {
            ump_apps::airfoil::drivers::step_on(
                ExecBackend::Threaded,
                &mut sim,
                &pool,
                &cache,
                0,
                1024,
                None,
            );
        }
        let r0 = pool.dispatch_rounds();
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            if fused {
                ump_apps::airfoil::drivers::step_chain::<_, 4>(
                    &pool,
                    &mut sim,
                    &cache,
                    Shape::Threaded,
                    Fusion::Groups,
                    0,
                    1024,
                    Some(&rec),
                );
            } else {
                ump_apps::airfoil::drivers::step_on(
                    ExecBackend::Threaded,
                    &mut sim,
                    &pool,
                    &cache,
                    0,
                    1024,
                    Some(&rec),
                );
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        let rounds = (pool.dispatch_rounds() - r0) / iters as u64;
        (dt, rounds, rec.fusion("airfoil_step"))
    };

    let (unfused_s, unfused_rounds, _) = run(false);
    let (fused_s, fused_rounds, stats) = run(true);
    println!("{:<28} {:>10} {:>16}", "config", "total s", "rounds/step");
    println!(
        "{:<28} {unfused_s:>10.2} {unfused_rounds:>16}",
        "unfused (threaded)"
    );
    println!("{:<28} {fused_s:>10.2} {fused_rounds:>16}", "fused (fused)");
    if let Some(s) = stats {
        println!(
            "per step: {} loops -> {} groups, {} rounds saved, {:.1} MB not re-streamed",
            s.loops / s.executions,
            s.groups / s.executions,
            s.rounds_saved() / s.executions,
            s.bytes_saved / s.executions as f64 / 1e6
        );
    }
    println!("speedup: {:.2}x", unfused_s / fused_s);
}

/// Tiny-mesh end-to-end sweep of the backend registry on both apps —
/// the declarative scenario sweep the registry exists for. Every
/// requested backend runs 3 steps through the `step_on` dispatcher
/// and is checked against the sequential reference; fused
/// backends additionally assert their round savings through the
/// `Recorder` fusion counters. Fast enough for CI; any divergence or
/// NaN panics (non-zero exit).
fn smoke(backends: &[ExecBackend], layout: ump_core::Layout) {
    header("smoke — tiny meshes × the backend registry (ump_core::Backend)");
    // clamp the team to the probed cores: a 4-worker pool on a 1-core
    // container only measures oversubscription (the results stay
    // deterministic either way, this is purely about wall-clock)
    let team = 4usize.min(ump_tune::HostProbe::measure().cores.max(1));
    println!("pool team: {team} worker(s), dat layout: {}", layout.name());
    let pool = ExecPool::new(team);
    let iters = 3usize;

    // Airfoil 48x24
    {
        let (nx, ny) = (48usize, 24usize);
        let mut reference = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
        let mut rms = 0.0;
        for _ in 0..iters {
            rms = ump_apps::airfoil::drivers::step_seq(&mut reference, None);
        }
        assert!(reference.q.all_finite() && rms.is_finite());

        let cache = PlanCache::new();
        for &backend in backends {
            let rec = Recorder::new();
            let r0 = pool.dispatch_rounds();
            let mut sim = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
            sim.set_layout(layout);
            for _ in 0..iters {
                ump_apps::airfoil::drivers::step_on(
                    backend,
                    &mut sim,
                    &pool,
                    &cache,
                    0,
                    64,
                    Some(&rec),
                );
            }
            let rounds = pool.dispatch_rounds() - r0;
            let d = sim.q.max_abs_diff(&reference.q);
            assert!(d <= 1e-12, "airfoil {backend} diverged: {d:e} > 1e-12");
            assert_eq!(
                rounds > 0,
                backend.needs_pool(),
                "airfoil {backend}: {rounds} pool rounds vs needs_pool"
            );
            if backend.is_fused() {
                let s = rec.fusion("airfoil_step").expect("fusion stats");
                assert!(s.rounds_saved() >= 2 * iters, "fusion must save rounds");
            }
            println!(
                "airfoil {nx}x{ny} {:<26} max|Δq| = {d:.2e}  rounds/step {:>2}  ok",
                backend.name(),
                rounds / iters as u64
            );
        }
    }

    // Volna 20x14
    {
        let (nx, ny) = (20usize, 14usize);
        let mut reference = ump_apps::volna::Volna::<f64>::new(nx, ny);
        let v0 = reference.total_volume();
        let mut dts = Vec::new();
        for _ in 0..iters {
            dts.push(ump_apps::volna::drivers::step_seq(&mut reference, None));
        }
        assert!(reference.w.all_finite());
        assert!(
            (reference.total_volume() - v0).abs() < 1e-9 * v0,
            "mass drift"
        );

        let cache = PlanCache::new();
        for &backend in backends {
            let rec = Recorder::new();
            let mut sim = ump_apps::volna::Volna::<f64>::new(nx, ny);
            sim.set_layout(layout);
            for (i, &r) in dts.iter().enumerate() {
                let dt = ump_apps::volna::drivers::step_on(
                    backend,
                    &mut sim,
                    &pool,
                    &cache,
                    0,
                    64,
                    Some(&rec),
                );
                assert!(
                    (dt - r).abs() <= 1e-12 * r,
                    "volna {backend} Δt diverged at step {i}: {dt} vs {r}"
                );
            }
            let d = sim.w.max_abs_diff(&reference.w);
            assert!(d <= 1e-12, "volna {backend} diverged: {d:e} > 1e-12");
            if backend.is_fused() {
                let s = rec.fusion("volna_step").expect("fusion stats");
                assert_eq!(s.rounds_saved(), 3 * iters, "volna fusion saves 3/step");
            }
            println!(
                "volna {nx}x{ny} {:<26} max|Δw| = {d:.2e}  ok",
                backend.name()
            );
        }
    }

    println!("smoke ok ({} backends)", backends.len());
}

/// `--smoke --backends auto`: the self-tuning path end to end. The
/// tuner times every registry candidate on the real meshes, and its
/// pick — always a concrete registered backend — is verified against
/// the sequential reference to 1e-12 on both apps. A second pick per
/// app must be a pure store hit (zero trials).
fn smoke_auto() {
    use ump_tune::Tuner;

    header("smoke — autotuned backend selection (ump_tune)");
    let tuner = Tuner::new().with_trial_steps(2);
    let iters = 3usize;
    let cache = PlanCache::new();

    // Airfoil 48x24
    {
        let (nx, ny) = (48usize, 24usize);
        let choice = tuner.pick(App::Airfoil, nx, ny);
        assert!(
            ExecBackend::all().contains(&choice.backend),
            "tuner invented backend {:?}",
            choice.backend
        );
        let mut reference = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
        let mut sim = ump_apps::airfoil::Airfoil::<f64>::new(nx, ny);
        for _ in 0..iters {
            ump_apps::airfoil::drivers::step_seq(&mut reference, None);
            ump_apps::airfoil::drivers::step_on(
                choice.backend,
                &mut sim,
                tuner.pool(),
                &cache,
                0,
                choice.block_size,
                None,
            );
        }
        let d = sim.q.max_abs_diff(&reference.q);
        assert!(d <= 1e-12, "airfoil auto pick diverged: {d:e} > 1e-12");
        let warm = tuner.pick(App::Airfoil, nx, ny);
        assert!(
            warm.from_store && warm.trials == 0,
            "second tune must be a pure store hit"
        );
        println!(
            "airfoil {nx}x{ny} auto → {:<26} block {:>4}  {} trials, {:.3} ms/step, {:.2} GB/s  max|Δq| = {d:.2e}  ok",
            choice.backend.name(),
            choice.block_size,
            choice.trials,
            choice.seconds_per_step * 1e3,
            choice.gb_per_s,
        );
    }

    // Volna 20x14
    {
        let (nx, ny) = (20usize, 14usize);
        let choice = tuner.pick(App::Volna, nx, ny);
        assert!(ExecBackend::all().contains(&choice.backend));
        let mut reference = ump_apps::volna::Volna::<f64>::new(nx, ny);
        let mut sim = ump_apps::volna::Volna::<f64>::new(nx, ny);
        for _ in 0..iters {
            let want = ump_apps::volna::drivers::step_seq(&mut reference, None);
            let got = ump_apps::volna::drivers::step_on(
                choice.backend,
                &mut sim,
                tuner.pool(),
                &cache,
                0,
                choice.block_size,
                None,
            );
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "volna auto Δt diverged: {got} vs {want}"
            );
        }
        let d = sim.w.max_abs_diff(&reference.w);
        assert!(d <= 1e-12, "volna auto pick diverged: {d:e} > 1e-12");
        let warm = tuner.pick(App::Volna, nx, ny);
        assert!(warm.from_store && warm.trials == 0);
        println!(
            "volna   {nx}x{ny} auto → {:<26} block {:>4}  {} trials, {:.3} ms/step, {:.2} GB/s  max|Δw| = {d:.2e}  ok",
            choice.backend.name(),
            choice.block_size,
            choice.trials,
            choice.seconds_per_step * 1e3,
            choice.gb_per_s,
        );
    }

    let stats = tuner.stats();
    assert_eq!(stats.store_hits, 2);
    assert_eq!(stats.store_misses, 2);
    println!(
        "smoke auto ok (2 apps tuned, {} trials, {} store hits)",
        stats.trials_run, stats.store_hits
    );
}

/// `repro serve-smoke` — the service-layer acceptance client: a 16-job
/// mixed batch (both apps, the whole backend registry) multiplexed over
/// 4 shared pools, every outcome verified against the sequential
/// reference driver to 1e-12, plus a kill/restore cycle asserted
/// bit-identical and a shared-plan-cache reuse check. Any divergence
/// panics (non-zero exit) — CI runs this next to `--smoke`.
///
/// With `--inject <seed>` a deterministic fault campaign derived from
/// the seed (worker kill, kernel panic, lease stall, checkpoint
/// corruption) runs on top, asserting every job recovers under its
/// retry policy and still finishes bit-identical to a fault-free run.
fn serve_smoke(inject: Option<u64>) {
    use ump_serve::{App, JobSpec, JobState, JobStatus, Service, ServiceConfig, Tuner};

    header("serve smoke — 16 mixed jobs over 4 shared pools (ump_serve)");
    let team = 2usize;
    let service = Service::new(ServiceConfig {
        pools: 4,
        team,
        admission_capacity: 32,
        slice_steps: 3,
        // a trial-frugal tuner for the auto-backend jobs below
        tuner: Some(std::sync::Arc::new(
            Tuner::new().with_trial_steps(1).with_team(team),
        )),
        ..ServiceConfig::default()
    });

    // one job per registry backend (11 shapes, 16 jobs: cycles through
    // all of them, then the first five again), alternating apps,
    // distinct seeds
    let registry = ExecBackend::all();
    let steps = 4u64;
    let mut handles = Vec::new();
    for j in 0..16u64 {
        let backend = registry[j as usize % registry.len()];
        let spec = if j % 2 == 0 {
            JobSpec::new(App::Airfoil, 48, 24, backend, steps)
        } else {
            JobSpec::new(App::Volna, 20, 14, backend, steps)
        }
        .with_seed(100 + j);
        handles.push(service.submit(spec).expect("batch under capacity"));
    }

    for h in &handles {
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Completed, "job {}", h.id);
        let spec = out.spec;
        // sequential reference for the same spec
        let ref_pool = ExecPool::new(1);
        let ref_cache = PlanCache::new();
        let mut reference = JobState::new(JobSpec {
            backend: ExecBackend::Seq,
            ..spec
        });
        for _ in 0..steps {
            reference.step(&ref_pool, &ref_cache, None);
        }
        let final_state = out.final_state();
        let d = final_state.max_abs_diff(&reference);
        assert!(
            d <= 1e-12,
            "{} {} diverged: {d:e} > 1e-12",
            spec.app,
            spec.backend
        );
        for (i, (got, want)) in out.history.iter().zip(reference.history()).enumerate() {
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "{} {} step {i}: {got} vs {want}",
                spec.app,
                spec.backend
            );
        }
        println!(
            "job {:>2} {:<8} {:<26} max|Δ| = {d:.2e}  ok",
            out.id,
            spec.app.name(),
            spec.backend.name()
        );
    }

    let stats = service.stats();
    assert_eq!(stats.completed, 16, "all 16 jobs complete");
    assert_eq!(stats.failed, 0);
    assert!(
        stats.plan_hits > 0,
        "shared meshes must reuse plans (hits {}, builds {})",
        stats.plan_hits,
        stats.plan_builds
    );
    assert!(
        stats.mesh_hits > 0,
        "jobs in flight on one mesh must share its build (hits {}, builds {})",
        stats.mesh_hits,
        stats.mesh_builds
    );
    println!(
        "service: {} completed, plan cache {} hits / {} builds, meshes {} hits / {} builds",
        stats.completed, stats.plan_hits, stats.plan_builds, stats.mesh_hits, stats.mesh_builds
    );

    // auto-backend jobs: the service consults its tuner, the admitted
    // spec carries a concrete registered backend, and tuning activity
    // shows up in ServiceStats
    let auto_spec = JobSpec::new(App::Airfoil, 48, 24, ExecBackend::Seq, steps).with_seed(200);
    let auto_out = service.submit_auto(auto_spec).expect("admitted").wait();
    assert_eq!(auto_out.status, JobStatus::Completed);
    assert!(
        ExecBackend::all().contains(&auto_out.spec.backend),
        "auto job ran on unregistered backend {:?}",
        auto_out.spec.backend
    );
    {
        let ref_pool = ExecPool::new(1);
        let ref_cache = PlanCache::new();
        let mut reference = JobState::new(JobSpec {
            backend: ExecBackend::Seq,
            ..auto_out.spec
        });
        for _ in 0..steps {
            reference.step(&ref_pool, &ref_cache, None);
        }
        let d = auto_out.final_state().max_abs_diff(&reference);
        assert!(d <= 1e-12, "auto job diverged: {d:e} > 1e-12");
    }
    let s1 = service.stats();
    assert_eq!(s1.tuned, 1);
    assert_eq!(s1.tune_store_misses, 1);
    assert!(s1.tune_trials > 0, "cold auto submission must run trials");
    let auto_out2 = service.submit_auto(auto_spec).expect("admitted").wait();
    assert_eq!(auto_out2.status, JobStatus::Completed);
    assert_eq!(auto_out2.spec.backend, auto_out.spec.backend);
    let s2 = service.stats();
    assert_eq!(s2.tuned, 2);
    assert_eq!(s2.tune_store_hits, 1, "second auto job must hit the store");
    assert_eq!(
        s2.tune_trials, s1.tune_trials,
        "a store hit runs zero additional trials"
    );
    println!(
        "auto jobs: tuned → {:<26} ({} trials, then a store hit)  ok",
        auto_out.spec.backend.name(),
        s1.tune_trials
    );

    // kill/restore: cancel a threaded Volna job mid-flight, resume the
    // snapshot, and require bit-identity with an uninterrupted run
    let kr_steps = 60u64;
    let kr_spec = JobSpec::new(App::Volna, 16, 12, ExecBackend::Threaded, kr_steps).with_seed(7);
    let kr_pool = ExecPool::new(team);
    let kr_cache = PlanCache::new();
    let mut uninterrupted = JobState::new(kr_spec);
    for _ in 0..kr_steps {
        uninterrupted.step(&kr_pool, &kr_cache, None);
    }
    // deterministic half: kill at exactly step 30 by snapshotting a
    // local run, then restore *into the service* for the back half
    let mut front = JobState::new(kr_spec);
    for _ in 0..30 {
        front.step(&kr_pool, &kr_cache, None);
    }
    let resumed = service
        .resume(&front.snapshot())
        .expect("snapshot resumable");
    let back = resumed.wait();
    assert_eq!(back.status, JobStatus::Completed);
    assert_eq!(back.steps_done, kr_steps);
    assert!(
        back.final_state().bits_eq(&uninterrupted),
        "restore at step 30 must finish bit-identical"
    );
    println!("kill/restore: snapshot at step 30 resumed on the service, bit-identical  ok");

    // racy half: a live cancel (best-effort — the job can outrun it)
    let h = service.submit(kr_spec).expect("admitted");
    let first = h.frames().recv().expect("first frame");
    assert_eq!(first.step, 1);
    let _ = service.cancel(h.id);
    let out = h.wait();
    let final_state = match out.status {
        JobStatus::Cancelled => {
            println!(
                "kill/restore: cancelled at step {}/{kr_steps}, resuming snapshot ({} bytes)",
                out.steps_done,
                out.snapshot.len()
            );
            let resumed = service.resume(&out.snapshot).expect("snapshot resumable");
            let out2 = resumed.wait();
            assert_eq!(out2.status, JobStatus::Completed);
            assert_eq!(out2.steps_done, kr_steps);
            out2.final_state()
        }
        JobStatus::Completed => {
            println!("kill/restore: job outran the cancel; checking bit-identity directly");
            out.final_state()
        }
        JobStatus::Failed(why) => panic!("kill/restore job failed: {why}"),
    };
    assert!(
        final_state.bits_eq(&uninterrupted),
        "killed-and-restored run must be bit-identical to uninterrupted"
    );
    println!("kill/restore: bit-identical after restart  ok");
    println!("serve smoke ok (16 jobs / 4 pools, kill/restore bit-exact)");

    if let Some(seed) = inject {
        inject_smoke(seed);
    }
}

/// The `--inject <seed>` campaign: four deterministic fault scenarios
/// (kill, kernel panic, lease stall, checkpoint corruption) whose
/// parameters are pure functions of the seed — the same seed always
/// injects the same faults at the same steps. Each scenario runs on a
/// fresh service (so the fault plan targets job id 1), must recover
/// under the retry policy, and must finish bit-identical to the
/// fault-free run of the same spec.
fn inject_smoke(seed: u64) {
    use std::sync::Arc;
    use std::time::Duration;
    use ump_fault::FaultPlan;
    use ump_serve::{App, JobSpec, JobState, JobStatus, RetryPolicy, Service, ServiceConfig};

    header(&format!("serve fault injection — seed {seed}"));
    let steps = 8u64;
    let fault_step = 2 + seed % (steps - 2); // 1-based step in [2, steps-1]
    let ckpt = 2 + seed % 3;
    let scenarios: [(&str, FaultPlan); 4] = [
        ("kill", FaultPlan::new().with_kill_job(1, fault_step)),
        ("panic", FaultPlan::new().with_panic_step(1, fault_step)),
        (
            "stall",
            FaultPlan::new().with_stall_step(1, fault_step, 60_000),
        ),
        (
            "corrupt",
            FaultPlan::new()
                .with_corrupt_checkpoint(1, 0)
                .with_kill_job(1, fault_step),
        ),
    ];
    for (i, (name, plan)) in scenarios.into_iter().enumerate() {
        let spec = if (seed + i as u64).is_multiple_of(2) {
            JobSpec::new(App::Airfoil, 20, 10, ExecBackend::Fused, steps)
        } else {
            JobSpec::new(App::Volna, 14, 10, ExecBackend::Threaded, steps)
        }
        .with_seed(seed ^ i as u64)
        .with_checkpoint_every(ckpt);

        // fault-free golden run of the same spec
        let pool = ExecPool::new(2);
        let cache = PlanCache::new();
        let mut golden = JobState::new(spec);
        for _ in 0..steps {
            golden.step(&pool, &cache, None);
        }

        let injector = Arc::new(plan.injector());
        let service = Service::new(ServiceConfig {
            pools: 1,
            team: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: Duration::from_millis(2),
            },
            lease_timeout: Duration::from_millis(80),
            fault: Some(injector.clone()),
            ..ServiceConfig::default()
        });
        let out = service
            .submit(spec)
            .unwrap_or_else(|r| panic!("{name}: rejected: {r:?}"))
            .wait();
        assert_eq!(out.status, JobStatus::Completed, "{name} did not recover");
        assert!(
            out.final_state().bits_eq(&golden),
            "{name}: recovered run diverged from fault-free run"
        );
        let stats = service.stats();
        assert!(injector.injected() >= 1, "{name}: fault never fired");
        assert!(stats.retried >= 1, "{name}: recovery did not use a retry");
        for line in injector.fired() {
            println!("  [{name}] {line}");
        }
        println!(
            "  [{name}] {} {}: recovered after {} retr{} (watchdog {}), bit-identical  ok",
            spec.app,
            spec.backend,
            stats.retried,
            if stats.retried == 1 { "y" } else { "ies" },
            stats.watchdog_fired,
        );
    }
    println!("fault injection ok (4 scenarios, seed {seed}, all bit-exact)");
}

fn fig9(scale: Scale) {
    header("Fig. 9 — best runtimes per platform (model, 1000 iters)");
    let shape = airfoil_shape(Scale::Paper);
    let vshape = volna_shape(Scale::Paper);
    let _ = scale;
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "machine", "Airfoil SP", "Airfoil DP", "Volna SP"
    );
    for (m, b) in [
        (machines::cpu1(), Backend::VecMpi),
        (machines::cpu2(), Backend::VecMpi),
        (machines::phi(), Backend::VecThreaded),
        (machines::k40(), Backend::Cuda),
    ] {
        println!(
            "{:<26} {:>12} {:>12} {:>12}",
            m.name,
            fmt_s(app_total(&m, b, App::Airfoil, &shape, 4)),
            fmt_s(app_total(&m, b, App::Airfoil, &shape, 8)),
            fmt_s(app_total(&m, b, App::Volna, &vshape, 4)),
        );
    }
    println!("paper shape: K40 2.5–3x CPU1; Phi ≈ CPU1; CPU2 between");
}

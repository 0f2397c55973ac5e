//! Distributed fused execution with halo/compute overlap: edge cases and
//! acceptance bounds.
//!
//! * `dist::run_mpi_fused` in the threaded and SIMD shapes on 2–8 ranks
//!   matches the sequential reference within 1e-12 on both applications
//!   (reductions are rank-ordered, hence bit-reproducible run to run),
//!   and at `L = 8` and f32 on 2 and 3 ranks,
//! * the rank chains fuse: every rank records its groups into one shared
//!   `Recorder`,
//! * overlap and blocking exchange policies are **bit-identical** (the
//!   split schedule computes in the same order; only the exchange
//!   placement moves),
//! * degenerate partitions work: a single rank (empty halos, no boundary
//!   blocks at all) and ragged partitions where one rank owns a sliver
//!   that is pure fringe (zero interior edge blocks).

use ump::lazy::{ExchangePolicy, Shape};
use ump::minimpi::Universe;
use ump_apps::dist::{self, Rank};
use ump_apps::{airfoil, volna, Simulation};
use ump_core::dist::assemble_owned;
use ump_core::{distribute, Backend, ExecPool, OpDat, PlanCache, Recorder};
use ump_part::Partition;
use ump_simd::Real;

const BLOCK: usize = 48;
const TEAM: usize = 2;

fn airfoil_reference(nx: usize, ny: usize, iters: usize) -> (airfoil::Airfoil<f64>, Vec<f64>) {
    let mut sim = airfoil::Airfoil::<f64>::new(nx, ny);
    let hist = (0..iters)
        .map(|_| airfoil::drivers::step_seq(&mut sim, None))
        .collect();
    (sim, hist)
}

fn volna_reference(nx: usize, ny: usize, steps: usize) -> (volna::Volna<f64>, Vec<f64>) {
    let mut sim = volna::Volna::<f64>::new(nx, ny);
    let hist = (0..steps)
        .map(|_| volna::drivers::step_seq(&mut sim, None))
        .collect();
    (sim, hist)
}

/// The acceptance sweep: 2–8 ranks, threaded and SIMD shapes, both
/// applications, vs the sequential reference.
#[test]
fn mpi_fused_matches_seq_on_2_to_8_ranks() {
    let iters = 5;
    let (aref, ahist) = airfoil_reference(40, 20, iters);
    let (vref, vhist) = volna_reference(16, 12, iters);
    for ranks in [2usize, 3, 5, 8] {
        for simd in [false, true] {
            let shape = if simd {
                Shape::Simd { lanes: 4 }
            } else {
                Shape::Threaded
            };
            let (q, hist) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
                &aref.case,
                ranks,
                TEAM,
                BLOCK,
                iters,
                shape,
                ExchangePolicy::Overlap,
            );
            let d = q.max_abs_diff(&aref.q);
            assert!(d <= 1e-12, "airfoil {ranks} ranks simd={simd}: |Δq| {d:e}");
            for (i, (&rms, &r)) in hist.iter().zip(&ahist).enumerate() {
                assert!(
                    (rms - r).abs() <= 1e-12 * (1.0 + r),
                    "airfoil {ranks} ranks simd={simd} iter {i}: {rms} vs {r}"
                );
            }

            let (w, dts) = dist::run_mpi_fused::<volna::Volna<f64>, 4>(
                &vref.case,
                ranks,
                TEAM,
                BLOCK,
                iters,
                shape,
                ExchangePolicy::Overlap,
            );
            let d = w.max_abs_diff(&vref.w);
            assert!(d <= 1e-12, "volna {ranks} ranks simd={simd}: |Δw| {d:e}");
            for (i, (&dt, &r)) in dts.iter().zip(&vhist).enumerate() {
                assert!(
                    (dt - r).abs() <= 1e-12 * r,
                    "volna {ranks} ranks simd={simd} step {i}: Δt {dt} vs {r}"
                );
            }
        }
    }
}

/// The f32 bound of the registry's conformance sweep
/// (`every_backend_matches_sequential_at_f32`): the primary field within
/// it relative to the reference's largest magnitude (at least 1), each
/// step's value relative to 1 + |value|.
const F32_TOL: f64 = 1e-4;

/// `run_mpi_fused::<S, 8>` on 2 and 3 ranks, threaded and at 8 lanes,
/// against `iters` steps of `step_seq` on `fresh`: the primary field
/// within `tol × scale` and every step's value within `tol × (1 + |r|)`,
/// where `scale` is 1 at f64 and the field's largest magnitude (at
/// least 1) at f32.
fn l8_ranks_match_seq<S: Simulation + Clone>(app: &str, fresh: &S, iters: usize, tol: f64) {
    let mut reference = fresh.clone();
    let ref_hist: Vec<f64> = (0..iters).map(|_| reference.step_seq(None)).collect();
    let scale = if S::R::BYTES == 4 {
        let fold = |m: f64, v: &S::R| m.max(v.to_f64().abs());
        reference.primary().data.iter().fold(1.0, fold)
    } else {
        1.0
    };
    for ranks in [2usize, 3] {
        for shape in [Shape::Threaded, Shape::Simd { lanes: 8 }] {
            let (primary, hist) = dist::run_mpi_fused::<S, 8>(
                fresh.case(),
                ranks,
                TEAM,
                BLOCK,
                iters,
                shape,
                ExchangePolicy::Overlap,
            );
            let at = format!("{app} {ranks} ranks {shape:?}");
            let d = primary.max_abs_diff(reference.primary());
            assert!(d <= tol * scale, "{at}: max |Δ| = {d:e}, scale {scale}");
            assert_eq!(hist.len(), iters, "{at}");
            for (i, (&v, &r)) in hist.iter().zip(&ref_hist).enumerate() {
                assert!(
                    (v - r).abs() <= tol * (1.0 + r.abs()),
                    "{at} step {i}: {v} vs {r}"
                );
            }
        }
    }
}

/// The distributed driver at the other lane width and precision the
/// registry compiles: Airfoil f64 and Volna f32 at `L = 8`.
#[test]
fn mpi_fused_matches_seq_at_8_lanes_and_f32() {
    let airfoil = airfoil::Airfoil::<f64>::new(40, 20);
    l8_ranks_match_seq("airfoil f64", &airfoil, 5, 1e-12);
    l8_ranks_match_seq("volna f32", &volna::Volna::<f32>::new(16, 12), 5, F32_TOL);
}

/// `iters` steps of `Rank::step_fused_chain` on a 2-rank split of
/// `case`, both ranks recording into `rec`.
fn two_ranks_into<S: Simulation>(case: &S::Case, shape: Shape, iters: usize, rec: &Recorder) {
    let mesh = S::case_mesh(case);
    let total = mesh.n_cells();
    let pts: Vec<[f64; 2]> = (0..total).map(|c| mesh.cell_centroid(c)).collect();
    let locals = distribute(mesh, &ump_part::rcb(&pts, 2));
    Universe::new(2).run(|comm| {
        let (cache, pool) = (PlanCache::new(), ExecPool::new(TEAM));
        let mut rank = Rank::<S>::new(case, locals[comm.rank()].clone());
        for _ in 0..iters {
            rank.step_fused_chain::<4>(
                comm,
                &cache,
                &pool,
                shape,
                BLOCK,
                total,
                ExchangePolicy::Overlap,
                Some(rec),
                None,
            );
        }
    });
}

/// The rank chains fuse the same groups as the shared-memory recording
/// (boundary blocks split into extra rounds, but loops still merge),
/// and every rank's execution reaches the one recorder they share.
#[test]
fn rank_chains_fuse_into_one_shared_recorder() {
    let iters = 3;
    for shape in [Shape::Threaded, Shape::Simd { lanes: 4 }] {
        let rec = Recorder::new();
        let sim = airfoil::Airfoil::<f64>::new(40, 20);
        two_ranks_into::<airfoil::Airfoil<f64>>(&sim.case, shape, iters, &rec);
        let s = rec.fusion("airfoil_step").expect("airfoil fusion stats");
        assert!(
            s.groups < s.loops,
            "airfoil {shape:?}: rank chains must fuse"
        );
        assert_eq!(s.executions, 2 * iters, "airfoil {shape:?}");

        let rec = Recorder::new();
        let sim = volna::Volna::<f64>::new(16, 12);
        two_ranks_into::<volna::Volna<f64>>(&sim.case, shape, iters, &rec);
        let s = rec.fusion("volna_step").expect("volna fusion stats");
        assert!(s.groups < s.loops, "volna {shape:?}: rank chains must fuse");
        assert_eq!(s.executions, 2 * iters, "volna {shape:?}");
    }
}

/// Overlap and blocking exchange policies compute in the same order, so
/// their results must agree to the bit — on every dat component and
/// every reduction of the run.
#[test]
fn overlap_and_blocking_are_bit_identical() {
    let iters = 4;
    let acase = airfoil::Airfoil::<f64>::new(30, 18).case;
    let (q_o, h_o) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &acase,
        3,
        TEAM,
        BLOCK,
        iters,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    let (q_b, h_b) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &acase,
        3,
        TEAM,
        BLOCK,
        iters,
        Shape::Threaded,
        ExchangePolicy::Blocking,
    );
    assert!(
        q_o.data
            .iter()
            .zip(&q_b.data)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "airfoil overlap vs blocking diverged"
    );
    assert_eq!(h_o, h_b, "airfoil rms histories must be bit-equal");

    let vcase = volna::Volna::<f64>::new(14, 10).case;
    let (w_o, d_o) = dist::run_mpi_fused::<volna::Volna<f64>, 4>(
        &vcase,
        4,
        TEAM,
        BLOCK,
        iters,
        Shape::Simd { lanes: 4 },
        ExchangePolicy::Overlap,
    );
    let (w_b, d_b) = dist::run_mpi_fused::<volna::Volna<f64>, 4>(
        &vcase,
        4,
        TEAM,
        BLOCK,
        iters,
        Shape::Simd { lanes: 4 },
        ExchangePolicy::Blocking,
    );
    assert!(
        w_o.data
            .iter()
            .zip(&w_b.data)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "volna overlap vs blocking diverged"
    );
    assert_eq!(d_o, d_b, "volna Δt histories must be bit-equal");
}

/// One rank of `S` stepped directly on a one-part "partition": the cell
/// dats back in global order, the reduction history and the pool rounds
/// issued.
fn one_rank<S: Simulation>(
    case: &S::Case,
    shape: Shape,
    iters: usize,
) -> (Vec<Vec<S::R>>, Vec<f64>, u64) {
    let mesh = S::case_mesh(case);
    let total = mesh.n_cells();
    let partition = Partition {
        part: vec![0; total],
        n_parts: 1,
    };
    let locals = distribute(mesh, &partition);
    Universe::new(1)
        .run(|comm| {
            let (cache, pool) = (PlanCache::new(), ExecPool::new(TEAM));
            let mut st = Rank::<S>::new(case, locals[0].clone());
            let policy = ExchangePolicy::Overlap;
            let hist = (0..iters)
                .map(|_| {
                    st.step_fused_chain::<4>(
                        comm, &cache, &pool, shape, BLOCK, total, policy, None, None,
                    )
                })
                .collect();
            let ids = &st.local.cell_global;
            let dats = st.evolving()[..S::CELL_DATS]
                .iter()
                .map(|d| assemble_owned(&[(&d.data[..], &ids[..], total)], total, d.dim))
                .collect();
            (dats, hist, pool.dispatch_rounds())
        })
        .remove(0)
}

fn bits<R: Real>(data: &[R]) -> Vec<u64> {
    data.iter().map(|v| v.to_f64().to_bits()).collect()
}

/// A single rank has empty exchange plans and no boundary blocks at all:
/// the distributed chain *is* the shared-memory recording, so state,
/// history and pool rounds equal the fused backends' to the bit.
#[test]
fn single_rank_runs_with_empty_halos() {
    let iters = 4;
    for (shape, backend) in [
        (Shape::Threaded, Backend::Fused),
        (Shape::Simd { lanes: 4 }, Backend::FusedSimd { lanes: 4 }),
    ] {
        let (pool, cache) = (ExecPool::new(TEAM), PlanCache::new());
        let mut sim = airfoil::Airfoil::<f64>::new(24, 12);
        let hist: Vec<f64> = (0..iters)
            .map(|_| airfoil::drivers::step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None))
            .collect();
        let (dats, rank_hist, rounds) = one_rank::<airfoil::Airfoil<f64>>(&sim.case, shape, iters);
        for (got, want) in dats.iter().zip([&sim.q, &sim.qold, &sim.adt, &sim.res]) {
            assert_eq!(
                bits(got),
                bits(&want.data),
                "airfoil {shape:?} {}",
                want.name
            );
        }
        assert_eq!(bits(&rank_hist), bits(&hist), "airfoil {shape:?} history");
        assert_eq!(rounds, pool.dispatch_rounds(), "airfoil {shape:?} rounds");

        let (pool, cache) = (ExecPool::new(TEAM), PlanCache::new());
        let mut sim = volna::Volna::<f64>::new(10, 8);
        let hist: Vec<f64> = (0..iters)
            .map(|_| volna::drivers::step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None))
            .collect();
        let (dats, rank_hist, rounds) = one_rank::<volna::Volna<f64>>(&sim.case, shape, iters);
        for (got, want) in dats.iter().zip([&sim.w, &sim.w_old, &sim.w1, &sim.res]) {
            assert_eq!(bits(got), bits(&want.data), "volna {shape:?} {}", want.name);
        }
        assert_eq!(bits(&rank_hist), bits(&hist), "volna {shape:?} history");
        assert_eq!(rounds, pool.dispatch_rounds(), "volna {shape:?} rounds");
    }

    // and through the driver, against the sequential reference
    let (aref, _) = airfoil_reference(24, 12, iters);
    let (q, _) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &aref.case,
        1,
        TEAM,
        BLOCK,
        iters,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    let d = q.max_abs_diff(&aref.q);
    assert!(d <= 1e-12, "single-rank airfoil: |Δq| {d:e}");

    let (vref, _) = volna_reference(10, 8, iters);
    let (w, _) = dist::run_mpi_fused::<volna::Volna<f64>, 4>(
        &vref.case,
        1,
        TEAM,
        BLOCK,
        iters,
        Shape::Simd { lanes: 4 },
        ExchangePolicy::Overlap,
    );
    let d = w.max_abs_diff(&vref.w);
    assert!(d <= 1e-12, "single-rank volna: |Δw| {d:e}");
}

/// After one step on `partition`, is every ghost row of every rank's
/// `res` exactly zero (and does some rank have ghosts at all)? The ghost
/// increments `res_calc` / `space_disc` make must be discarded by the
/// recording's zeroing epilogue.
fn ghost_res_is_zero<S: Simulation>(
    case: &S::Case,
    partition: &Partition,
    res: impl Fn(&S) -> &OpDat<S::R> + Sync,
) -> bool {
    let mesh = S::case_mesh(case);
    let locals = distribute(mesh, partition);
    let per_rank = Universe::new(locals.len()).run(|comm| {
        let (cache, pool) = (PlanCache::new(), ExecPool::new(TEAM));
        let mut st = Rank::<S>::new(case, locals[comm.rank()].clone());
        let (total, policy) = (mesh.n_cells(), ExchangePolicy::Overlap);
        st.step_fused_chain::<4>(
            comm,
            &cache,
            &pool,
            Shape::Threaded,
            BLOCK,
            total,
            policy,
            None,
            None,
        );
        let ghosts = &res(&st.sim).data[st.local.n_owned_cells * 4..];
        (
            ghosts.len(),
            ghosts.iter().all(|v| v.to_f64().to_bits() == 0),
        )
    });
    per_rank.iter().any(|&(n, _)| n > 0) && per_rank.iter().all(|&(_, zero)| zero)
}

/// Ragged ownership: rank 1 owns a single cell column — at BLOCK = 48
/// its every edge block is fringe (zero interior blocks), while rank 0
/// owns almost everything. The overlap schedule must degrade gracefully
/// on both extremes and still match the reference.
#[test]
fn ragged_partition_with_a_pure_fringe_rank() {
    let iters = 4;
    let (nx, ny) = (36usize, 15usize);
    let (aref, _) = airfoil_reference(nx, ny, iters);
    // quad_channel cells are laid out column-major-ish by generator id:
    // give rank 1 the last column of cells, rank 0 the rest
    let part: Vec<u32> = (0..nx * ny)
        .map(|c| u32::from(c >= (nx - 1) * ny))
        .collect();
    let partition = Partition { part, n_parts: 2 };
    partition.validate().unwrap();
    for policy in [ExchangePolicy::Overlap, ExchangePolicy::Blocking] {
        let (q, _) = dist::run_mpi_fused_with_partition::<airfoil::Airfoil<f64>, 4>(
            &aref.case,
            &partition,
            TEAM,
            BLOCK,
            iters,
            Shape::Threaded,
            policy,
        );
        let d = q.max_abs_diff(&aref.q);
        assert!(d <= 1e-12, "ragged airfoil ({policy:?}): |Δq| {d:e}");
    }
    assert!(
        ghost_res_is_zero::<airfoil::Airfoil<f64>>(&aref.case, &partition, |st| &st.res),
        "airfoil ghost res rows must be re-zeroed after a step"
    );

    // volna on a three-way ragged split: two slivers and a bulk rank
    let (vx, vy) = (14usize, 10usize);
    let (vref, _) = volna_reference(vx, vy, iters);
    let n_cells = vref.case.mesh.n_cells();
    let part: Vec<u32> = (0..n_cells)
        .map(|c| {
            if c < 8 {
                0
            } else if c >= n_cells - 8 {
                2
            } else {
                1
            }
        })
        .collect();
    let partition = Partition { part, n_parts: 3 };
    partition.validate().unwrap();
    let (w, _) = dist::run_mpi_fused_with_partition::<volna::Volna<f64>, 4>(
        &vref.case,
        &partition,
        TEAM,
        BLOCK,
        iters,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    let d = w.max_abs_diff(&vref.w);
    assert!(d <= 1e-12, "ragged volna: |Δw| {d:e}");
    assert!(
        ghost_res_is_zero::<volna::Volna<f64>>(&vref.case, &partition, |st| &st.res),
        "volna ghost res rows must be re-zeroed after a step"
    );
}

/// The README's backend table is generated from the registry — every
/// registered name appears in it, so the docs can never drift from
/// `Backend::all()`.
#[test]
fn readme_backend_table_covers_the_registry() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at repo root");
    for b in ump::Backend::all() {
        let name = b.name();
        assert!(
            readme.contains(&format!("`{name}`")),
            "README backend table is missing `{name}` — regenerate it from Backend::all()"
        );
    }
}

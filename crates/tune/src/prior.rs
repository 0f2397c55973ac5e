//! The archsim prior: rank candidates with the roofline-plus-latency
//! model before spending any wall-clock time on trials.

use crate::candidates::Candidate;
use crate::App;
use ump_archsim::{predict, Backend as ModelBackend, KernelWork, Machine};
use ump_color::{PlanInputs, PlanStats, TwoLevelPlan};
use ump_core::Backend;
use ump_mesh::Mesh2d;

/// Mesh facts the per-kernel work derivation needs: set sizes plus the
/// measured plan statistics of the indirect-increment loops.
#[derive(Clone, Copy, Debug)]
pub struct MeshShape {
    /// Cell count.
    pub cells: usize,
    /// Interior-edge count.
    pub edges: usize,
    /// Boundary-edge count.
    pub bedges: usize,
    /// Cache-block reuse factor from the real two-level plan.
    pub reuse: f64,
    /// Colored-increment serialization depth from the real plan.
    pub serialization: u32,
}

impl MeshShape {
    /// Measure a mesh: set sizes directly, locality from a real
    /// two-level plan over `edge→cell` (the same statistics the bench
    /// harness feeds the model).
    pub fn of(mesh: &Mesh2d, block_size: usize) -> MeshShape {
        let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], block_size);
        let plan = TwoLevelPlan::build(&inputs);
        let stats = PlanStats::of_two_level(&plan, &[&mesh.edge2cell], 4);
        MeshShape {
            cells: mesh.n_cells(),
            edges: mesh.n_edges(),
            bedges: mesh.n_bedges(),
            reuse: stats.reuse_factor,
            serialization: stats.max_elem_colors.max(1),
        }
    }

    /// Iteration-set size by name.
    pub fn set_size(&self, set: &str) -> usize {
        match set {
            "cells" => self.cells,
            "edges" => self.edges,
            _ => self.bedges,
        }
    }
}

/// Build the model input for one kernel (mirrors the bench harness's
/// derivation: one i32 map word per indirect argument, `bres_calc` is
/// the canonical unvectorizable kernel, plan statistics apply only to
/// indirect loops).
pub fn work_for(app: App, kernel: &str, shape: &MeshShape) -> KernelWork {
    let profile = app.profile(kernel);
    let t = profile.transfers();
    let n_elems = shape.set_size(&profile.set);
    let map_words = profile.args.iter().filter(|a| a.is_indirect()).count();
    let vectorizable = profile.name != "bres_calc";
    let indirect = t.indirect_read + t.indirect_write > 0;
    KernelWork {
        n_elems,
        word_bytes: 8,
        reuse: if indirect { shape.reuse } else { 1.0 },
        serialization: if t.indirect_write > 0 {
            shape.serialization
        } else {
            1
        },
        map_words,
        vectorizable,
        profile,
    }
}

/// The model analogue of a registry backend, plus how far the shape
/// falls short of the model's whole-machine assumption: `predict`
/// prices every backend as if it owned all cores, so single-threaded
/// shapes are charged `cores` on top.
fn analogue(b: Backend) -> ModelBackend {
    match b {
        Backend::Seq => ModelBackend::ScalarMpi,
        Backend::Threaded | Backend::Fused | Backend::Tiled => ModelBackend::ScalarThreaded,
        Backend::Simd { .. } => ModelBackend::VecMpi,
        Backend::SimdThreaded { .. } | Backend::FusedSimd { .. } | Backend::TiledSimd { .. } => {
            ModelBackend::VecThreaded
        }
        Backend::Simt | Backend::FusedSimt => ModelBackend::OpenCl,
    }
}

/// Predicted seconds for one whole timestep of `app` under `cand` on
/// `machine` — the prior score (lower is better).
pub fn score(machine: &Machine, cand: &Candidate, app: App, shape: &MeshShape) -> f64 {
    let model_backend = analogue(cand.backend);
    // whole-machine model vs what the shape can actually occupy
    let occupancy = if cand.backend.needs_pool() {
        // a worker team on a single-core host oversubscribes it: the
        // workers time-slice one core and pay barrier and context-switch
        // churn the whole-machine model never sees — charge pooled
        // shapes double there so the prior ranks the pool-free shapes
        // (seq, whole-set SIMD) first
        if machine.cores <= 1 {
            2.0
        } else {
            1.0
        }
    } else {
        (machine.cores as f64).max(1.0)
    };
    let mut seconds = 0.0;
    for (kernel, _set, calls) in app.kernels() {
        let w = work_for(app, kernel, shape);
        seconds += predict(machine, model_backend, &w).seconds * calls * occupancy;
    }
    if cand.backend.is_fused() {
        // fusion's first-order win is eliding per-loop launches: credit
        // roughly half the merged launches (the chains keep ~2 groups)
        let merged = (app.kernels().len() as f64 - 2.0).max(0.0);
        seconds = (seconds - merged * machine.launch_us * 1e-6 * 0.5).max(seconds * 0.5);
    }
    seconds
}

/// Rank candidates by prior score ascending and keep the best `top_k`.
/// Ties and model blind spots are what the measured trials are for.
pub fn rank(
    machine: &Machine,
    cands: &[Candidate],
    app: App,
    shape: &MeshShape,
    top_k: usize,
) -> Vec<Candidate> {
    let mut scored: Vec<(f64, Candidate)> = cands
        .iter()
        .map(|c| (score(machine, c, app, shape), *c))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored
        .into_iter()
        .take(top_k.max(1))
        .map(|(_, c)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate;
    use ump_archsim::machines;
    use ump_mesh::generators::quad_channel;

    #[test]
    fn prior_prefers_parallel_shapes_on_a_parallel_machine() {
        let mesh = quad_channel(48, 24).mesh;
        let shape = MeshShape::of(&mesh, 256);
        assert!(shape.reuse > 1.0 && shape.serialization >= 2);
        let m = machines::host(16, 60.0);
        let cands = enumerate(4);
        let seq = cands.iter().find(|c| c.backend == Backend::Seq).unwrap();
        let thr = cands
            .iter()
            .find(|c| c.backend == Backend::Threaded)
            .unwrap();
        assert!(
            score(&m, thr, App::Airfoil, &shape) < score(&m, seq, App::Airfoil, &shape),
            "threaded should beat seq on a 16-core model"
        );
        let top = rank(&m, &cands, App::Airfoil, &shape, 5);
        assert_eq!(top.len(), 5);
        assert!(top.iter().all(|c| Backend::all().contains(&c.backend)));
        assert!(
            !top.iter().any(|c| c.backend == Backend::Seq),
            "seq must not survive top-5 pruning on a 16-core model"
        );
    }

    #[test]
    fn prior_prefers_pool_free_shapes_on_a_single_core_host() {
        let mesh = quad_channel(48, 24).mesh;
        let shape = MeshShape::of(&mesh, 256);
        let m = machines::host(1, 8.0);
        let cands = enumerate(4);
        for app in [App::Airfoil, App::Volna] {
            // pairwise: each pooled shape must lose to its pool-free
            // analogue when there is only one core to share
            for (free, pooled) in [
                (Backend::Seq, Backend::Threaded),
                (Backend::Seq, Backend::Fused),
                (
                    Backend::Simd { lanes: 4 },
                    Backend::SimdThreaded { lanes: 4 },
                ),
                (Backend::Simd { lanes: 4 }, Backend::FusedSimd { lanes: 4 }),
            ] {
                let f = cands.iter().find(|c| c.backend == free).unwrap();
                let p = cands.iter().find(|c| c.backend == pooled).unwrap();
                assert!(
                    score(&m, f, app, &shape) < score(&m, p, app, &shape),
                    "{} must outrank {} on a 1-core host ({app:?})",
                    free.name(),
                    pooled.name()
                );
            }
            // and the overall winner must not need the pool at all
            let top = rank(&m, &cands, app, &shape, 1);
            assert!(
                !top[0].backend.needs_pool(),
                "1-core prior picked pooled {} for {app:?}",
                top[0].backend.name()
            );
        }
    }

    #[test]
    fn every_candidate_scores_finite() {
        let mesh = quad_channel(20, 14).mesh;
        let shape = MeshShape::of(&mesh, 256);
        let m = machines::host(1, 8.0);
        for app in [App::Airfoil, App::Volna] {
            for c in enumerate(2) {
                let s = score(&m, &c, app, &shape);
                assert!(s.is_finite() && s > 0.0, "{:?} scored {s}", c.backend);
            }
        }
    }
}

//! # ump-bench — the reproduction harness
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation section (see DESIGN.md's per-experiment index); the
//! Criterion benches (`kernels`, `fusion`, `halo`, `resilience`, `tune`)
//! measure one subsystem each. Layer probes — pool dispatch, SIMD
//! gather/scatter, plan construction — are per-layer rows of the
//! reference benchmark (`benchmark/`: `core.empty_round_us`,
//! `simd.gather_ns_per_elem`, `color.plan_build_ms`, …).
//!
//! This library holds the shared plumbing: building [`KernelWork`] model
//! inputs from *measured* plan statistics on real meshes, and running the
//! host backends under a [`Recorder`].

#![deny(missing_docs)]

use ump_archsim::KernelWork;
use ump_color::{PlanInputs, PlanStats, TwoLevelPlan};
use ump_core::{LoopProfile, Recorder};
use ump_mesh::Mesh2d;

/// Problem scale selector: `small` keeps the full suite in minutes on a
/// laptop; `paper` allocates the full 2.8M-cell meshes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ≈ 1/16 of the paper's element counts (600×300 Airfoil cells).
    Small,
    /// The paper's 2.8M-cell Airfoil / 2.4M-cell Volna meshes.
    Paper,
}

impl Scale {
    /// Airfoil grid dimensions at this scale.
    pub fn airfoil_dims(self) -> (usize, usize) {
        match self {
            Scale::Small => (600, 300),
            Scale::Paper => (2400, 1200),
        }
    }

    /// Volna grid dimensions at this scale.
    pub fn volna_dims(self) -> (usize, usize) {
        match self {
            Scale::Small => (274, 273),
            Scale::Paper => (1096, 1092),
        }
    }

    /// Iterations to time at this scale (the paper runs 1000; small runs
    /// scale that down — rates, not totals, are compared).
    pub fn iters(self) -> usize {
        match self {
            Scale::Small => 10,
            Scale::Paper => 50,
        }
    }

    /// Parse from a CLI word.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Measured locality/serialization statistics for one loop shape,
/// produced from the real plans — the model inputs the paper derives
/// from its own plan construction.
pub struct MeasuredLoop {
    /// Reuse factor within cache-resident blocks.
    pub reuse: f64,
    /// Serialization depth (max element colors per block).
    pub serialization: u32,
}

/// Measure an indirect loop's plan statistics on a mesh.
pub fn measure_indirect(mesh: &Mesh2d, block_size: usize) -> MeasuredLoop {
    let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], block_size);
    let plan = TwoLevelPlan::build(&inputs);
    let stats = PlanStats::of_two_level(&plan, &[&mesh.edge2cell], 4);
    MeasuredLoop {
        reuse: stats.reuse_factor,
        serialization: stats.max_elem_colors,
    }
}

/// Build the archsim input for one kernel at a given size/precision,
/// using measured plan statistics where the kernel is indirect.
pub fn work_for(
    profile: &LoopProfile,
    n_elems: usize,
    word_bytes: usize,
    measured: Option<&MeasuredLoop>,
) -> KernelWork {
    let t = profile.transfers();
    let indirect_args = profile.args.iter().filter(|a| a.is_indirect()).count();
    // one i32 map word per indirect argument slot
    let map_words = indirect_args;
    // the canonical non-vectorizable kernel is the boundary one with its
    // data-dependent branch (Table VI marks bres-like kernels unvectorized)
    let vectorizable = profile.name != "bres_calc";
    let (reuse, serialization) = match measured {
        Some(m) if t.indirect_read + t.indirect_write > 0 => (m.reuse, m.serialization.max(1)),
        _ => (1.0, 1),
    };
    KernelWork {
        profile: profile.clone(),
        n_elems,
        word_bytes,
        reuse,
        serialization: if t.indirect_write > 0 {
            serialization
        } else {
            1
        },
        map_words,
        vectorizable,
    }
}

/// Pretty seconds → compact string with sensible precision.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

/// Render a recorder as per-kernel table rows: (name, seconds, GB/s,
/// GFLOP/s).
pub fn recorder_rows(rec: &Recorder) -> Vec<(String, f64, f64, f64)> {
    rec.report()
        .into_iter()
        .map(|(name, s)| (name, s.seconds, s.gb_per_s(), s.gflop_per_s()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_apps::airfoil;
    use ump_mesh::generators::quad_channel;

    #[test]
    fn measured_stats_feed_the_model() {
        let mesh = quad_channel(40, 20).mesh;
        let m = measure_indirect(&mesh, 128);
        assert!(m.reuse > 1.2, "grid edge loops reuse cells: {}", m.reuse);
        assert!(m.serialization >= 2);
        let w = work_for(&airfoil::profile("res_calc"), mesh.n_edges(), 8, Some(&m));
        assert_eq!(w.map_words, 8);
        assert!(w.vectorizable);
        assert_eq!(w.reuse, m.reuse);
        let wd = work_for(&airfoil::profile("save_soln"), 100, 8, Some(&m));
        assert_eq!(wd.reuse, 1.0);
        assert_eq!(wd.serialization, 1);
        let wb = work_for(&airfoil::profile("bres_calc"), 10, 8, None);
        assert!(!wb.vectorizable);
    }

    #[test]
    fn scales_parse_and_shrink() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        let (sx, sy) = Scale::Small.airfoil_dims();
        let (px, py) = Scale::Paper.airfoil_dims();
        assert_eq!(px * py, 16 * sx * sy);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(123.4), "123");
        assert_eq!(fmt_s(12.345), "12.35");
        assert_eq!(fmt_s(0.0123), "12.30ms");
    }
}

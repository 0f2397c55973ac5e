//! The Volna shallow-water tsunami benchmark (paper §6.1, Table III).
//!
//! Volna proper solves the nonlinear shallow-water equations with a
//! finite-volume scheme on triangles; its OP2 port runs six kernels per
//! step. The original's flux function and real bathymetry are not
//! public, so per DESIGN.md we implement a standard equivalent — a
//! Rusanov (local Lax–Friedrichs) flux with a centered bed-slope source
//! on the synthetic coastal mesh — keeping the kernel names, iteration
//! sets, and access shapes of Table III:
//!
//! ```text
//! sim_1          cells  direct copy            w_old ← w
//! compute_flux   edges  gather, direct write   Rusanov flux + wave speed
//! numerical_flux edges  gather, reduction      CFL timestep (min-reduce)
//! space_disc     edges  gather, scatter        accumulate cell residuals
//! bc_flux        bedges boundary               reflective-wall closure
//! RK_1           cells  direct                 Heun stage 1
//! RK_2           cells  direct                 Heun stage 2
//! ```
//!
//! State per cell is `w = (h, hu, hv, b)`: water column height, momenta,
//! and static bed elevation (negative below sea level) riding in slot 3
//! so gathers move one aligned 4-vector per cell. The paper runs Volna in
//! single precision; kernels stay generic over `R` so tests can pin the
//! f32 backends against an f64 reference.

/// The evolving dats of a Volna state, in snapshot order:
/// `evolving!(s)` borrows them shared, `evolving!(s, mut)` exclusively.
macro_rules! evolving {
    ($s:expr $(, $m:tt)?) => {
        vec![
            &$($m)? $s.w,
            &$($m)? $s.w_old,
            &$($m)? $s.w1,
            &$($m)? $s.res,
            &$($m)? $s.eflux,
        ]
    };
}

pub mod drivers;
pub mod kernels;
pub mod kernels_vec;

use ump_core::{Access, ArgInfo, Layout, LoopProfile, OpDat};
use ump_lazy::TileCache;
use ump_mesh::generators::{tri_coastal, CoastalCase};
use ump_simd::Real;

/// Gravity (the paper's tsunami setting is dimensional).
pub const GRAVITY: f64 = 9.81;
/// CFL number for the explicit RK2 scheme.
pub const CFL: f64 = 0.4;
/// Minimum water column to keep the flux function finite.
pub const H_MIN: f64 = 1.0e-6;

/// The Volna simulation state at precision `R`.
#[derive(Clone, Debug)]
pub struct Volna<R: Real> {
    /// Mesh, bathymetry and source.
    pub case: CoastalCase,
    /// Cell state (h, hu, hv, b).
    pub w: OpDat<R>,
    /// Saved state (sim_1's target).
    pub w_old: OpDat<R>,
    /// RK stage state.
    pub w1: OpDat<R>,
    /// Cell residuals (slot 3 unused, kept for aligned 4-vectors).
    pub res: OpDat<R>,
    /// Cell areas.
    pub area: OpDat<R>,
    /// Edge geometry (nx, ny, len, 0): unit normal out of `edge2cell[0]`
    /// plus the edge length in slot 2.
    pub egeom: OpDat<R>,
    /// Edge fluxes (f_h, f_hu, f_hv, λ·len) written by `compute_flux`.
    pub eflux: OpDat<R>,
    /// Boundary-edge geometry (nx·len, ny·len): outward normal of the
    /// boundary cell scaled by edge length, consumed by `bc_flux`.
    pub bgeom: OpDat<R>,
    /// The tiled executor's schedule and buffers, reused by every
    /// [`run_tiled_on`](drivers::run_tiled_on) call on this state (empty
    /// until the first; a clone shares the schedule, not the buffers).
    pub tiles: TileCache<R>,
}

impl<R: Real> Volna<R> {
    /// Set up the benchmark on an `nx × ny` coastal triangle mesh (the
    /// paper's mesh is ≈ 2.39M cells ≈ `tri_coastal(1096, 1092)`).
    pub fn new(nx: usize, ny: usize) -> Volna<R> {
        Self::from_case(tri_coastal(nx, ny))
    }

    /// [`new`](Volna::new) followed by [`perturb`](Volna::perturb).
    pub fn seeded(nx: usize, ny: usize, seed: u64) -> Volna<R> {
        let mut sim = Self::new(nx, ny);
        sim.perturb(seed);
        sim
    }

    /// Rescale the initial free-surface displacement deterministically
    /// from `seed` — the per-job initial conditions of the service
    /// layer. Seed 0 leaves the pristine case. Each cell's surface
    /// elevation η is scaled by ±5 % (SplitMix64 stream); the water
    /// column stays at least the still-water depth minus 5 % of the
    /// source amplitude, so every seeded case remains wet and stable.
    pub fn perturb(&mut self, seed: u64) {
        if seed == 0 {
            return;
        }
        let mut rng = ump_mesh::SplitMix64::new(seed);
        for c in 0..self.w.set_size {
            let scale = R::from_f64(1.0 + 0.1 * (rng.next_f64() - 0.5));
            let row = self.w.row_mut(c);
            let b = row[3];
            // h = depth + η·scale, with depth = −b and η = h + b
            let eta = row[0] + b;
            row[0] = -b + eta * scale;
        }
    }

    /// Set up on a prebuilt case: still water plus the tsunami source.
    /// The edges are first put in the canonical cell-major order (see
    /// [`Airfoil::from_case`](crate::airfoil::Airfoil::from_case)); the
    /// edge dats below are built after the reorder, so everything stays
    /// consistent.
    pub fn from_case(mut case: CoastalCase) -> Volna<R> {
        ump_mesh::renumber::order_edges_by_cells(&mut case.mesh);
        Self::preordered(case)
    }

    /// [`from_case`](Volna::from_case) without the edge ordering: the
    /// case's mesh in its own edge order — also the state of a
    /// distributed rank, on its mesh piece.
    pub(crate) fn preordered(case: CoastalCase) -> Volna<R> {
        let mesh = &case.mesh;
        let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
        let w = OpDat::from_fn("w", nc, 4, |c| {
            let depth = case.bathy_cell[c];
            let eta = case.eta0_cell[c];
            let b = -depth; // bed elevation, negative under water
            let h = depth + eta;
            vec![R::from_f64(h), R::ZERO, R::ZERO, R::from_f64(b)]
        });
        let area = OpDat::from_fn("area", nc, 1, |c| vec![R::from_f64(mesh.cell_area(c))]);
        let egeom = OpDat::from_fn("egeom", ne, 4, |e| {
            let n = mesh.edge2node.row(e);
            let a = mesh.node_xy[n[0] as usize];
            let b = mesh.node_xy[n[1] as usize];
            // dx, dy as in the Airfoil kernels: a - b; outward normal of
            // the right cell (edge2cell[0]) is (dy, -dx)/len
            let (dx, dy) = (a[0] - b[0], a[1] - b[1]);
            let len = (dx * dx + dy * dy).sqrt();
            vec![
                R::from_f64(dy / len),
                R::from_f64(-dx / len),
                R::from_f64(len),
                R::ZERO,
            ]
        });
        let bgeom = OpDat::from_fn("bgeom", mesh.n_bedges(), 2, |be| {
            let n = mesh.bedge2node.row(be);
            let a = mesh.node_xy[n[0] as usize];
            let b = mesh.node_xy[n[1] as usize];
            let (dx, dy) = (a[0] - b[0], a[1] - b[1]);
            // outward normal of the (right-lying) cell times length
            vec![R::from_f64(dy), R::from_f64(-dx)]
        });
        Volna {
            w_old: OpDat::zeros("w_old", nc, 4),
            w1: OpDat::zeros("w1", nc, 4),
            res: OpDat::zeros("res", nc, 4),
            eflux: OpDat::zeros("eflux", ne, 4),
            w,
            area,
            egeom,
            bgeom,
            case,
            tiles: TileCache::default(),
        }
    }

    /// Storage layout of the simulation dats (uniform —
    /// [`set_layout`](Volna::set_layout) converts all of them together).
    pub fn layout(&self) -> Layout {
        self.w.layout
    }

    /// Convert every dat to `to`. A pure index permutation (bit-exact);
    /// the recorded chain executes natively in any layout, the AoS-defined
    /// paths (`step_seq`, the distributed rows, the tiled executor)
    /// convert around their calls.
    pub fn set_layout(&mut self, to: Layout) {
        self.w.set_layout(to);
        self.w_old.set_layout(to);
        self.w1.set_layout(to);
        self.res.set_layout(to);
        self.area.set_layout(to);
        self.egeom.set_layout(to);
        self.eflux.set_layout(to);
        self.bgeom.set_layout(to);
    }

    /// Total water volume Σ h·A — exactly conserved by the scheme
    /// (boundary edges are reflective walls: no mass flux).
    pub fn total_volume(&self) -> f64 {
        (0..self.w.set_size)
            .map(|c| self.w.row(c)[0].to_f64() * self.area.row(c)[0].to_f64())
            .sum()
    }

    /// Total dat memory footprint in bytes (Table IV's Volna row).
    pub fn dat_bytes(&self) -> usize {
        self.w.bytes()
            + self.w_old.bytes()
            + self.w1.bytes()
            + self.res.bytes()
            + self.area.bytes()
            + self.egeom.bytes()
            + self.eflux.bytes()
    }

    /// Maximum |free surface| — the wave amplitude, for sanity checks.
    pub fn max_eta(&self) -> f64 {
        (0..self.w.set_size)
            .map(|c| {
                let r = self.w.row(c);
                (r[0].to_f64() + r[3].to_f64()).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Static profiles of the six kernels (the Table III analogue, derived
/// from our actual argument lists — the paper's exact counts differ
/// slightly because Volna's flux function is not public; see
/// EXPERIMENTS.md).
pub fn profiles() -> Vec<LoopProfile> {
    vec![
        LoopProfile {
            name: "sim_1".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::direct("w", 4, Access::Read),
                ArgInfo::direct("w_old", 4, Access::Write),
            ],
            flops_per_elem: 0.0,
            transcendentals_per_elem: 0.0,
            description: "Direct copy".into(),
        },
        LoopProfile {
            name: "compute_flux".into(),
            set: "edges".into(),
            args: vec![
                ArgInfo::direct("egeom", 4, Access::Read),
                ArgInfo::indirect("w", 4, Access::Read, "edge2cell", 0),
                ArgInfo::indirect("w", 4, Access::Read, "edge2cell", 1),
                ArgInfo::direct("eflux", 4, Access::Write),
            ],
            flops_per_elem: 56.0,
            transcendentals_per_elem: 2.0,
            description: "Gather, direct write".into(),
        },
        LoopProfile {
            name: "numerical_flux".into(),
            set: "edges".into(),
            args: vec![
                ArgInfo::direct("egeom", 4, Access::Read),
                ArgInfo::direct("eflux", 4, Access::Read),
                ArgInfo::indirect("area", 1, Access::Read, "edge2cell", 0),
                ArgInfo::indirect("area", 1, Access::Read, "edge2cell", 1),
                ArgInfo::global("dt", 1, Access::Inc),
            ],
            flops_per_elem: 6.0,
            transcendentals_per_elem: 0.0,
            description: "Gather, reduction".into(),
        },
        LoopProfile {
            name: "space_disc".into(),
            set: "edges".into(),
            args: vec![
                ArgInfo::direct("egeom", 4, Access::Read),
                ArgInfo::direct("eflux", 4, Access::Read),
                ArgInfo::indirect("w", 4, Access::Read, "edge2cell", 0),
                ArgInfo::indirect("w", 4, Access::Read, "edge2cell", 1),
                ArgInfo::indirect("res", 4, Access::Inc, "edge2cell", 0),
                ArgInfo::indirect("res", 4, Access::Inc, "edge2cell", 1),
            ],
            flops_per_elem: 23.0,
            transcendentals_per_elem: 0.0,
            description: "Gather, scatter".into(),
        },
        LoopProfile {
            name: "bc_flux".into(),
            set: "bedges".into(),
            args: vec![
                ArgInfo::direct("bgeom", 2, Access::Read),
                ArgInfo::indirect("w", 4, Access::Read, "bedge2cell", 0),
                ArgInfo::indirect("res", 4, Access::Inc, "bedge2cell", 0),
            ],
            flops_per_elem: 9.0,
            transcendentals_per_elem: 0.0,
            description: "Boundary (reflective wall)".into(),
        },
        LoopProfile {
            name: "RK_1".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::direct("w_old", 4, Access::Read),
                ArgInfo::direct("res", 4, Access::Rw),
                ArgInfo::direct("w1", 4, Access::Write),
                ArgInfo::direct("area", 1, Access::Read),
                ArgInfo::global("dt", 1, Access::Read),
            ],
            flops_per_elem: 12.0,
            transcendentals_per_elem: 0.0,
            description: "Direct".into(),
        },
        LoopProfile {
            name: "RK_2".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::direct("w_old", 4, Access::Read),
                ArgInfo::direct("w1", 4, Access::Read),
                ArgInfo::direct("res", 4, Access::Rw),
                ArgInfo::direct("w", 4, Access::Write),
                ArgInfo::direct("area", 1, Access::Read),
                ArgInfo::global("dt", 1, Access::Read),
            ],
            flops_per_elem: 16.0,
            transcendentals_per_elem: 0.0,
            description: "Direct".into(),
        },
    ]
}

/// Look up one profile by kernel name. Served from a process-wide cache:
/// instrumented and fused drivers resolve profiles every loop of every
/// step, which must not rebuild the whole signature vocabulary.
pub fn profile(name: &str) -> LoopProfile {
    find_profile(name).unwrap_or_else(|| panic!("unknown volna kernel {name}"))
}

/// The recorded descriptor of a state-gathering loop (`compute_flux`,
/// `space_disc`, `bc_flux`) in RK phase `phase`: the dat those loops
/// gather switches from `w` to `w1` in the second phase, and the
/// dependency analysis of the recording (fusion groups, tile cones)
/// must see what the body actually reads.
pub(crate) fn phase_desc(name: &str, n_elems: usize, phase: usize) -> ump_lazy::LoopDesc {
    let mut p = profile(name);
    if phase == 1 {
        for a in &mut p.args {
            if a.dat == "w" {
                a.dat = "w1".into();
            }
        }
    }
    ump_lazy::LoopDesc::new(p, n_elems)
}

/// [`profile`], or `None` when `name` is not one of this application's
/// kernels.
pub(crate) fn find_profile(name: &str) -> Option<LoopProfile> {
    static CACHE: std::sync::OnceLock<Vec<LoopProfile>> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(profiles)
        .iter()
        .find(|p| p.name == name)
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_still_water_plus_source() {
        let v: Volna<f64> = Volna::new(12, 8);
        assert_eq!(v.w.set_size, 12 * 8 * 2);
        // every water column positive, eta = h + b equals the source
        for c in 0..v.w.set_size {
            let r = v.w.row(c);
            assert!(r[0].to_f64() > 0.0, "dry cell {c}");
            let eta = r[0] + r[3];
            assert!((eta - v.case.eta0_cell[c]).abs() < 1e-12);
            assert_eq!(r[1], 0.0);
        }
        assert!(v.max_eta() > 0.4, "source peak present");
    }

    #[test]
    fn edge_normals_are_unit_and_outward_of_first_cell() {
        let v: Volna<f64> = Volna::new(6, 6);
        let mesh = &v.case.mesh;
        for e in 0..mesh.n_edges() {
            let g = v.egeom.row(e);
            let (nx, ny, len) = (g[0], g[1], g[2]);
            assert!((nx * nx + ny * ny - 1.0).abs() < 1e-12, "unit normal");
            assert!(len > 0.0);
            // outward of cell 0: midpoint + eps*n must be farther from
            // cell 0's centroid than the midpoint itself
            let n = mesh.edge2node.row(e);
            let a = mesh.node_xy[n[0] as usize];
            let b = mesh.node_xy[n[1] as usize];
            let mid = [(a[0] + b[0]) * 0.5, (a[1] + b[1]) * 0.5];
            let c0 = mesh.cell_centroid(mesh.edge2cell.at(e, 0));
            let d0 = (mid[0] - c0[0]) * nx + (mid[1] - c0[1]) * ny;
            assert!(d0 > 0.0, "edge {e} normal points into cell 0");
        }
    }

    #[test]
    fn seeded_stays_wet_and_deterministic() {
        let a: Volna<f64> = Volna::seeded(12, 8, 41);
        let b: Volna<f64> = Volna::seeded(12, 8, 41);
        let p: Volna<f64> = Volna::new(12, 8);
        assert_eq!(a.w.data, b.w.data);
        assert_ne!(a.w.data, p.w.data);
        assert_eq!(Volna::<f64>::seeded(12, 8, 0).w.data, p.w.data);
        for c in 0..a.w.set_size {
            let r = a.w.row(c);
            assert!(r[0] > 0.0, "cell {c} dried out");
            // η scaled by at most ±5 %
            let (eta, eta0) = (r[0] + r[3], p.w.row(c)[0] + p.w.row(c)[3]);
            assert!((eta - eta0).abs() <= 0.051 * eta0.abs() + 1e-12);
        }
    }

    #[test]
    fn profiles_have_paper_shape() {
        let sd = profile("space_disc");
        let t = sd.transfers();
        assert_eq!(t.direct_read, 8); // paper: 8
        assert_eq!(t.indirect_write, 8); // paper: 8
        assert!(sd.needs_coloring());
        let nf = profile("numerical_flux");
        assert!(nf.has_reduction());
        assert!(!profile("sim_1").is_indirect());
        assert!(!profile("RK_1").needs_coloring());
        let cf = profile("compute_flux");
        assert!(cf.is_indirect() && !cf.needs_coloring());
    }

    #[test]
    fn footprint_volna_paper_scale() {
        // paper: 355 MB SP for 2.39M cells / 3.59M edges — our dats at
        // that scale: cells*13 + edges*8 words
        let words = 2_392_352usize * 13 + 3_589_735 * 8;
        let mb = words * 4 / 1_000_000;
        assert!((100..500).contains(&mb), "{mb} MB");
    }
}

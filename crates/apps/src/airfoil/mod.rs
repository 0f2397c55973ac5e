//! The Airfoil benchmark: data layout, constants, loop profiles, and the
//! simulation harness.
//!
//! Iteration structure (as in OP2's `airfoil.cpp`):
//!
//! ```text
//! for iter {
//!     save_soln:  qold ← q                      (cells, direct copy)
//!     2 × {  adt_calc:  local timestep          (cells, gather x)
//!            res_calc:  interior fluxes          (edges, gather, colored scatter)
//!            bres_calc: boundary fluxes          (bedges, tiny)
//!            update:    q ← qold − Δt·res, rms   (cells, direct, reduction) }
//! }
//! ```

/// The evolving dats of an Airfoil state, in snapshot order:
/// `evolving!(s)` borrows them shared, `evolving!(s, mut)` exclusively.
macro_rules! evolving {
    ($s:expr $(, $m:tt)?) => {
        vec![&$($m)? $s.q, &$($m)? $s.qold, &$($m)? $s.adt, &$($m)? $s.res]
    };
}

pub mod drivers;
pub mod kernels;
pub mod kernels_vec;
pub mod mpi;

use ump_core::{Access, ArgInfo, Layout, LoopProfile, OpDat};
use ump_lazy::TileCache;
use ump_mesh::generators::{quad_channel, AirfoilCase};
use ump_simd::Real;

/// Physical and numerical constants of the benchmark (OP2 `airfoil.cpp`
/// values).
#[derive(Clone, Copy, Debug)]
pub struct Consts<R: Real> {
    /// Ratio of specific heats γ = 1.4.
    pub gam: R,
    /// γ − 1.
    pub gm1: R,
    /// CFL number 0.9.
    pub cfl: R,
    /// Artificial-viscosity coefficient 0.05.
    pub eps: R,
    /// Freestream state (ρ, ρu, ρv, ρE) at Mach 0.4.
    pub qinf: [R; 4],
}

impl<R: Real> Default for Consts<R> {
    fn default() -> Self {
        let gam = 1.4f64;
        let gm1 = gam - 1.0;
        let mach = 0.4;
        let (p, r) = (1.0f64, 1.0f64);
        let u = (gam * p / r).sqrt() * mach;
        let e = p / (r * gm1) + 0.5 * u * u;
        Consts {
            gam: R::from_f64(gam),
            gm1: R::from_f64(gm1),
            cfl: R::from_f64(0.9),
            eps: R::from_f64(0.05),
            qinf: [
                R::from_f64(r),
                R::from_f64(r * u),
                R::ZERO,
                R::from_f64(r * e),
            ],
        }
    }
}

/// The full simulation state at precision `R`.
#[derive(Clone, Debug)]
pub struct Airfoil<R: Real> {
    /// Mesh and boundary tags.
    pub case: AirfoilCase,
    /// Constants.
    pub consts: Consts<R>,
    /// Node coordinates (nodes × 2).
    pub x: OpDat<R>,
    /// Flow variables (cells × 4).
    pub q: OpDat<R>,
    /// Saved flow variables (cells × 4).
    pub qold: OpDat<R>,
    /// Local timestep (cells × 1).
    pub adt: OpDat<R>,
    /// Residuals (cells × 4).
    pub res: OpDat<R>,
    /// The tiled executor's schedule and buffers, reused by every
    /// [`run_tiled_on`](drivers::run_tiled_on) call on this state (empty
    /// until the first; a clone shares the schedule, not the buffers).
    pub tiles: TileCache<R>,
}

impl<R: Real> Airfoil<R> {
    /// Set up the benchmark on an `nx × ny` channel mesh (the paper's
    /// meshes are 1200×600 and 2400×1200) with freestream initial data.
    pub fn new(nx: usize, ny: usize) -> Airfoil<R> {
        Self::from_case(quad_channel(nx, ny))
    }

    /// [`new`](Airfoil::new) followed by [`perturb`](Airfoil::perturb).
    pub fn seeded(nx: usize, ny: usize, seed: u64) -> Airfoil<R> {
        let mut sim = Self::new(nx, ny);
        sim.perturb(seed);
        sim
    }

    /// Perturb the freestream deterministically from `seed` — the
    /// per-job initial conditions of the service layer, where thousands
    /// of concurrent simulations must each be reproducible from their
    /// spec alone. Seed 0 leaves the pristine case. Density and energy
    /// are scaled together by ±5·10⁻⁵ per cell (SplitMix64 stream),
    /// small enough to keep the solver in its stable regime at any mesh
    /// size.
    pub fn perturb(&mut self, seed: u64) {
        if seed == 0 {
            return;
        }
        let mut rng = ump_mesh::SplitMix64::new(seed);
        for c in 0..self.q.set_size {
            let f = R::from_f64(1.0 + 1.0e-4 * (rng.next_f64() - 0.5));
            let row = self.q.row_mut(c);
            row[0] *= f;
            row[3] *= f;
        }
    }

    /// Set up on a prebuilt case, its edges first put in the canonical
    /// cell-major order
    /// ([`order_edges_by_cells`](ump_mesh::renumber::order_edges_by_cells)):
    /// the indirect edge loops then gather from and increment into
    /// ascending cells, so their cell traffic streams. The state depends
    /// on the case's mesh alone, not on the order its edges come in.
    pub fn from_case(mut case: AirfoilCase) -> Airfoil<R> {
        ump_mesh::renumber::order_edges_by_cells(&mut case.mesh);
        Self::preordered(case)
    }

    /// [`from_case`](Airfoil::from_case) without the edge ordering:
    /// freestream data on the case's mesh in its own edge order — also
    /// the state of a distributed rank, on its mesh piece.
    pub(crate) fn preordered(case: AirfoilCase) -> Airfoil<R> {
        let consts = Consts::<R>::default();
        let n_nodes = case.mesh.n_nodes();
        let n_cells = case.mesh.n_cells();
        let x = OpDat::from_fn("x", n_nodes, 2, |n| {
            let [px, py] = case.mesh.node_xy[n];
            vec![R::from_f64(px), R::from_f64(py)]
        });
        let q = OpDat::from_fn("q", n_cells, 4, |_| consts.qinf.to_vec());
        let qold = OpDat::zeros("qold", n_cells, 4);
        let adt = OpDat::zeros("adt", n_cells, 1);
        let res = OpDat::zeros("res", n_cells, 4);
        Airfoil {
            case,
            consts,
            x,
            q,
            qold,
            adt,
            res,
            tiles: TileCache::default(),
        }
    }

    /// Storage layout of the simulation dats (uniform across them —
    /// [`set_layout`](Airfoil::set_layout) converts all five together).
    pub fn layout(&self) -> Layout {
        self.q.layout
    }

    /// Convert every dat to `to`. A pure index permutation (bit-exact);
    /// the recorded chain executes natively in any layout, the AoS-defined
    /// paths (`step_seq`, the distributed rows, the tiled executor)
    /// convert around their calls.
    pub fn set_layout(&mut self, to: Layout) {
        self.x.set_layout(to);
        self.q.set_layout(to);
        self.qold.set_layout(to);
        self.adt.set_layout(to);
        self.res.set_layout(to);
    }

    /// Total dat memory footprint in bytes (Table IV).
    pub fn dat_bytes(&self) -> usize {
        self.x.bytes() + self.q.bytes() + self.qold.bytes() + self.adt.bytes() + self.res.bytes()
    }

    /// RMS normalization: √(Σ del² / cells) as `airfoil.cpp` prints.
    pub fn normalize_rms(&self, rms_sum: f64) -> f64 {
        (rms_sum / self.case.mesh.n_cells() as f64).sqrt()
    }
}

/// Static profiles of the five kernels: the `op_par_loop` signatures from
/// which Table II is derived. `word_bytes` is `R::BYTES` of the chosen
/// precision.
pub fn profiles() -> Vec<LoopProfile> {
    vec![
        LoopProfile {
            name: "save_soln".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::direct("q", 4, Access::Read),
                ArgInfo::direct("qold", 4, Access::Write),
            ],
            flops_per_elem: 4.0,
            transcendentals_per_elem: 0.0,
            description: "Direct copy".into(),
        },
        LoopProfile {
            name: "adt_calc".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::indirect("x", 2, Access::Read, "cell2node", 0),
                ArgInfo::indirect("x", 2, Access::Read, "cell2node", 1),
                ArgInfo::indirect("x", 2, Access::Read, "cell2node", 2),
                ArgInfo::indirect("x", 2, Access::Read, "cell2node", 3),
                ArgInfo::direct("q", 4, Access::Read),
                ArgInfo::direct("adt", 1, Access::Write),
            ],
            flops_per_elem: 64.0,
            transcendentals_per_elem: 5.0,
            description: "Gather, direct write".into(),
        },
        LoopProfile {
            name: "res_calc".into(),
            set: "edges".into(),
            args: vec![
                ArgInfo::indirect("x", 2, Access::Read, "edge2node", 0),
                ArgInfo::indirect("x", 2, Access::Read, "edge2node", 1),
                ArgInfo::indirect("q", 4, Access::Read, "edge2cell", 0),
                ArgInfo::indirect("q", 4, Access::Read, "edge2cell", 1),
                ArgInfo::indirect("adt", 1, Access::Read, "edge2cell", 0),
                ArgInfo::indirect("adt", 1, Access::Read, "edge2cell", 1),
                ArgInfo::indirect("res", 4, Access::Inc, "edge2cell", 0),
                ArgInfo::indirect("res", 4, Access::Inc, "edge2cell", 1),
            ],
            flops_per_elem: 73.0,
            transcendentals_per_elem: 0.0,
            description: "Gather, colored scatter".into(),
        },
        LoopProfile {
            name: "bres_calc".into(),
            set: "bedges".into(),
            args: vec![
                ArgInfo::indirect("x", 2, Access::Read, "bedge2node", 0),
                ArgInfo::indirect("x", 2, Access::Read, "bedge2node", 1),
                ArgInfo::indirect("q", 4, Access::Read, "bedge2cell", 0),
                ArgInfo::indirect("adt", 1, Access::Read, "bedge2cell", 0),
                ArgInfo::indirect("res", 4, Access::Inc, "bedge2cell", 0),
                ArgInfo::direct("bound", 1, Access::Read),
            ],
            flops_per_elem: 73.0,
            transcendentals_per_elem: 0.0,
            description: "Boundary".into(),
        },
        LoopProfile {
            name: "update".into(),
            set: "cells".into(),
            args: vec![
                ArgInfo::direct("qold", 4, Access::Read),
                ArgInfo::direct("q", 4, Access::Write),
                ArgInfo::direct("res", 4, Access::Rw),
                ArgInfo::direct("adt", 1, Access::Read),
                ArgInfo::global("rms", 1, Access::Inc),
            ],
            flops_per_elem: 17.0,
            transcendentals_per_elem: 0.0,
            description: "Direct, reduction".into(),
        },
    ]
}

/// Look up one profile by kernel name. Served from a process-wide cache:
/// instrumented and fused drivers resolve profiles every loop of every
/// step, which must not rebuild the whole signature vocabulary.
pub fn profile(name: &str) -> LoopProfile {
    find_profile(name).unwrap_or_else(|| panic!("unknown airfoil kernel {name}"))
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
    fn freestream_constants() {
        let c = Consts::<f64>::default();
        assert!((c.gam - 1.4).abs() < 1e-15);
        assert!((c.gm1 - 0.4).abs() < 1e-15);
        // Mach 0.4: u = sqrt(1.4)*0.4
        assert!((c.qinf[1] - 1.4f64.sqrt() * 0.4).abs() < 1e-15);
        assert_eq!(c.qinf[2], 0.0);
        assert!(c.qinf[3] > 2.5); // e = 1/0.4 + u²/2 ≈ 2.612
    }

    #[test]
    fn setup_shapes() {
        let a: Airfoil<f64> = Airfoil::new(12, 6);
        assert_eq!(a.q.set_size, 72);
        assert_eq!(a.q.dim, 4);
        assert_eq!(a.x.set_size, 13 * 7);
        assert!(a.dat_bytes() > 0);
        // initial state is uniform freestream
        assert_eq!(a.q.row(0), a.q.row(71));
    }

    #[test]
    fn table_ii_derived_from_profiles() {
        // the Table II rows, derived not hard-coded
        let expect = [
            ("save_soln", (4, 4, 0, 0), 4.0),
            ("adt_calc", (4, 1, 8, 0), 64.0),
            ("res_calc", (0, 0, 22, 8), 73.0),
            ("bres_calc", (1, 0, 13, 4), 73.0),
            ("update", (9, 8, 0, 0), 17.0),
        ];
        for (name, words, flops) in expect {
            let p = profile(name);
            let t = p.transfers();
            assert_eq!(
                (
                    t.direct_read,
                    t.direct_write,
                    t.indirect_read,
                    t.indirect_write
                ),
                words,
                "{name}"
            );
            assert_eq!(p.flops_per_elem, flops, "{name}");
        }
    }

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let a: Airfoil<f64> = Airfoil::seeded(12, 6, 7);
        let b: Airfoil<f64> = Airfoil::seeded(12, 6, 7);
        let c: Airfoil<f64> = Airfoil::seeded(12, 6, 8);
        let p: Airfoil<f64> = Airfoil::new(12, 6);
        assert_eq!(a.q.data, b.q.data, "same seed, same state");
        assert_ne!(a.q.data, c.q.data, "different seeds diverge");
        assert_eq!(
            Airfoil::<f64>::seeded(12, 6, 0).q.data,
            p.q.data,
            "seed 0 is pristine"
        );
        // perturbation stays tiny and leaves momenta untouched
        for cell in 0..a.q.set_size {
            let (r, r0) = (a.q.row(cell), p.q.row(cell));
            assert!((r[0] / r0[0] - 1.0).abs() <= 5.1e-5);
            assert_eq!(r[1], r0[1]);
            assert_eq!(r[2], r0[2]);
        }
    }

    #[test]
    fn sp_footprint_is_half_dp() {
        let dp: Airfoil<f64> = Airfoil::new(8, 4);
        let sp: Airfoil<f32> = Airfoil::new(8, 4);
        assert_eq!(sp.dat_bytes() * 2, dp.dat_bytes());
    }
}

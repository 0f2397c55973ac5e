//! Benchmark mesh generators.
//!
//! The paper evaluates on three meshes (Table IV):
//!
//! | mesh          | cells     | nodes     | edges     |
//! |---------------|-----------|-----------|-----------|
//! | Airfoil small | 720,000   | 721,801   | 1,438,600 |
//! | Airfoil large | 2,880,000 | 2,883,601 | 5,757,200 |
//! | Volna         | 2,392,352 | 1,197,384 | 3,589,735 |
//!
//! The Airfoil mesh is a structured 1200×600 (resp. 2400×1200) quad grid
//! stored as an unstructured mesh; [`quad_channel`] reproduces its exact
//! set sizes and access structure with a channel-with-bump geometry
//! standing in for the original NACA0012 grid (see DESIGN.md). The Volna
//! mesh is a coastal triangle mesh; [`tri_coastal`] generates a triangle
//! grid of the same scale with synthetic shelf bathymetry and a Gaussian
//! tsunami source, replacing the proprietary NE-Pacific survey data.

use crate::mesh::Mesh2d;
use crate::rng::SplitMix64;
use crate::topology::MapTable;

/// Boundary condition tag: solid wall (reflective).
pub const BOUND_WALL: i32 = 0;
/// Boundary condition tag: far-field (freestream / open sea).
pub const BOUND_FARFIELD: i32 = 1;

/// An Airfoil-style test case: mesh plus per-boundary-edge condition tags
/// (the `p_bound` dat of the OP2 Airfoil benchmark).
#[derive(Clone, Debug)]
pub struct AirfoilCase {
    /// The quad mesh.
    pub mesh: Mesh2d,
    /// Per-boundary-edge tag: [`BOUND_WALL`] on the channel walls,
    /// [`BOUND_FARFIELD`] at inflow/outflow.
    pub bound: Vec<i32>,
}

/// A Volna-style test case: triangle mesh, still-water depth (bathymetry)
/// per cell, and the initial free-surface displacement of the tsunami
/// source.
#[derive(Clone, Debug)]
pub struct CoastalCase {
    /// The triangle mesh.
    pub mesh: Mesh2d,
    /// Still-water depth at each cell centroid (positive = under water).
    pub bathy_cell: Vec<f64>,
    /// Initial free-surface displacement η₀ at each cell centroid.
    pub eta0_cell: Vec<f64>,
}

/// Generate the Airfoil benchmark mesh: an `nx × ny` quad grid over a
/// channel `x ∈ [-2, 3]`, `y ∈ [bump(x), 2]` with a smooth circular-arc
/// style bump on the lower wall (the lifting-body substitute).
///
/// Paper scales: `quad_channel(1200, 600)` = the 720k "small" mesh,
/// `quad_channel(2400, 1200)` = the 2.8M "large" mesh.
pub fn quad_channel(nx: usize, ny: usize) -> AirfoilCase {
    assert!(nx >= 1 && ny >= 1);
    let (nxn, nyn) = (nx + 1, ny + 1);
    let bump = |x: f64| -> f64 {
        // smooth bump centred at x = 0.5, height 0.1, supported on [0, 1]
        if (0.0..=1.0).contains(&x) {
            0.1 * (std::f64::consts::PI * x).sin().powi(2)
        } else {
            0.0
        }
    };
    let mut node_xy = Vec::with_capacity(nxn * nyn);
    for j in 0..nyn {
        for i in 0..nxn {
            let x = -2.0 + 5.0 * i as f64 / nx as f64;
            let yb = bump(x);
            let y = yb + (2.0 - yb) * j as f64 / ny as f64;
            node_xy.push([x, y]);
        }
    }
    let node = |i: usize, j: usize| (j * nxn + i) as i32;
    let mut c2n = Vec::with_capacity(nx * ny * 4);
    for j in 0..ny {
        for i in 0..nx {
            // counter-clockwise quad
            c2n.extend_from_slice(&[
                node(i, j),
                node(i + 1, j),
                node(i + 1, j + 1),
                node(i, j + 1),
            ]);
        }
    }
    let mesh = Mesh2d::from_cells(
        node_xy,
        MapTable::new("cell2node", nx * ny, nxn * nyn, 4, c2n),
    );
    // Tag boundary edges: horizontal walls (top/bottom) vs vertical
    // far-field (inlet/outlet), decided by edge direction.
    let bound = (0..mesh.n_bedges())
        .map(|be| {
            let n = mesh.bedge2node.row(be);
            let a = mesh.node_xy[n[0] as usize];
            let b = mesh.node_xy[n[1] as usize];
            if (a[0] - b[0]).abs() > (a[1] - b[1]).abs() {
                BOUND_WALL // mostly-horizontal edge: channel wall
            } else {
                BOUND_FARFIELD // mostly-vertical edge: inflow/outflow
            }
        })
        .collect();
    AirfoilCase { mesh, bound }
}

/// Generate the Volna benchmark mesh: an `nx × ny` grid of squares each
/// split into two triangles over `[0, 100] × [0, 50]` (nondimensional km),
/// with synthetic shelf bathymetry and a Gaussian tsunami source offshore.
///
/// Paper scale: `tri_coastal(1096, 1092)` ≈ 2.39M triangles.
pub fn tri_coastal(nx: usize, ny: usize) -> CoastalCase {
    assert!(nx >= 1 && ny >= 1);
    let (nxn, nyn) = (nx + 1, ny + 1);
    let (lx, ly) = (100.0, 50.0);
    let mut node_xy = Vec::with_capacity(nxn * nyn);
    for j in 0..nyn {
        for i in 0..nxn {
            node_xy.push([lx * i as f64 / nx as f64, ly * j as f64 / ny as f64]);
        }
    }
    let node = |i: usize, j: usize| (j * nxn + i) as i32;
    let mut c2n = Vec::with_capacity(nx * ny * 6);
    for j in 0..ny {
        for i in 0..nx {
            // split the square along alternating diagonals for isotropy
            let (a, b, c, d) = (
                node(i, j),
                node(i + 1, j),
                node(i + 1, j + 1),
                node(i, j + 1),
            );
            if (i + j) % 2 == 0 {
                c2n.extend_from_slice(&[a, b, c, a, c, d]);
            } else {
                c2n.extend_from_slice(&[a, b, d, b, c, d]);
            }
        }
    }
    let mesh = Mesh2d::from_cells(
        node_xy,
        MapTable::new("cell2node", nx * ny * 2, nxn * nyn, 3, c2n),
    );
    let mut bathy_cell = Vec::with_capacity(mesh.n_cells());
    let mut eta0_cell = Vec::with_capacity(mesh.n_cells());
    for c in 0..mesh.n_cells() {
        let [x, y] = mesh.cell_centroid(c);
        bathy_cell.push(shelf_depth(x, y));
        eta0_cell.push(tsunami_source(x, y));
    }
    CoastalCase {
        mesh,
        bathy_cell,
        eta0_cell,
    }
}

/// Synthetic continental-shelf depth profile: ~4 km deep ocean for
/// `x < 60`, a smooth shelf break rising to a 50 m shelf, with a mild
/// along-shore ridge modulation. Always positive (no dry land), so
/// wetting/drying is out of scope — as in the paper's hypothetical-tsunami
/// run, the interesting cost is the flux kernels, not inundation.
pub fn shelf_depth(x: f64, y: f64) -> f64 {
    let t = ((x - 60.0) / 25.0).clamp(0.0, 1.0);
    // smoothstep from 4.0 (deep) down to 0.05 (shelf)
    let s = t * t * (3.0 - 2.0 * t);
    let base = 4.0 * (1.0 - s) + 0.05 * s;
    let ridge = 0.2 * (1.0 - s) * (0.15 * y).sin();
    (base + ridge).max(0.02)
}

/// Gaussian free-surface source centred offshore at (25, 25):
/// η₀ = 0.5·exp(−((x−25)² + (y−25)²)/2σ²), σ = 6.
pub fn tsunami_source(x: f64, y: f64) -> f64 {
    let (dx, dy) = (x - 25.0, y - 25.0);
    0.5 * (-(dx * dx + dy * dy) / (2.0 * 36.0)).exp()
}

/// Quad grid with nodes perturbed by up to `amplitude` of the cell pitch —
/// genuinely irregular geometry over the same topology, used by property
/// tests (coloring and partitioning must not depend on mesh regularity).
pub fn perturbed_quads(nx: usize, ny: usize, amplitude: f64, seed: u64) -> Mesh2d {
    assert!(
        (0.0..0.5).contains(&amplitude),
        "amplitude must stay below 0.5"
    );
    let mut case = quad_channel(nx, ny);
    let mut rng = SplitMix64::new(seed);
    let pitch = 5.0 / nx as f64;
    let (nxn, nyn) = (nx + 1, ny + 1);
    for j in 1..nyn - 1 {
        for i in 1..nxn - 1 {
            let p = &mut case.mesh.node_xy[j * nxn + i];
            p[0] += pitch * amplitude * (2.0 * rng.next_f64() - 1.0);
            p[1] += pitch * amplitude * (2.0 * rng.next_f64() - 1.0);
        }
    }
    case.mesh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_channel_set_sizes_match_closed_forms() {
        for (nx, ny) in [(4usize, 3usize), (12, 6), (30, 20)] {
            let case = quad_channel(nx, ny);
            let m = &case.mesh;
            assert_eq!(m.n_cells(), nx * ny);
            assert_eq!(m.n_nodes(), (nx + 1) * (ny + 1));
            // total sides = interior*2 + boundary; boundary = 2(nx+ny)
            assert_eq!(m.n_bedges(), 2 * (nx + ny));
            let total_sides = nx * (ny + 1) + ny * (nx + 1);
            assert_eq!(m.n_edges(), total_sides - 2 * (nx + ny));
            assert_eq!(m.euler_characteristic(), 1);
            m.validate().unwrap();
        }
    }

    #[test]
    fn paper_small_mesh_sizes_at_scale_ratio() {
        // 1/10-scale instance of the paper's 1200x600: same closed forms.
        let case = quad_channel(120, 60);
        assert_eq!(case.mesh.n_cells(), 7200);
        assert_eq!(case.mesh.n_nodes(), 121 * 61);
        assert_eq!(case.bound.len(), case.mesh.n_bedges());
    }

    #[test]
    fn boundary_tags_cover_walls_and_farfield() {
        let case = quad_channel(16, 8);
        let walls = case.bound.iter().filter(|&&b| b == BOUND_WALL).count();
        let far = case.bound.iter().filter(|&&b| b == BOUND_FARFIELD).count();
        assert_eq!(walls, 2 * 16, "top+bottom edges");
        assert_eq!(far, 2 * 8, "inlet+outlet edges");
    }

    #[test]
    fn tri_coastal_set_sizes() {
        let case = tri_coastal(10, 8);
        let m = &case.mesh;
        assert_eq!(m.n_cells(), 160);
        assert_eq!(m.n_nodes(), 11 * 9);
        assert_eq!(m.euler_characteristic(), 1);
        m.validate().unwrap();
        assert_eq!(case.bathy_cell.len(), m.n_cells());
        assert_eq!(case.eta0_cell.len(), m.n_cells());
    }

    #[test]
    fn bathymetry_is_positive_and_deepest_offshore() {
        let case = tri_coastal(24, 12);
        assert!(case.bathy_cell.iter().all(|&d| d > 0.0));
        assert!(shelf_depth(5.0, 25.0) > shelf_depth(95.0, 25.0));
        assert!(shelf_depth(5.0, 25.0) > 3.0);
        assert!(shelf_depth(99.0, 25.0) < 0.3);
    }

    #[test]
    fn tsunami_source_peaks_at_center() {
        assert!(tsunami_source(25.0, 25.0) > tsunami_source(40.0, 25.0));
        assert!((tsunami_source(25.0, 25.0) - 0.5).abs() < 1e-12);
        assert!(tsunami_source(90.0, 10.0) < 1e-6);
    }

    #[test]
    fn perturbed_mesh_stays_valid() {
        let m = perturbed_quads(12, 9, 0.3, 1234);
        m.validate().unwrap();
        assert_eq!(m.n_cells(), 108);
        // perturbation actually moved interior nodes
        let reference = quad_channel(12, 9).mesh;
        let moved = m
            .node_xy
            .iter()
            .zip(&reference.node_xy)
            .filter(|(a, b)| a != b)
            .count();
        assert!(moved > 50);
    }

    #[test]
    fn volna_paper_scale_formula() {
        // paper: 2,392,352 cells; our generator: 2*nx*ny cells
        let (nx, ny) = (1096usize, 1092usize);
        assert!((2 * nx * ny) as i64 - 2_392_352 < 2_392_352 / 100);
    }
}

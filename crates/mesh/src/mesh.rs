//! The 2-D finite-volume mesh and its derivation from cell connectivity.
//!
//! Airfoil and Volna both iterate over four sets — nodes, interior edges,
//! boundary edges, cells — connected by `edge→node`, `edge→cell`,
//! `bedge→node`, `bedge→cell` and `cell→node` maps (paper Fig. 2, Tables
//! II/III). Mesh inputs only supply node coordinates and cell→node
//! connectivity; [`Mesh2d::from_cells`] derives the edge sets by pairing
//! cell sides, exactly as OP2 application setup code does.

use std::collections::HashMap;

use crate::topology::MapTable;

/// A 2-D unstructured mesh with derived edge connectivity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Mesh2d {
    /// Node coordinates.
    pub node_xy: Vec<[f64; 2]>,
    /// Cell→node connectivity (arity 3 for triangles, 4 for quads),
    /// counter-clockwise winding.
    pub cell2node: MapTable,
    /// Interior-edge→node connectivity (arity 2). Edge node order is the
    /// *reverse* of the first adjacent cell's winding, so the directed
    /// edge `a → b` has `edge2cell[0]` on its **right** — the orientation
    /// OP2's Airfoil kernels assume (`res1 += f` drains the right cell,
    /// and at walls `res1[1] += p·dy` is the outward pressure force).
    pub edge2node: MapTable,
    /// Interior-edge→cell connectivity (arity 2): `[left, right]`.
    pub edge2cell: MapTable,
    /// Boundary-edge→node connectivity (arity 2), reverse winding of its
    /// only cell (cell on the right, outward normal `(dy, -dx)` for
    /// `d = a - b`).
    pub bedge2node: MapTable,
    /// Boundary-edge→cell connectivity (arity 1).
    pub bedge2cell: MapTable,
}

impl Mesh2d {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_xy.len()
    }
    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cell2node.from_size
    }
    /// Number of interior edges.
    pub fn n_edges(&self) -> usize {
        self.edge2node.from_size
    }
    /// Number of boundary edges.
    pub fn n_bedges(&self) -> usize {
        self.bedge2node.from_size
    }
    /// Nodes per cell (3 or 4).
    pub fn cell_arity(&self) -> usize {
        self.cell2node.dim
    }

    /// Derive the full mesh from node coordinates and cell→node
    /// connectivity.
    ///
    /// Pairs up cell sides on their (unordered) node pair: a side seen by
    /// two cells becomes an interior edge, a side seen once becomes a
    /// boundary edge. Side pairing is sort-based for determinism; edges
    /// are emitted ordered by their first-touching cell, which preserves
    /// the locality of the incoming cell numbering.
    ///
    /// # Panics
    /// When a node pair is shared by more than two cells (non-manifold
    /// input).
    pub fn from_cells(node_xy: Vec<[f64; 2]>, cell2node: MapTable) -> Mesh2d {
        let n_nodes = node_xy.len();
        assert_eq!(cell2node.to_size, n_nodes, "cell2node target size mismatch");
        let arity = cell2node.dim;
        assert!(arity == 3 || arity == 4, "only tri/quad meshes supported");
        let n_cells = cell2node.from_size;

        // side key -> (cell, oriented (a, b)) of first occurrence
        let mut open: HashMap<(i32, i32), (u32, i32, i32)> =
            HashMap::with_capacity(n_cells * arity);
        // (first_cell, a, b, second_cell) for interior edges; emitted in
        // first-seen order for locality.
        let mut interior: Vec<(u32, i32, i32, u32)> = Vec::new();

        for c in 0..n_cells {
            let row = cell2node.row(c);
            for s in 0..arity {
                let a = row[s];
                let b = row[(s + 1) % arity];
                assert_ne!(a, b, "degenerate cell side in cell {c}");
                let key = (a.min(b), a.max(b));
                match open.remove(&key) {
                    None => {
                        open.insert(key, (c as u32, a, b));
                    }
                    Some((c0, a0, b0)) => {
                        interior.push((c0, a0, b0, c as u32));
                        debug_assert!(
                            (a0, b0) == (b, a) || (a0, b0) == (a, b),
                            "inconsistent side orientation between cells {c0} and {c}"
                        );
                    }
                }
            }
        }

        interior.sort_unstable_by_key(|&(c0, a, b, _)| (c0, a, b));
        let mut boundary: Vec<(u32, i32, i32)> = open
            .into_iter()
            .map(|((_min, _max), (c, a, b))| (c, a, b))
            .collect();
        boundary.sort_unstable_by_key(|&(c, a, b)| (c, a, b));

        let n_edges = interior.len();
        let n_bedges = boundary.len();

        let mut e2n = Vec::with_capacity(n_edges * 2);
        let mut e2c = Vec::with_capacity(n_edges * 2);
        for &(c0, a, b, c1) in &interior {
            // reversed winding of c0 puts c0 on the right of the edge
            e2n.push(b);
            e2n.push(a);
            e2c.push(c0 as i32);
            e2c.push(c1 as i32);
        }
        let mut be2n = Vec::with_capacity(n_bedges * 2);
        let mut be2c = Vec::with_capacity(n_bedges);
        for &(c, a, b) in &boundary {
            be2n.push(b);
            be2n.push(a);
            be2c.push(c as i32);
        }

        Mesh2d {
            node_xy,
            cell2node,
            edge2node: MapTable::new("edge2node", n_edges, n_nodes, 2, e2n),
            edge2cell: MapTable::new("edge2cell", n_edges, n_cells, 2, e2c),
            bedge2node: MapTable::new("bedge2node", n_bedges, n_nodes, 2, be2n),
            bedge2cell: MapTable::new("bedge2cell", n_bedges, n_cells, 1, be2c),
        }
    }

    /// Signed area of cell `c` (shoelace; positive for CCW winding).
    pub fn cell_area(&self, c: usize) -> f64 {
        let row = self.cell2node.row(c);
        let mut acc = 0.0;
        for s in 0..row.len() {
            let [x0, y0] = self.node_xy[row[s] as usize];
            let [x1, y1] = self.node_xy[row[(s + 1) % row.len()] as usize];
            acc += x0 * y1 - x1 * y0;
        }
        0.5 * acc
    }

    /// Centroid of cell `c` (vertex average — adequate for partitioning).
    pub fn cell_centroid(&self, c: usize) -> [f64; 2] {
        let row = self.cell2node.row(c);
        let mut cx = 0.0;
        let mut cy = 0.0;
        for &n in row {
            cx += self.node_xy[n as usize][0];
            cy += self.node_xy[n as usize][1];
        }
        let inv = 1.0 / row.len() as f64;
        [cx * inv, cy * inv]
    }

    /// Euler characteristic `V - E + F` counting interior and boundary
    /// edges and the mesh cells (not the outer face). A simply-connected
    /// planar mesh gives 1.
    pub fn euler_characteristic(&self) -> i64 {
        self.n_nodes() as i64 - (self.n_edges() + self.n_bedges()) as i64 + self.n_cells() as i64
    }

    /// Structural validation: map invariants, edge/cell consistency, and
    /// positive cell areas.
    pub fn validate(&self) -> Result<(), String> {
        self.cell2node.validate()?;
        self.edge2node.validate()?;
        self.edge2cell.validate()?;
        self.bedge2node.validate()?;
        self.bedge2cell.validate()?;
        for e in 0..self.n_edges() {
            let c = self.edge2cell.row(e);
            if c[0] == c[1] {
                return Err(format!("edge {e} connects cell {} to itself", c[0]));
            }
        }
        for c in 0..self.n_cells() {
            let a = self.cell_area(c);
            if a <= 0.0 {
                return Err(format!("cell {c} has non-positive area {a}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2×1 quad strip: 6 nodes, 2 cells, 1 interior edge, 6 boundary edges.
    ///
    /// ```text
    /// 3---4---5
    /// | 0 | 1 |
    /// 0---1---2
    /// ```
    fn two_quads() -> Mesh2d {
        let nodes = vec![
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [2.0, 1.0],
        ];
        let c2n = MapTable::new("cell2node", 2, 6, 4, vec![0, 1, 4, 3, 1, 2, 5, 4]);
        Mesh2d::from_cells(nodes, c2n)
    }

    #[test]
    fn two_quad_strip_topology() {
        let m = two_quads();
        assert_eq!(m.n_nodes(), 6);
        assert_eq!(m.n_cells(), 2);
        assert_eq!(m.n_edges(), 1);
        assert_eq!(m.n_bedges(), 6);
        assert_eq!(m.euler_characteristic(), 1);
        m.validate().unwrap();

        // The one interior edge joins nodes 1-4 and cells 0,1.
        assert_eq!(m.edge2cell.row(0), &[0, 1]);
        let mut en = m.edge2node.row(0).to_vec();
        en.sort_unstable();
        assert_eq!(en, vec![1, 4]);
    }

    #[test]
    fn interior_edge_puts_first_cell_on_the_right() {
        let m = two_quads();
        // cell 0's winding traverses its side through nodes {1,4} as
        // 1 -> 4; the stored edge is the reverse, 4 -> 1, so that the
        // directed edge has cell 0 on its right.
        assert_eq!(m.edge2node.row(0), &[4, 1]);
        // cross product check: for edge a->b with right cell c, the cell
        // centroid must lie right of the direction, i.e.
        // cross(b - a, centroid - a) < 0.
        let a = m.node_xy[m.edge2node.at(0, 0)];
        let b = m.node_xy[m.edge2node.at(0, 1)];
        let c = m.cell_centroid(m.edge2cell.at(0, 0));
        let cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]);
        assert!(cross < 0.0, "first cell must be on the right");
    }

    #[test]
    fn boundary_edge_puts_its_cell_on_the_right() {
        let m = two_quads();
        for be in 0..m.n_bedges() {
            let a = m.node_xy[m.bedge2node.at(be, 0)];
            let b = m.node_xy[m.bedge2node.at(be, 1)];
            let c = m.cell_centroid(m.bedge2cell.at(be, 0));
            let cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]);
            assert!(cross < 0.0, "bedge {be}: cell must be on the right");
        }
    }

    #[test]
    fn areas_and_centroids() {
        let m = two_quads();
        assert!((m.cell_area(0) - 1.0).abs() < 1e-12);
        assert!((m.cell_area(1) - 1.0).abs() < 1e-12);
        let c = m.cell_centroid(1);
        assert!((c[0] - 1.5).abs() < 1e-12 && (c[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_pair_topology() {
        // unit square split along the diagonal 0-2:
        // nodes 0(0,0) 1(1,0) 2(1,1) 3(0,1); tris (0,1,2) and (0,2,3)
        let nodes = vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let c2n = MapTable::new("cell2node", 2, 4, 3, vec![0, 1, 2, 0, 2, 3]);
        let m = Mesh2d::from_cells(nodes, c2n);
        assert_eq!(m.n_edges(), 1);
        assert_eq!(m.n_bedges(), 4);
        assert_eq!(m.euler_characteristic(), 1);
        m.validate().unwrap();
        assert!((m.cell_area(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate cell side")]
    fn degenerate_cell_rejected() {
        let nodes = vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]];
        let c2n = MapTable::new("cell2node", 1, 3, 3, vec![0, 0, 2]);
        Mesh2d::from_cells(nodes, c2n);
    }

    #[test]
    fn clockwise_cell_fails_validation() {
        let nodes = vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        // clockwise winding -> negative area
        let c2n = MapTable::new("cell2node", 1, 4, 4, vec![0, 3, 2, 1]);
        let m = Mesh2d::from_cells(nodes, c2n);
        assert!(m.validate().is_err());
    }

    #[test]
    fn boundary_edges_reference_their_only_cell() {
        let m = two_quads();
        for be in 0..m.n_bedges() {
            let c = m.bedge2cell.at(be, 0);
            assert!(c < m.n_cells());
            // the bedge's nodes must be nodes of that cell
            let cell_nodes = m.cell2node.row(c);
            for &n in m.bedge2node.row(be) {
                assert!(cell_nodes.contains(&n));
            }
        }
    }
}

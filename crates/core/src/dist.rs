//! Mesh distribution for the message-passing backend.
//!
//! OP2's MPI strategy (paper §3): partition the mesh, owner-computes, and
//! "redundant execution of certain set elements by different processes
//! may be necessary". Concretely, for our edge-centric loops:
//!
//! * **cells** are partitioned (the partitioner's output); each rank
//!   additionally holds one layer of *ghost* cells — the import non-exec
//!   halo — refreshed from owners by [`LocalMesh::cell_halo`] exchanges,
//! * **edges** touching an owned cell are *executed* by the rank; edges
//!   on partition boundaries are executed by both ranks (OP2's import
//!   exec halo). Increments into ghost cells are computed and discarded —
//!   the owner computes them itself via its own redundant copy — so no
//!   reverse communication is needed,
//! * **boundary edges** are executed only by the owner of their cell,
//! * **nodes** are replicated where referenced (their data — coordinates —
//!   is static, so they never need exchanging),
//! * **sum reductions** count *owned* elements only; min/max reductions
//!   are double-count-insensitive.
//!
//! Local numbering: `[owned | ghost]` for cells, `[core | cut | foreign]`
//! for edges — *core* edges join two owned cells, *cut* edges are owned
//! (their first cell is) but reach a ghost, *foreign* edges are the
//! partition-boundary edges other ranks own and this one executes
//! redundantly; each class keeps the global edge order. Loop drivers
//! bound reductions by `n_owned_*` and halo refreshes by the ghost range,
//! and the ghost-reading edges form a suffix — OP2's core/non-core split,
//! so an overlapped step defers only the few blocks at the end.

use std::collections::HashMap;

use ump_mesh::{MapTable, Mesh2d};
use ump_minimpi::ExchangePlan;
use ump_part::Partition;
use ump_simd::Real;

/// One rank's share of the mesh (see module docs for layout).
#[derive(Clone, Debug)]
pub struct LocalMesh {
    /// Localized mesh: cells `[owned | ghost]`, edges `[core | cut |
    /// foreign]`, maps rewritten to local indices.
    pub mesh: Mesh2d,
    /// Number of owned cells (the rest are ghosts).
    pub n_owned_cells: usize,
    /// Number of owned executed edges, core and cut (the rest are
    /// redundantly executed foreign edges).
    pub n_owned_edges: usize,
    /// Global id of each local cell.
    pub cell_global: Vec<u32>,
    /// Global id of each local node.
    pub node_global: Vec<u32>,
    /// Global id of each local (executed) edge.
    pub edge_global: Vec<u32>,
    /// Global id of each local boundary edge.
    pub bedge_global: Vec<u32>,
    /// Halo-exchange plan refreshing ghost-cell data from owners.
    pub cell_halo: ExchangePlan,
}

impl LocalMesh {
    /// Number of ghost cells.
    pub fn n_ghost_cells(&self) -> usize {
        self.mesh.n_cells() - self.n_owned_cells
    }

    /// Per-local-edge halo classification: `true` for edges that touch a
    /// ghost cell and therefore *read halo data* — the boundary elements
    /// of the overlap schedule. Edges whose cells are both owned are
    /// interior: their inputs are complete before any exchange finishes,
    /// so fused executors run their blocks while halo messages are in
    /// flight and defer only the `true` blocks until after
    /// [`ExchangePlan::finish`](ump_minimpi::PendingExchange::finish).
    ///
    /// Local numbering puts owned cells first, so the test is one
    /// comparison per edge endpoint; it puts core edges first, so the
    /// `true` flags form a suffix.
    pub fn boundary_edges(&self) -> Vec<bool> {
        (0..self.mesh.n_edges())
            .map(|e| {
                self.mesh
                    .edge2cell
                    .row(e)
                    .iter()
                    .any(|&c| c as usize >= self.n_owned_cells)
            })
            .collect()
    }
}

/// Split a mesh across the ranks of `partition` (a cell partition).
/// Returns one [`LocalMesh`] per rank; pure function of its inputs
/// (deterministic), computed globally — the simulated analogue of OP2's
/// parallel import phase.
pub fn distribute(mesh: &Mesh2d, partition: &Partition) -> Vec<LocalMesh> {
    assert_eq!(
        partition.part.len(),
        mesh.n_cells(),
        "cell partition expected"
    );
    let n_ranks = partition.n_parts as usize;
    let part = &partition.part;

    // --- per-rank element selections (global ids) -------------------------
    let mut owned_cells: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    for (c, &p) in part.iter().enumerate() {
        owned_cells[p as usize].push(c as u32);
    }
    // executed edges in three classes, each in global order: core (both
    // cells owned), cut (first cell owned, second foreign; an edge's
    // owner is its first cell's), foreign (another rank's cut edges)
    let mut core_edges: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    let mut cut_edges: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    let mut foreign_edges: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    for e in 0..mesh.n_edges() {
        let r = mesh.edge2cell.row(e);
        let (p0, p1) = (part[r[0] as usize] as usize, part[r[1] as usize] as usize);
        if p1 == p0 {
            core_edges[p0].push(e as u32);
        } else {
            cut_edges[p0].push(e as u32);
            foreign_edges[p1].push(e as u32);
        }
    }
    let mut owned_bedges: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    for be in 0..mesh.n_bedges() {
        let c = mesh.bedge2cell.at(be, 0);
        owned_bedges[part[c] as usize].push(be as u32);
    }

    // --- ghost cells and local numbering ----------------------------------
    let mut locals: Vec<LocalMesh> = Vec::with_capacity(n_ranks);
    // ghost lists per (rank, owner) needed for the exchange plans
    let mut ghosts_of: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    let mut cell_l2g: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    let mut cell_g2l: Vec<HashMap<u32, u32>> = vec![HashMap::new(); n_ranks];
    for p in 0..n_ranks {
        let mut ghost: Vec<u32> = Vec::new();
        for &e in cut_edges[p].iter().chain(&foreign_edges[p]) {
            for &c in mesh.edge2cell.row(e as usize) {
                if part[c as usize] != p as u32 {
                    ghost.push(c as u32);
                }
            }
        }
        ghost.sort_unstable();
        ghost.dedup();
        let mut l2g = owned_cells[p].clone();
        l2g.extend_from_slice(&ghost);
        let g2l: HashMap<u32, u32> = l2g
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();
        ghosts_of[p] = ghost;
        cell_l2g[p] = l2g;
        cell_g2l[p] = g2l;
    }

    // --- exchange plans (ghosts ordered ascending on both sides) ----------
    let mut halos: Vec<ExchangePlan> = (0..n_ranks).map(|_| ExchangePlan::empty(n_ranks)).collect();
    for p in 0..n_ranks {
        for &g in &ghosts_of[p] {
            let owner = part[g as usize] as usize;
            halos[p].recvs[owner].push(cell_g2l[p][&g]);
            halos[owner].sends[p].push(cell_g2l[owner][&g]);
        }
    }

    // --- build localized meshes --------------------------------------------
    for p in 0..n_ranks {
        let l2g_cells = &cell_l2g[p];
        let g2l_cells = &cell_g2l[p];
        let edges: Vec<u32> = [&core_edges[p][..], &cut_edges[p], &foreign_edges[p]].concat();
        let bedges = &owned_bedges[p];

        // nodes referenced by local cells, executed edges, owned bedges
        let mut node_global: Vec<u32> = Vec::new();
        for &c in l2g_cells {
            node_global.extend(mesh.cell2node.row(c as usize).iter().map(|&n| n as u32));
        }
        for &e in &edges {
            node_global.extend(mesh.edge2node.row(e as usize).iter().map(|&n| n as u32));
        }
        for &be in bedges {
            node_global.extend(mesh.bedge2node.row(be as usize).iter().map(|&n| n as u32));
        }
        node_global.sort_unstable();
        node_global.dedup();
        let g2l_nodes: HashMap<u32, u32> = node_global
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l as u32))
            .collect();

        let node_xy: Vec<[f64; 2]> = node_global
            .iter()
            .map(|&g| mesh.node_xy[g as usize])
            .collect();
        let localize =
            |name: &str, rows: &[u32], src: &MapTable, g2l: &HashMap<u32, u32>, to_size: usize| {
                let mut data = Vec::with_capacity(rows.len() * src.dim);
                for &r in rows {
                    for &t in src.row(r as usize) {
                        data.push(g2l[&(t as u32)] as i32);
                    }
                }
                MapTable::new(name, rows.len(), to_size, src.dim, data)
            };
        let n_local_cells = l2g_cells.len();
        let n_local_nodes = node_global.len();
        let local = Mesh2d {
            node_xy,
            cell2node: localize(
                "cell2node",
                l2g_cells,
                &mesh.cell2node,
                &g2l_nodes,
                n_local_nodes,
            ),
            edge2node: localize(
                "edge2node",
                &edges,
                &mesh.edge2node,
                &g2l_nodes,
                n_local_nodes,
            ),
            edge2cell: localize(
                "edge2cell",
                &edges,
                &mesh.edge2cell,
                g2l_cells,
                n_local_cells,
            ),
            bedge2node: localize(
                "bedge2node",
                bedges,
                &mesh.bedge2node,
                &g2l_nodes,
                n_local_nodes,
            ),
            bedge2cell: localize(
                "bedge2cell",
                bedges,
                &mesh.bedge2cell,
                g2l_cells,
                n_local_cells,
            ),
        };
        locals.push(LocalMesh {
            mesh: local,
            n_owned_cells: owned_cells[p].len(),
            n_owned_edges: core_edges[p].len() + cut_edges[p].len(),
            cell_global: l2g_cells.clone(),
            node_global,
            edge_global: edges,
            bedge_global: bedges.clone(),
            cell_halo: std::mem::take(&mut halos[p]),
        });
    }
    locals
}

/// Extract the local rows of a global dat (`dim` components) following a
/// local→global id list — rank-local initial conditions.
pub fn extract_rows<R: Real>(global: &[R], dim: usize, ids: &[u32]) -> Vec<R> {
    let mut out = Vec::with_capacity(ids.len() * dim);
    for &g in ids {
        let base = g as usize * dim;
        out.extend_from_slice(&global[base..base + dim]);
    }
    out
}

/// Assemble a global dat from per-rank owned rows: inverse of
/// [`extract_rows`] restricted to each rank's owned prefix — used to
/// compare the message-passing backend's result against the sequential
/// reference.
pub fn assemble_owned<R: Real>(
    parts: &[(&[R], &[u32], usize)], // (local data, local->global ids, n_owned)
    total: usize,
    dim: usize,
) -> Vec<R> {
    let mut out = vec![R::ZERO; total * dim];
    let mut seen = vec![false; total];
    for &(data, ids, n_owned) in parts {
        for (l, &g) in ids.iter().take(n_owned).enumerate() {
            assert!(!seen[g as usize], "element {g} owned twice");
            seen[g as usize] = true;
            let (src, dst) = (l * dim, g as usize * dim);
            out[dst..dst + dim].copy_from_slice(&data[src..src + dim]);
        }
    }
    assert!(seen.iter().all(|&s| s), "ownership does not cover the set");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ump_mesh::dual::cell_dual;
    use ump_mesh::generators::{quad_channel, tri_coastal};
    use ump_minimpi::Universe;
    use ump_part::{greedy_bfs, rcb};

    fn setup(nx: usize, ny: usize, ranks: u32) -> (Mesh2d, Partition, Vec<LocalMesh>) {
        let mesh = quad_channel(nx, ny).mesh;
        let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
        let partition = rcb(&pts, ranks);
        let locals = distribute(&mesh, &partition);
        (mesh, partition, locals)
    }

    #[test]
    fn owned_cells_partition_the_mesh() {
        let (mesh, _, locals) = setup(12, 8, 4);
        let mut seen = vec![0usize; mesh.n_cells()];
        for lm in &locals {
            lm.mesh.validate().unwrap();
            for &g in lm.cell_global.iter().take(lm.n_owned_cells) {
                seen[g as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "each cell owned exactly once");
    }

    #[test]
    fn every_edge_executed_and_boundary_edges_twice() {
        let (mesh, partition, locals) = setup(10, 6, 3);
        let mut count = vec![0usize; mesh.n_edges()];
        for lm in &locals {
            for &g in &lm.edge_global {
                count[g as usize] += 1;
            }
        }
        for e in 0..mesh.n_edges() {
            let r = mesh.edge2cell.row(e);
            let cross = partition.part[r[0] as usize] != partition.part[r[1] as usize];
            assert_eq!(
                count[e],
                if cross { 2 } else { 1 },
                "edge {e} cross={cross}"
            );
        }
    }

    #[test]
    fn ghosts_are_exactly_the_cells_touched_by_executed_edges() {
        let (mesh, partition, locals) = setup(8, 8, 4);
        for (p, lm) in locals.iter().enumerate() {
            // every ghost belongs to another rank and neighbors an owned cell
            let dual = cell_dual(&mesh);
            for &g in lm.cell_global.iter().skip(lm.n_owned_cells) {
                assert_ne!(partition.part[g as usize], p as u32);
                let touches_owned = dual
                    .row(g as usize)
                    .iter()
                    .any(|&n| partition.part[n as usize] == p as u32);
                assert!(touches_owned, "ghost {g} does not touch rank {p}");
            }
        }
    }

    #[test]
    fn localized_maps_reference_local_elements() {
        let (mesh, _, locals) = setup(9, 5, 3);
        for lm in &locals {
            // spot-check: localized edge2cell recovers global connectivity
            for (le, &ge) in lm.edge_global.iter().enumerate() {
                let local_row = lm.mesh.edge2cell.row(le);
                let global_row = mesh.edge2cell.row(ge as usize);
                for (j, &lc) in local_row.iter().enumerate() {
                    assert_eq!(lm.cell_global[lc as usize], global_row[j] as u32);
                }
            }
            for (ln, &gn) in lm.node_global.iter().enumerate() {
                assert_eq!(lm.mesh.node_xy[ln], mesh.node_xy[gn as usize]);
            }
        }
    }

    #[test]
    fn halo_exchange_refreshes_ghosts() {
        let (_, _, locals) = setup(10, 10, 4);
        let locals = &locals;
        let out = Universe::new(4).run(|comm| {
            let lm = &locals[comm.rank()];
            let dim = 2;
            // owned values = f(global id); ghosts poisoned
            let mut data = vec![-1.0f64; lm.mesh.n_cells() * dim];
            for (l, &g) in lm.cell_global.iter().take(lm.n_owned_cells).enumerate() {
                data[l * dim] = g as f64;
                data[l * dim + 1] = g as f64 * 0.5;
            }
            lm.cell_halo.execute(comm, &mut data, dim, 0);
            // every ghost must now hold its owner's value
            for (l, &g) in lm.cell_global.iter().enumerate().skip(lm.n_owned_cells) {
                assert_eq!(data[l * dim], g as f64);
                assert_eq!(data[l * dim + 1], g as f64 * 0.5);
            }
            true
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn redundant_edge_execution_matches_sequential_increment() {
        // the core of the owner-compute scheme: local execution of all
        // touching edges makes owned cells complete without reverse comms
        let (mesh, _, locals) = setup(12, 7, 4);
        let mut reference = vec![0.0f64; mesh.n_cells()];
        for e in 0..mesh.n_edges() {
            let r = mesh.edge2cell.row(e);
            reference[r[0] as usize] += 1.0 + e as f64;
            reference[r[1] as usize] -= 0.5 * e as f64;
        }
        let mut rank_results = Vec::new();
        for lm in &locals {
            let mut res = vec![0.0f64; lm.mesh.n_cells()];
            for le in 0..lm.mesh.n_edges() {
                let ge = lm.edge_global[le] as f64;
                let r = lm.mesh.edge2cell.row(le);
                res[r[0] as usize] += 1.0 + ge;
                res[r[1] as usize] -= 0.5 * ge;
            }
            rank_results.push(res);
        }
        let parts: Vec<(&[f64], &[u32], usize)> = locals
            .iter()
            .zip(&rank_results)
            .map(|(lm, res)| (res.as_slice(), lm.cell_global.as_slice(), lm.n_owned_cells))
            .collect();
        let assembled = assemble_owned(&parts, mesh.n_cells(), 1);
        assert_eq!(assembled, reference);
    }

    #[test]
    fn boundary_edges_are_exactly_the_ghost_touching_ones() {
        let (mesh, partition, locals) = setup(11, 9, 4);
        for lm in &locals {
            let flags = lm.boundary_edges();
            assert_eq!(flags.len(), lm.mesh.n_edges());
            assert!(flags.iter().any(|&b| b), "every rank has a halo fringe");
            assert!(flags.iter().any(|&b| !b), "and an interior");
            for (le, &boundary) in flags.iter().enumerate() {
                let ge = lm.edge_global[le] as usize;
                let r = mesh.edge2cell.row(ge);
                let crosses = partition.part[r[0] as usize] != partition.part[r[1] as usize];
                assert_eq!(boundary, crosses, "local edge {le} (global {ge})");
            }
        }
        // a single rank owns everything: no boundary edges at all
        let single = setup(6, 4, 1).2;
        assert!(single[0].boundary_edges().iter().all(|&b| !b));
    }

    #[test]
    fn edges_run_core_first_and_each_class_keeps_global_order() {
        for mesh in [quad_channel(13, 7).mesh, tri_coastal(9, 8).mesh] {
            let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
            let dual = cell_dual(&mesh);
            for ranks in 2..=4 {
                for partition in [rcb(&pts, ranks), greedy_bfs(&dual, ranks)] {
                    let owner = |g: u32| partition.part[mesh.edge2cell.row(g as usize)[0] as usize];
                    for (p, lm) in distribute(&mesh, &partition).iter().enumerate() {
                        let flags = lm.boundary_edges();
                        let n_core = flags.iter().take_while(|&&b| !b).count();
                        assert!(
                            flags[n_core..].iter().all(|&b| b),
                            "rank {p}: ghost readers last"
                        );
                        let (g, n_owned) = (&lm.edge_global, lm.n_owned_edges);
                        for (le, &ge) in g.iter().enumerate() {
                            assert_eq!(owner(ge) == p as u32, le < n_owned, "rank {p} edge {le}");
                        }
                        assert!(n_core <= n_owned);
                        for class in [&g[..n_core], &g[n_core..n_owned], &g[n_owned..]] {
                            assert!(class.windows(2).all(|w| w[0] < w[1]), "rank {p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extract_assemble_roundtrip() {
        let (mesh, _, locals) = setup(6, 6, 2);
        let global: Vec<f64> = (0..mesh.n_cells() * 3).map(|i| i as f64).collect();
        let extracted: Vec<Vec<f64>> = locals
            .iter()
            .map(|lm| extract_rows(&global, 3, &lm.cell_global))
            .collect();
        let parts: Vec<(&[f64], &[u32], usize)> = locals
            .iter()
            .zip(&extracted)
            .map(|(lm, d)| (d.as_slice(), lm.cell_global.as_slice(), lm.n_owned_cells))
            .collect();
        assert_eq!(assemble_owned(&parts, mesh.n_cells(), 3), global);
    }

    #[test]
    fn bedges_are_owned_by_their_cells_rank() {
        let (mesh, partition, locals) = setup(7, 7, 3);
        let mut count = vec![0usize; mesh.n_bedges()];
        for (p, lm) in locals.iter().enumerate() {
            for &gbe in &lm.bedge_global {
                count[gbe as usize] += 1;
                let c = mesh.bedge2cell.at(gbe as usize, 0);
                assert_eq!(partition.part[c], p as u32);
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }
}

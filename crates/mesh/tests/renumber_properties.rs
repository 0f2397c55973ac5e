//! Property tests for the renumbering layer: `rcm_order` must always
//! produce a true permutation whose inverse round-trips, and — with the
//! identity-fallback guard — must never increase CSR bandwidth, on
//! arbitrary (shuffled, perturbed, disconnected) meshes; and
//! `order_edges_by_cells` must be a sorted, canonical, idempotent
//! permutation of the edges of any edge-shuffled mesh.

use proptest::prelude::*;
use ump_mesh::dual::node_graph;
use ump_mesh::generators::{perturbed_quads, quad_channel, tri_coastal};
use ump_mesh::renumber::{
    bandwidth, order_edges_by_cells, order_to_perm, perm_to_order, rcm_order, renumber_cells,
    renumber_nodes, reorder_edges,
};
use ump_mesh::{Mesh2d, SplitMix64};

/// Each edge's (edge→cell row, edge→node row), in edge order.
fn edge_rows(m: &Mesh2d) -> Vec<(Vec<i32>, Vec<i32>)> {
    (0..m.n_edges())
        .map(|e| (m.edge2cell.row(e).to_vec(), m.edge2node.row(e).to_vec()))
        .collect()
}

/// `order_edges_by_cells` on `mesh`, its cells relabeled (so edge rows
/// list their higher cell first too) and then its edges shuffled, by
/// `seed`: the result permutes the shuffled edges, is strictly sorted by
/// the (min cell, max cell, min node, max node) key, equals the result
/// on the relabeled but unshuffled mesh, is left alone by a second
/// call, and validates.
fn check_cell_major(mut mesh: Mesh2d, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut cells: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    rng.shuffle(&mut cells);
    renumber_cells(&mut mesh, &cells);
    let mut reference = mesh.clone();
    order_edges_by_cells(&mut reference);

    let mut m = mesh;
    let mut shuffle: Vec<u32> = (0..m.n_edges() as u32).collect();
    rng.shuffle(&mut shuffle);
    reorder_edges(&mut m, &shuffle);
    let mut before = edge_rows(&m);
    order_edges_by_cells(&mut m);

    let rows = edge_rows(&m);
    let mut after = rows.clone();
    before.sort_unstable();
    after.sort_unstable();
    prop_assert_eq!(before, after);
    let key = |(c, n): &(Vec<i32>, Vec<i32>)| {
        (
            c[0].min(c[1]),
            c[0].max(c[1]),
            n[0].min(n[1]),
            n[0].max(n[1]),
        )
    };
    prop_assert!(rows.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    prop_assert!(m == reference, "shuffled and unshuffled inputs must meet");
    prop_assert!(!order_edges_by_cells(&mut m), "a second call is a no-op");
    prop_assert!(m == reference);
    prop_assert!(m.validate().is_ok());
}

proptest! {
    #[test]
    fn rcm_round_trips_and_never_increases_bandwidth(
        nx in 2usize..12,
        ny in 2usize..9,
        seed in 0u64..1u64 << 32,
    ) {
        // arbitrary starting labels: shuffle the node numbering first
        let mut m = quad_channel(nx, ny).mesh;
        let mut shuffle: Vec<u32> = (0..m.n_nodes() as u32).collect();
        SplitMix64::new(seed).shuffle(&mut shuffle);
        renumber_nodes(&mut m, &shuffle);
        let g = node_graph(&m);

        let order = rcm_order(&g);
        // permutation round-trip: order -> perm -> order is the identity
        let perm = order_to_perm(&order);
        prop_assert_eq!(&perm_to_order(&perm), &order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.rows() as u32).collect::<Vec<_>>());

        // never worse than the labels we started from
        let ident: Vec<u32> = (0..g.rows() as u32).collect();
        prop_assert!(bandwidth(&g, &perm) <= bandwidth(&g, &ident));
    }

    #[test]
    fn rcm_is_deterministic_on_perturbed_meshes(
        nx in 2usize..9,
        ny in 2usize..7,
        seed in 0u64..1u64 << 20,
    ) {
        let m = perturbed_quads(nx, ny, 0.1, seed);
        let g = node_graph(&m);
        prop_assert_eq!(rcm_order(&g), rcm_order(&g));
    }

    #[test]
    fn cell_major_edge_order_is_canonical_on_quad_channels(
        nx in 1usize..12,
        ny in 1usize..9,
        seed in 0u64..1u64 << 32,
    ) {
        check_cell_major(quad_channel(nx, ny).mesh, seed);
    }

    #[test]
    fn cell_major_edge_order_is_canonical_on_perturbed_quads(
        // node moves stay below half a row's height: no inverted cells
        nx in 4usize..12,
        ny in 2usize..8,
        seed in 0u64..1u64 << 32,
    ) {
        check_cell_major(perturbed_quads(nx, ny, 0.1, seed), seed ^ 0x5eed);
    }

    #[test]
    fn cell_major_edge_order_is_canonical_on_tri_coastal(
        nx in 1usize..10,
        ny in 1usize..8,
        seed in 0u64..1u64 << 32,
    ) {
        check_cell_major(tri_coastal(nx, ny).mesh, seed);
    }
}
